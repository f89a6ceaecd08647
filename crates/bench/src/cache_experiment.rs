//! F7 — the caching hierarchy: cold vs warm latency under TTL ×
//! revisit-locality, plus the zero-TTL identity gate.
//!
//! DESIGN.md §2.14 adds three deterministic caches to the stack: the
//! gateway content cache (middleware), the page cache (host web server)
//! and the query cache (host database). This experiment prices what
//! they buy and proves what they must not change:
//!
//! 1. **TTL × locality sweep.** A browse workload (one user re-fetching
//!    the shop page with think time between visits) runs cold (caches
//!    disabled) and warm (TTL sweep). The first transaction of every
//!    user — session setup plus the compulsory cold fill — is excluded
//!    from the percentile accounting, so the p50/p99 columns compare
//!    steady-state revisits. CI gates on warm p50 *and* p99 strictly
//!    below cold whenever the TTL outlives the revisit interval.
//! 2. **Zero-TTL identity.** A fleet carrying `enabled` but zero TTLs
//!    (the query cache runs, but it is sim-time transparent) is
//!    asserted byte-identical to a cache-free fleet at a different
//!    thread count.
//! 3. **Counter visibility.** Dedicated legs light each layer's
//!    hit counters: the gateway cache on the browse sweep, the page
//!    cache with the gateway TTL zeroed, and the query cache on a
//!    healthcare record poll (reads only — no write invalidation).
//! 4. **`Arc<Row>` read path.** A wall-clock micro-measurement of
//!    `Database::get` over chunky rows — the hot path that used to
//!    deep-clone every row on read.
//!
//! Results are written as the `BENCH_cache.json` artefact.

use std::fmt;
use std::time::Instant;

use hostsite::db::Database;
use mcommerce_core::apps::healthcare::CLINICIAN;
use mcommerce_core::{CachePolicy, Category, CommerceSystem, FleetRunner, Scenario, WorkloadCounters};
use middleware::MobileRequest;
use obs::json::Value::{self, Fixed};
use obs::object;
use simnet::SimDuration;

use crate::gate::{Gate, Numbers};

/// Fixed seed for every F7 population.
const F7_SEED: u64 = 701;

/// GETs each browsing user issues (the first is the excluded cold fill).
const BROWSE_GETS: u64 = 12;

/// One cell of the TTL × think-time sweep, with the matching cold
/// (cache-free) percentiles alongside.
#[derive(Debug, Clone)]
pub(crate) struct CacheSweepRow {
    /// Cache TTL at both layers, seconds of sim time.
    pub(crate) ttl_s: f64,
    /// Think time between revisits, seconds of sim time.
    pub(crate) think_s: f64,
    /// Warm p50 over steady-state revisits, milliseconds.
    pub(crate) p50_ms: f64,
    /// Warm p99 over steady-state revisits, milliseconds.
    pub(crate) p99_ms: f64,
    /// Cold p50 over the same revisits with caches disabled.
    pub(crate) cold_p50_ms: f64,
    /// Cold p99 with caches disabled.
    pub(crate) cold_p99_ms: f64,
    /// Gateway content-cache hits across the cell.
    pub(crate) gateway_hits: u64,
}

impl fmt::Display for CacheSweepRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ttl {:>5.0} s, revisit every {:>4.0} s: warm p50 {:>7.1} ms p99 {:>7.1} ms | cold p50 {:>7.1} ms p99 {:>7.1} ms | {} gateway hits",
            self.ttl_s,
            self.think_s,
            self.p50_ms,
            self.p99_ms,
            self.cold_p50_ms,
            self.cold_p99_ms,
            self.gateway_hits,
        )
    }
}

/// The complete F7 result set.
#[derive(Debug, Clone)]
pub struct CacheNumbers {
    /// Browsing users per sweep cell.
    pub(crate) users: u64,
    /// GETs each user issues (first excluded as the cold fill).
    pub(crate) gets_per_user: u64,
    /// The TTL × locality sweep.
    pub(crate) sweep: Vec<CacheSweepRow>,
    /// Whether the zero-TTL fleet came out byte-identical to the
    /// cache-free fleet at a different thread count.
    pub(crate) zero_ttl_identical: bool,
    /// Page-cache hits with the gateway cache disabled.
    pub(crate) page_hits: u64,
    /// Query-cache hits on the read-only healthcare poll.
    pub(crate) db_hits: u64,
    /// Wall-clock nanoseconds per `Database::get` over chunky rows
    /// (machine-dependent; the `Arc<Row>` read path).
    pub(crate) db_get_ns: f64,
}

impl fmt::Display for CacheNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "browse fleet: {} users × {} GETs (first GET excluded as cold fill), seed {}",
            self.users, self.gets_per_user, F7_SEED
        )?;
        for row in &self.sweep {
            writeln!(f, "  {row}")?;
        }
        writeln!(
            f,
            "zero-TTL fleet identical to cache-free fleet: {}",
            self.zero_ttl_identical
        )?;
        writeln!(
            f,
            "layer counters: page cache {} hits (gateway TTL 0), query cache {} hits (read-only poll)",
            self.page_hits, self.db_hits
        )?;
        write!(
            f,
            "Database::get over 2 KB rows: {:.0} ns/op (Arc'd read path, wall clock)",
            self.db_get_ns
        )
    }
}

impl Numbers for CacheNumbers {
    const EXPERIMENT: &'static str = "F7_cache";

    fn to_json(&self) -> Value {
        let sweep = self.sweep.iter().map(|r| {
            object!("ttl_s": Fixed(r.ttl_s, 1), "think_s": Fixed(r.think_s, 1),
                "p50_ms": Fixed(r.p50_ms, 4), "p99_ms": Fixed(r.p99_ms, 4),
                "cold_p50_ms": Fixed(r.cold_p50_ms, 4), "cold_p99_ms": Fixed(r.cold_p99_ms, 4),
                "gateway_hits": r.gateway_hits)
        });
        object!(
            "experiment": Self::EXPERIMENT,
            "users": self.users,
            "gets_per_user": self.gets_per_user,
            "sweep": sweep.collect::<Value>(),
            "zero_ttl_identical": self.zero_ttl_identical,
            "counters": object!("page_hits": self.page_hits, "db_hits": self.db_hits),
            "db_get_ns": Fixed(self.db_get_ns, 1),
        )
    }

    /// Warm must beat cold wherever the TTL outlives the revisit
    /// interval (TTL ≥ 30 s, revisits ≤ 1 s apart).
    fn gates(&self) -> Vec<Gate> {
        let mut gates = vec![
            Gate::holds("zero-TTL fleet identical to cache-free fleet", self.zero_ttl_identical),
            Gate::above("page-cache hits", self.page_hits, 0),
            Gate::above("query-cache hits", self.db_hits, 0),
        ];
        for r in self.sweep.iter().filter(|r| r.ttl_s >= 30.0 && r.think_s <= 1.0) {
            let cell = format!("ttl {} s, think {} s", r.ttl_s, r.think_s);
            gates.extend([
                Gate::below(format!("{cell}: warm p50 below cold (ms)"), r.p50_ms, r.cold_p50_ms),
                Gate::below(format!("{cell}: warm p99 below cold (ms)"), r.p99_ms, r.cold_p99_ms),
                Gate::above(format!("{cell}: gateway hits"), r.gateway_hits, 0),
            ]);
        }
        gates
    }
}

/// Runs the browse workload for one sweep cell: every user re-fetches
/// the shop page `BROWSE_GETS` times with `think_secs` of idle between
/// visits. The first GET per user (session setup + compulsory cold
/// fill) is excluded from the counters, so the percentiles compare
/// steady-state revisits. Returns the counters and the cell's metrics.
fn browse_cell(
    policy: CachePolicy,
    think_secs: f64,
    users: u64,
) -> (WorkloadCounters, obs::Metrics) {
    let scenario = Scenario::new("F7").app(Category::Commerce).seed(F7_SEED);
    let guard = obs::metrics::enable();
    let mut counters = WorkloadCounters::default();
    for user in 0..users {
        let mut system = scenario.system_for_user(user);
        system.set_cache_policy(policy);
        for get in 0..BROWSE_GETS {
            if get > 0 && think_secs > 0.0 {
                system.idle(think_secs);
            }
            let report = system.execute(&MobileRequest::get("/shop"));
            if get > 0 {
                counters.record(&report);
            }
        }
    }
    drop(guard);
    (counters, obs::metrics::take())
}

/// The read-only healthcare poll: clinicians re-fetching one patient's
/// record. Only the query cache is on (both TTLs zero), every GET runs
/// `get` + `select_eq` with no intervening writes — so from the second
/// poll on, the vitals query is served from cache.
fn db_poll_hits() -> u64 {
    let scenario = Scenario::new("F7-db")
        .app(Category::HealthCare)
        .seed(F7_SEED);
    let mut system = scenario.system_for_user(0);
    system.set_cache_policy(CachePolicy {
        enabled: true,
        ..CachePolicy::disabled()
    });
    let guard = obs::metrics::enable();
    for _ in 0..6 {
        let report = system.execute(
            &MobileRequest::get("/ward/patient?id=1").with_auth(CLINICIAN.0, CLINICIAN.1),
        );
        assert!(report.success, "{:?}", report.failure);
    }
    drop(guard);
    obs::metrics::take().counter("host.db_cache.hits")
}

/// Wall-clock nanoseconds per [`Database::get`] over ~2 KB rows — the
/// hot read path that returns `Arc<Row>` instead of deep-cloning.
pub(crate) fn db_read_ns_per_op() -> f64 {
    const ROWS: i64 = 1_000;
    const PASSES: usize = 50;
    let mut db = Database::new();
    db.create_table("wide", &["id", "payload"], &[]).unwrap();
    let payload = "x".repeat(2_048);
    for id in 0..ROWS {
        db.insert("wide", vec![id.into(), payload.clone().into()])
            .unwrap();
    }
    let started = Instant::now();
    let mut touched = 0usize;
    for _ in 0..PASSES {
        for id in 0..ROWS {
            let row = db.get("wide", &id.into()).unwrap().expect("seeded");
            touched += std::hint::black_box(&row).len();
        }
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    assert_eq!(touched, PASSES * ROWS as usize * 2);
    elapsed / (PASSES * ROWS as usize) as f64
}

/// Runs the full F7 experiment. `quick` shrinks the populations for CI
/// smoke runs; seeds and the sweep grid are identical either way.
pub fn run(quick: bool) -> CacheNumbers {
    let users = if quick { 8 } else { 24 };

    let mut sweep = Vec::new();
    for &think_s in &[1.0f64, 10.0] {
        let (cold, _) = browse_cell(CachePolicy::disabled(), think_s, users);
        let cold_p50_ms = cold.latency_percentile(50.0) * 1e3;
        let cold_p99_ms = cold.latency_percentile(99.0) * 1e3;
        for &ttl_s in &[5.0f64, 30.0, 120.0] {
            let policy = CachePolicy::standard().ttl(SimDuration::from_secs(ttl_s as u64));
            let (warm, metrics) = browse_cell(policy, think_s, users);
            sweep.push(CacheSweepRow {
                ttl_s,
                think_s,
                p50_ms: warm.latency_percentile(50.0) * 1e3,
                p99_ms: warm.latency_percentile(99.0) * 1e3,
                cold_p50_ms,
                cold_p99_ms,
                gateway_hits: metrics.counter("middleware.cache.hits"),
            });
        }
    }

    // Zero-TTL identity, cross-checked at different thread counts: the
    // query cache runs underneath but must not move a single bit.
    let base = Scenario::new("F7-identity")
        .app(Category::Commerce)
        .users(if quick { 8 } else { 16 })
        .sessions_per_user(2)
        .seed(F7_SEED + 1);
    let plain = FleetRunner::new(base.clone()).threads(2).run().report.summary;
    let zero_ttl = FleetRunner::new(base.cache(CachePolicy {
        enabled: true,
        ..CachePolicy::disabled()
    }))
    .threads(4)
    .run()
    .report
    .summary;
    let zero_ttl_identical = plain == zero_ttl;

    // Page-cache visibility: gateway TTL zero, so repeat GETs reach the
    // host and the page cache answers them.
    let host_only = CachePolicy {
        gateway_ttl: SimDuration::ZERO,
        ..CachePolicy::standard()
    };
    let (_, host_metrics) = browse_cell(host_only, 1.0, users.min(4));
    let page_hits = host_metrics.counter("host.page_cache.hits");

    CacheNumbers {
        users,
        gets_per_user: BROWSE_GETS,
        sweep,
        zero_ttl_identical,
        page_hits,
        db_hits: db_poll_hits(),
        db_get_ns: db_read_ns_per_op(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json;
    use crate::gate::failing;

    #[test]
    fn warm_revisits_beat_cold_whenever_the_ttl_outlives_the_interval() {
        let mut numbers = run(true);
        // The gates: warm beats cold where the TTL outlives the revisit
        // interval, the zero-TTL identity holds, every layer hits.
        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());
        for row in &numbers.sweep {
            assert!(row.gateway_hits > 0 || row.ttl_s < row.think_s, "{row}");
        }
        assert!(numbers.db_get_ns > 0.0);
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["zero_ttl_identical"], Value::Bool(true), "{json}");

        numbers.page_hits = 0;
        assert_eq!(failing(&numbers), ["page-cache hits"]);
    }

    #[test]
    fn the_cold_fill_is_excluded_and_the_sweep_is_deterministic() {
        let (a, _) = browse_cell(CachePolicy::standard(), 1.0, 3);
        let (b, _) = browse_cell(CachePolicy::standard(), 1.0, 3);
        assert_eq!(a, b, "same seed, same numbers");
        assert_eq!(a.attempted, 3 * (BROWSE_GETS - 1), "first GET excluded");
        assert_eq!(a.succeeded, a.attempted);
    }
}
