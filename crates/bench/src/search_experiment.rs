//! F12 — full-text catalog search: cold vs memoized latency, index
//! scaling, write-rate sensitivity, and the index-equals-scan gate.
//!
//! DESIGN.md §2.19 adds a host-side inverted index over the commerce
//! catalog and routes the seventh workload — browse → search → refine →
//! purchase — through it. This experiment prices that path:
//!
//! 1. **Cold vs warm fleet.** The search-heavy commerce workload runs
//!    once with every cache disabled and once under the standard cache
//!    policy (whose TTL covers a session). Search responses are
//!    `no_store`, so the HTTP tiers never answer for them — the warm
//!    win comes from the DB-level search memo serving the in-session
//!    repeat query. CI gates warm p50 strictly below cold.
//! 2. **Index-size axis.** An engine micro-leg searches catalogs of
//!    16/64/256 rows and drains the simulated search cost: postings
//!    visited grow with the catalog, so the modelled cost must be
//!    strictly monotone in rows.
//! 3. **Write-rate axis.** 100 identical queries interleaved with 0, 10
//!    and 50 catalog writes: each write invalidates the memoized result
//!    for the table, so the memo hit count must fall as the write rate
//!    rises.
//! 4. **Index = scan.** The query battery over an edited catalog,
//!    indexed search compared row-for-row against the brute-force
//!    projection.
//! 5. **Thread identity.** The search-heavy fleet, caches on, merged on
//!    1/2/4/8 shards — byte-identical summaries or the bool trips.
//! 6. **Interner flatness.** Ten thousand distinct search queries
//!    against a page-cached server must intern zero keys: the
//!    high-cardinality-key regression this PR's bugfix sweep fixed.
//!
//! Results are written as the `BENCH_search.json` artefact.

use std::fmt;

use hostsite::db::Database;
use hostsite::{HttpRequest, HttpResponse, WebServer};
use mcommerce_core::{CachePolicy, Category, CommerceSystem, FleetRunner, Scenario, WorkloadCounters};
use obs::json::Value::{self, Fixed};
use obs::object;

use crate::gate::{Gate, Numbers};

/// Fixed seed for every F12 population.
const F12_SEED: u64 = 1201;

/// Search-heavy sessions each user runs.
const SESSIONS: u64 = 4;

/// The catalog-size axis of the index micro-leg.
const CATALOG_ROWS: [i64; 3] = [16, 64, 256];

/// The write-rate axis: catalog writes interleaved per 100 queries.
const WRITE_RATES: [u32; 3] = [0, 10, 50];

/// One fleet leg of the cold/warm comparison.
#[derive(Debug, Clone)]
pub(crate) struct LatencyLeg {
    /// Leg label: `cold` (caches off) or `warm` (standard policy).
    pub(crate) leg: &'static str,
    /// p50 transaction latency across the fleet, milliseconds.
    pub(crate) p50_ms: f64,
    /// p99 transaction latency across the fleet, milliseconds.
    pub(crate) p99_ms: f64,
    /// Total simulated search CPU charged to hosts, milliseconds.
    pub(crate) search_ms: f64,
    /// DB search-memo hits across the fleet.
    pub(crate) memo_hits: u64,
}

impl fmt::Display for LatencyLeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<4}: p50 {:>7.1} ms p99 {:>7.1} ms | {:>8.2} ms searching, {} memo hits",
            self.leg, self.p50_ms, self.p99_ms, self.search_ms, self.memo_hits
        )
    }
}

/// One row of the index-size axis.
#[derive(Debug, Clone)]
pub(crate) struct IndexSizeRow {
    /// Catalog rows indexed.
    pub(crate) rows: i64,
    /// Simulated cost of one cold two-term search, nanoseconds.
    pub(crate) cold_search_ns: u64,
}

/// One row of the write-rate axis.
#[derive(Debug, Clone)]
pub(crate) struct WriteRateRow {
    /// Catalog writes interleaved per 100 queries.
    pub(crate) writes_per_100_queries: u32,
    /// Search-memo hits over those 100 queries.
    pub(crate) memo_hits: u64,
    /// Search-memo misses (cold executions) over those 100 queries.
    pub(crate) memo_misses: u64,
}

/// The complete F12 result set.
#[derive(Debug, Clone)]
pub struct SearchNumbers {
    /// Searching users per fleet leg.
    pub(crate) users: u64,
    /// Search-heavy sessions per user.
    pub(crate) sessions_per_user: u64,
    /// The cold/warm fleet comparison.
    pub(crate) latency: Vec<LatencyLeg>,
    /// The catalog-size axis.
    pub(crate) index_size: Vec<IndexSizeRow>,
    /// The write-rate axis.
    pub(crate) write_rate: Vec<WriteRateRow>,
    /// Whether indexed search matched the brute-force scan row for row
    /// across the whole query battery.
    pub(crate) search_equals_scan: bool,
    /// Whether the search-heavy fleet merged byte-identically on
    /// 1/2/4/8 shards.
    pub(crate) thread_identical: bool,
    /// Whether 10k distinct search queries left the page cache holding
    /// no keys (the high-cardinality-key regression gate).
    pub(crate) interner_flat: bool,
}

impl fmt::Display for SearchNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "search fleet: {} users × {} search-heavy sessions, seed {}",
            self.users, self.sessions_per_user, F12_SEED
        )?;
        for leg in &self.latency {
            writeln!(f, "  {leg}")?;
        }
        writeln!(f, "cold search cost by catalog size:")?;
        for row in &self.index_size {
            writeln!(
                f,
                "  {:>4} rows: {:>9} ns per two-term search",
                row.rows, row.cold_search_ns
            )?;
        }
        writeln!(f, "memo hit rate under interleaved writes (100 queries):")?;
        for row in &self.write_rate {
            writeln!(
                f,
                "  {:>2} writes: {:>3} hits / {:>3} misses",
                row.writes_per_100_queries, row.memo_hits, row.memo_misses
            )?;
        }
        writeln!(f, "indexed search equals brute-force scan: {}", self.search_equals_scan)?;
        writeln!(
            f,
            "search fleet identical across 1/2/4/8 threads: {}",
            self.thread_identical
        )?;
        write!(
            f,
            "no keys held after 10k distinct queries: {}",
            self.interner_flat
        )
    }
}

impl Numbers for SearchNumbers {
    const EXPERIMENT: &'static str = "F12_search";

    fn to_json(&self) -> Value {
        let latency = self.latency.iter().map(|l| {
            object!("leg": l.leg, "p50_ms": Fixed(l.p50_ms, 4), "p99_ms": Fixed(l.p99_ms, 4),
                "search_ms": Fixed(l.search_ms, 4), "memo_hits": l.memo_hits)
        });
        let index_size = self.index_size.iter();
        let index_size = index_size.map(|r| object!("rows": r.rows, "cold_search_ns": r.cold_search_ns));
        let write_rate = self.write_rate.iter().map(|r| {
            object!("writes_per_100_queries": r.writes_per_100_queries, "memo_hits": r.memo_hits,
                "memo_misses": r.memo_misses)
        });
        object!(
            "experiment": Self::EXPERIMENT,
            "users": self.users,
            "sessions_per_user": self.sessions_per_user,
            "latency": latency.collect::<Value>(),
            "index_size": index_size.collect::<Value>(),
            "write_rate": write_rate.collect::<Value>(),
            "search_equals_scan": self.search_equals_scan,
            "thread_identical": self.thread_identical,
            "interner_flat": self.interner_flat,
        )
    }

    fn gates(&self) -> Vec<Gate> {
        let mut gates = vec![
            Gate::holds("indexed search equals the brute-force scan", self.search_equals_scan),
            Gate::holds("search fleet identical at 1/2/4/8 threads", self.thread_identical),
            Gate::holds("no keys held after 10k distinct queries", self.interner_flat),
        ];
        let leg = |name: &str| self.latency.iter().find(|l| l.leg == name);
        match (leg("cold"), leg("warm")) {
            (Some(cold), Some(warm)) => gates.extend([
                Gate::below("warm search p50 below cold (ms)", warm.p50_ms, cold.p50_ms),
                Gate::below("warm search CPU below cold (ms)", warm.search_ms, cold.search_ms),
                Gate::equals("cold leg memo hits", cold.memo_hits, 0),
                Gate::above("warm leg memo hits", warm.memo_hits, 0),
            ]),
            _ => gates.push(Gate::holds("cold and warm legs measured", false)),
        }
        for w in self.index_size.windows(2) {
            let name = format!("cold search cost at {} rows > at {} rows (ns)", w[1].rows, w[0].rows);
            gates.push(Gate::above(name, w[1].cold_search_ns, w[0].cold_search_ns));
        }
        for r in &self.write_rate {
            let name = format!("{} writes: memo hits + misses", r.writes_per_100_queries);
            gates.push(Gate::equals(name, r.memo_hits + r.memo_misses, 100));
        }
        for w in self.write_rate.windows(2) {
            let (from, to) = (w[0].writes_per_100_queries, w[1].writes_per_100_queries);
            let name = format!("memo hits at {to} writes < at {from} writes");
            gates.push(Gate::below(name, w[1].memo_hits, w[0].memo_hits));
        }
        gates
    }
}

/// Runs the search-heavy workload for one leg under `policy`,
/// recording **only the search steps** into the counters — the
/// percentiles compare search latency, not the whole session mix. All
/// steps still execute (browsing warms the page caches, buying commits
/// the purchase); the leg's metrics carry the simulated search CPU
/// (`host.db.search_ns`) and memo traffic (`host.db_cache.search_*`).
fn search_cell(policy: CachePolicy, users: u64) -> (WorkloadCounters, obs::Metrics) {
    let scenario = Scenario::new("F12")
        .app(Category::Commerce)
        .search_heavy(true)
        .sessions_per_user(SESSIONS)
        .seed(F12_SEED)
        .cache(policy);
    let app = mcommerce_core::apps::for_category(Category::Commerce);
    let guard = obs::metrics::enable();
    let mut counters = WorkloadCounters::default();
    for user in 0..users {
        let mut system = scenario.system_for_user(user);
        let session_seed = simnet::rng::sub_seed(F12_SEED, "fleet.session", user);
        for session in 0..SESSIONS {
            for step in app.search_session(session_seed, session) {
                let report = system.execute(&step.req);
                assert!(report.success, "{:?}", report.failure);
                if step.req.url.starts_with("/shop/search") {
                    counters.record(&report);
                }
            }
        }
    }
    drop(guard);
    (counters, obs::metrics::take())
}

/// A catalog of `rows` products whose names cycle through a fixed
/// vocabulary, full-text indexed on `name`.
fn indexed_catalog(rows: i64) -> Database {
    const ADJECTIVES: [&str; 4] = ["wireless", "leather", "spare", "travel"];
    const NOUNS: [&str; 4] = ["earpiece", "case", "stylus", "charger"];
    let mut db = Database::new();
    db.create_table("products", &["sku", "name", "price"], &["name"])
        .unwrap();
    for sku in 0..rows {
        let name = format!(
            "{} {}",
            ADJECTIVES[(sku % 4) as usize],
            NOUNS[((sku / 4) % 4) as usize]
        );
        db.insert("products", vec![sku.into(), name.into(), 100i64.into()])
            .unwrap();
    }
    db.create_fts("products", "name").unwrap();
    db
}

/// Simulated cost of one cold two-term search over a `rows`-row
/// catalog: the vocabulary cycles, so postings visited — and therefore
/// the drained cost — grow linearly with the catalog.
fn cold_search_ns(rows: i64) -> u64 {
    let mut db = indexed_catalog(rows);
    db.search("products", "wireless earpiece").unwrap();
    db.drain_search_cost_ns()
}

/// Memo behaviour under write pressure: 100 identical queries with
/// `writes` fresh catalog inserts spread evenly between them. Every
/// insert invalidates the memoized result, forcing the next query cold.
fn memo_under_writes(writes: u32) -> (u64, u64) {
    let mut db = indexed_catalog(64);
    db.set_query_cache(true);
    let guard = obs::metrics::enable();
    let mut next_sku = 10_000i64;
    for i in 0..100u32 {
        db.search("products", "wireless").unwrap();
        if writes > 0 && (i + 1) % (100 / writes) == 0 {
            db.insert(
                "products",
                vec![next_sku.into(), "filler item".into(), 1i64.into()],
            )
            .unwrap();
            next_sku += 1;
        }
    }
    drop(guard);
    let metrics = obs::metrics::take();
    (
        metrics.counter("host.db_cache.search_hits"),
        metrics.counter("host.db_cache.search_misses"),
    )
}

/// The index-equals-scan battery over an edited catalog.
fn search_equals_scan() -> bool {
    let mut db = indexed_catalog(64);
    // Edit history: deletes and updates so the incremental postings
    // have seen removals, not just the initial build.
    for sku in [3i64, 17, 40] {
        db.delete("products", &sku.into()).unwrap();
    }
    for sku in [5i64, 21] {
        db.update(
            "products",
            vec![sku.into(), "renamed travel kit".into(), 90i64.into()],
        )
        .unwrap();
    }
    let queries = [
        "wireless",
        "earpiece",
        "travel kit",
        "wireless earpiece",
        "leather case",
        "renamed",
        "unobtainium",
        "",
    ];
    queries.iter().all(|q| {
        let indexed = db.search("products", q).unwrap();
        let scanned = db.search_scan("products", "name", q).unwrap();
        indexed.len() == scanned.len() && indexed.iter().zip(scanned.iter()).all(|(a, b)| a == b)
    })
}

/// Ten thousand distinct search queries against a page-cached server:
/// `no_store` responses bypass admission and lookups build no key, so
/// the page cache must hold no keys.
fn interner_flat() -> bool {
    let mut server = WebServer::new(Database::new(), F12_SEED);
    server.route_get(
        "/search",
        |req: &HttpRequest, _ctx: &mut hostsite::ServerCtx<'_>| {
            let q = req.param("q").unwrap_or_default();
            HttpResponse::ok(format!("<html><body>results for {q}</body></html>")).with_no_store()
        },
    );
    server.configure_page_cache(30_000_000_000, 256 * 1024);
    for i in 0..10_000u64 {
        let (_, hit) = server.handle_cached(HttpRequest::get(&format!("/search?q=term{i}")));
        if hit {
            return false;
        }
    }
    server.page_cache_len() == 0
}

/// Runs the full F12 experiment. `quick` shrinks the populations for CI
/// smoke runs; seeds and both micro-axes are identical either way.
pub fn run(quick: bool) -> SearchNumbers {
    let users = if quick { 6 } else { 16 };

    let mut latency = Vec::new();
    for (leg, policy) in [
        ("cold", CachePolicy::disabled()),
        ("warm", CachePolicy::standard()),
    ] {
        let (counters, metrics) = search_cell(policy, users);
        latency.push(LatencyLeg {
            leg,
            p50_ms: counters.latency_percentile(50.0) * 1e3,
            p99_ms: counters.latency_percentile(99.0) * 1e3,
            search_ms: metrics.counter("host.db.search_ns") as f64 / 1e6,
            memo_hits: metrics.counter("host.db_cache.search_hits"),
        });
    }

    let index_size = CATALOG_ROWS
        .iter()
        .map(|&rows| IndexSizeRow {
            rows,
            cold_search_ns: cold_search_ns(rows),
        })
        .collect();

    let write_rate = WRITE_RATES
        .iter()
        .map(|&writes| {
            let (memo_hits, memo_misses) = memo_under_writes(writes);
            WriteRateRow {
                writes_per_100_queries: writes,
                memo_hits,
                memo_misses,
            }
        })
        .collect();

    // Thread identity, caches on: the high-cardinality query key space
    // must not cost a single bit of shard invariance.
    let identity = Scenario::new("F12-identity")
        .app(Category::Commerce)
        .search_heavy(true)
        .users(if quick { 8 } else { 16 })
        .sessions_per_user(2)
        .cache(CachePolicy::standard())
        .seed(F12_SEED + 1);
    let base = FleetRunner::new(identity.clone()).threads(1).run().report.summary;
    let thread_identical = [2, 4, 8].iter().all(|&threads| {
        FleetRunner::new(identity.clone())
            .threads(threads)
            .run()
            .report
            .summary
            == base
    });

    SearchNumbers {
        users,
        sessions_per_user: SESSIONS,
        latency,
        index_size,
        write_rate,
        search_equals_scan: search_equals_scan(),
        thread_identical,
        interner_flat: interner_flat(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json;
    use crate::gate::failing;

    #[test]
    fn search_pays_cold_and_saves_warm() {
        let mut numbers = run(true);
        // The gates: warm search beats cold in p50 and simulated CPU,
        // only the warm leg hits the memo, cost is strictly monotone in
        // catalog size, memo hits fall as writes rise (100 queries per
        // leg), and the three identities hold.
        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["search_equals_scan"], Value::Bool(true), "{json}");

        numbers.write_rate[2].memo_hits = numbers.write_rate[1].memo_hits;
        numbers.write_rate[2].memo_misses = 100 - numbers.write_rate[2].memo_hits;
        assert_eq!(failing(&numbers), ["memo hits at 50 writes < at 10 writes"]);
    }

    #[test]
    fn the_legs_are_deterministic() {
        let (a, am) = search_cell(CachePolicy::standard(), 3);
        let (b, bm) = search_cell(CachePolicy::standard(), 3);
        assert_eq!(a, b, "same seed, same numbers");
        assert_eq!(
            am.counter("host.db.search_ns"),
            bm.counter("host.db.search_ns")
        );
        assert_eq!(a.attempted, 3 * SESSIONS * 5, "five search steps per session");
    }
}
