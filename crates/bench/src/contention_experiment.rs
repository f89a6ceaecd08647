//! F8 — shared-world contention: the knee curve and shared-cache growth.
//!
//! The paper's heavy-traffic concern (ROADMAP item 1) measured: a fixed
//! population of Entertainment users shares **one** cell, **one** WAP
//! gateway and **one** host computer ([`Topology::shared`]), and the
//! population is swept upward while the infrastructure stays put. Three
//! claims are produced and gated in `scripts/tier1.sh`:
//!
//! 1. **The knee.** With caches off, p99 latency is non-decreasing in
//!    population — queueing at the shared FCFS resources bends the tail
//!    upward while p50 moves far less (the knee shape).
//! 2. **Shared-cache growth.** With a long-TTL shared gateway cache,
//!    the hit rate *rises* with population: user B's GET is served by
//!    the entry user A just filled. Per-user caches can never show
//!    this — it is the signature of genuinely shared state.
//! 3. **Identities.** A 1-user shared world is byte-identical to the
//!    user's private world (`Scenario::run_user_traced`, the per-user
//!    reference), and every sweep point is byte-identical across 1/2/4
//!    threads.
//!
//! `--f8` on the report binary writes `BENCH_contention.json`.

use std::fmt;

use mcommerce_core::{
    CachePolicy, Category, ContentionStats, FleetRun, FleetRunner, Scenario, Topology,
    WorkloadCounters,
};
use obs::json::Value::{self, Fixed};
use obs::object;
use simnet::SimDuration;

use crate::gate::{Gate, Numbers};

/// Fixed seed for every F8 population.
const F8_SEED: u64 = 801;

/// Sessions each user runs (Entertainment sessions are two steps).
const SESSIONS_PER_USER: u64 = 6;

/// Think time between sessions, seconds of sim time.
const THINK_SECS: f64 = 2.0;

/// One point of the population sweep, caches off.
#[derive(Debug, Clone)]
pub(crate) struct KneeRow {
    /// Stations sharing the one cell/gateway/host.
    pub(crate) users: u64,
    /// Median transaction latency, milliseconds.
    pub(crate) p50_ms: f64,
    /// Tail transaction latency, milliseconds.
    pub(crate) p99_ms: f64,
    /// Share of transactions that waited on a shared resource.
    pub(crate) contended_share: f64,
    /// Mean wait per transaction across all shared resources, ms.
    pub(crate) mean_wait_ms: f64,
    /// Cell airtime utilisation over the run's horizon (0..1).
    pub(crate) cell_utilisation: f64,
}

impl fmt::Display for KneeRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>4} users: p50 {:>8.1} ms, p99 {:>8.1} ms, contended {:>5.1}%, mean wait {:>8.2} ms, cell util {:>5.1}%",
            self.users,
            self.p50_ms,
            self.p99_ms,
            self.contended_share * 100.0,
            self.mean_wait_ms,
            self.cell_utilisation * 100.0,
        )
    }
}

/// One point of the shared-gateway-cache sweep.
#[derive(Debug, Clone)]
pub(crate) struct CacheGrowthRow {
    /// Stations behind the one shared gateway cache.
    pub(crate) users: u64,
    /// Hit rate of the shared gateway cache (0..1).
    pub(crate) hit_rate: f64,
    /// Raw hits.
    pub(crate) hits: u64,
    /// Raw misses.
    pub(crate) misses: u64,
}

impl fmt::Display for CacheGrowthRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>4} users: shared gateway cache hit rate {:>5.1}% ({} hits / {} misses)",
            self.users,
            self.hit_rate * 100.0,
            self.hits,
            self.misses,
        )
    }
}

/// The complete F8 result set.
#[derive(Debug, Clone)]
pub struct ContentionNumbers {
    /// The knee curve, caches off.
    pub(crate) knee: Vec<KneeRow>,
    /// The shared-cache hit-rate curve, long-TTL gateway cache.
    pub(crate) cache_growth: Vec<CacheGrowthRow>,
    /// Whether the 1-user shared world came out byte-identical to the
    /// per-user reference world (counters *and* JSONL trace).
    pub(crate) one_user_identical: bool,
    /// Whether every sweep point was byte-identical at 1/2/4 threads.
    pub(crate) thread_identity: bool,
}

impl fmt::Display for ContentionNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "one shared cell + gateway + host, Entertainment, {} sessions/user, think {} s, seed {}",
            SESSIONS_PER_USER, THINK_SECS, F8_SEED
        )?;
        writeln!(f, "knee (caches off):")?;
        for row in &self.knee {
            writeln!(f, "  {row}")?;
        }
        writeln!(f, "shared gateway cache (long TTL):")?;
        for row in &self.cache_growth {
            writeln!(f, "  {row}")?;
        }
        writeln!(
            f,
            "1-user shared world identical to the per-user world: {}",
            self.one_user_identical
        )?;
        write!(
            f,
            "every sweep point identical at 1/2/4 threads: {}",
            self.thread_identity
        )
    }
}

impl Numbers for ContentionNumbers {
    const EXPERIMENT: &'static str = "F8_contention";

    fn to_json(&self) -> Value {
        let knee = self.knee.iter().map(|r| {
            object!("users": r.users, "p50_ms": Fixed(r.p50_ms, 4), "p99_ms": Fixed(r.p99_ms, 4),
                "contended_share": Fixed(r.contended_share, 4), "mean_wait_ms": Fixed(r.mean_wait_ms, 4),
                "cell_utilisation": Fixed(r.cell_utilisation, 4))
        });
        let growth = self.cache_growth.iter().map(|r| {
            object!("users": r.users, "hit_rate": Fixed(r.hit_rate, 4), "hits": r.hits, "misses": r.misses)
        });
        object!(
            "experiment": Self::EXPERIMENT,
            "sessions_per_user": SESSIONS_PER_USER,
            "think_secs": Fixed(THINK_SECS, 1),
            "knee": knee.collect::<Value>(),
            "cache_growth": growth.collect::<Value>(),
            "one_user_identical": self.one_user_identical,
            "thread_identity": self.thread_identity,
        )
    }

    fn gates(&self) -> Vec<Gate> {
        let hit_rate = |row: Option<&CacheGrowthRow>| row.map_or(0.0, |r| r.hit_rate);
        let contended = self.knee.last().map_or(0.0, |r| r.contended_share);
        let mut gates = vec![
            Gate::above("largest population's contended share", contended, 0.0),
            Gate::above(
                "shared-cache hit rate at the largest population vs the smallest",
                hit_rate(self.cache_growth.last()),
                hit_rate(self.cache_growth.first()),
            ),
            Gate::holds("1-user shared world identical to the per-user world", self.one_user_identical),
            Gate::holds("every sweep point identical at 1/2/4 threads", self.thread_identity),
        ];
        for w in self.knee.windows(2) {
            let name = format!("knee p99 at {} users >= at {} users (ms)", w[1].users, w[0].users);
            gates.push(Gate::at_least(name, w[1].p99_ms, w[0].p99_ms));
        }
        gates
    }
}

/// The gates of `report --f8 --dash` over the files it wrote: the
/// counter-track trace (`TRACE_fleet.counters.trace.json`) must carry a
/// gateway-utilisation and a shared-cache hit-rate track, and every
/// telemetry row (`TELEMETRY_fleet.jsonl`) the series schema.
pub fn dash_gates(counter_trace: &Value, telemetry_rows: &[Value]) -> Vec<Gate> {
    let names: Vec<&str> = counter_trace["traceEvents"]
        .items()
        .iter()
        .filter(|e| e["ph"].as_str() == Some("C"))
        .filter_map(|e| e["name"].as_str())
        .collect();
    let mut gates = vec![
        Gate::holds(
            "a gateway CPU-utilisation counter track",
            names.iter().any(|n| n.contains("gateway") && n.contains("cpu_util")),
        ),
        Gate::holds(
            "a shared-cache hit-rate counter track",
            names.iter().any(|n| n.contains("cache_hit_rate")),
        ),
    ];
    for key in ["series", "kind", "t_ns", "bin_ns", "sum", "weight", "max", "milli"] {
        gates.push(Gate::holds(
            format!("every telemetry row carries `{key}`"),
            telemetry_rows.iter().all(|row| row.get(key).is_some()),
        ));
    }
    gates
}

/// The F8 scenario for one population. Entertainment browses a small
/// shared catalogue with clean GETs, so cross-user requests overlap —
/// the workload where shared infrastructure (and a shared cache)
/// actually matters.
fn sweep_scenario(users: u64) -> Scenario {
    Scenario::new("F8")
        .app(Category::Entertainment)
        .users(users)
        .sessions_per_user(SESSIONS_PER_USER)
        .think_time(THINK_SECS)
        .seed(F8_SEED)
}

/// One shared-world run on the single-cell topology.
fn run_point(scenario: &Scenario, threads: usize) -> FleetRun {
    FleetRunner::new(scenario.clone())
        .topology(Topology::shared())
        .threads(threads)
        .run()
}

fn knee_row(users: u64, run: &FleetRun) -> KneeRow {
    let workload = &run.report.summary.workload;
    let stats = run.contention.as_ref().expect("shared run");
    KneeRow {
        users,
        p50_ms: workload.counters.latency_percentile(50.0) * 1e3,
        p99_ms: workload.counters.latency_percentile(99.0) * 1e3,
        contended_share: if stats.transactions == 0 {
            0.0
        } else {
            stats.contended_transactions as f64 / stats.transactions as f64
        },
        mean_wait_ms: if stats.transactions == 0 {
            0.0
        } else {
            stats.total_wait_ns() as f64 / stats.transactions as f64 / 1e6
        },
        cell_utilisation: if stats.horizon_ns == 0 {
            0.0
        } else {
            stats.cell_busy_ns as f64 / stats.horizon_ns as f64
        },
    }
}

/// Runs the full F8 experiment. `quick` shrinks the populations for CI
/// smoke runs; seeds, topology and workload are identical either way.
pub fn run(quick: bool) -> ContentionNumbers {
    let populations: Vec<u64> = if quick {
        vec![1, 4, 12, 32]
    } else {
        vec![1, 8, 32, 96]
    };

    // The knee: caches off, so every GET pays the full path and the
    // shared FCFS servers see the whole offered load.
    let mut knee = Vec::new();
    let mut thread_identity = true;
    for &users in &populations {
        let scenario = sweep_scenario(users);
        let two = run_point(&scenario, 2);
        for threads in [1usize, 4] {
            let other = run_point(&scenario, threads);
            thread_identity &= other.report.summary == two.report.summary
                && other.contention == two.contention;
        }
        knee.push(knee_row(users, &two));
    }

    // Shared-cache growth: a TTL much longer than the run keeps every
    // fill live, so the hit rate measures pure cross-user sharing.
    let policy = CachePolicy::standard().ttl(SimDuration::from_secs(3600));
    let cache_growth = populations
        .iter()
        .map(|&users| {
            let run = run_point(&sweep_scenario(users).cache(policy), 2);
            let stats: &ContentionStats = run.contention.as_ref().expect("shared run");
            CacheGrowthRow {
                users,
                hit_rate: stats.gateway_hit_rate(),
                hits: stats.gateway_cache_hits,
                misses: stats.gateway_cache_misses,
            }
        })
        .collect();

    // 1-user identity: the degenerate shared world against the user's
    // private world, counters and traces byte-for-byte.
    let solo = sweep_scenario(1);
    let mut reference = WorkloadCounters::default();
    let reference_trace = solo.run_user_traced(0, &mut reference);
    let degenerate = FleetRunner::new(solo)
        .topology(Topology::shared())
        .traced(true)
        .run();
    let one_user_identical = degenerate.report.summary.workload.counters == reference
        && degenerate.trace.expect("traced").to_jsonl()
            == obs::export::to_jsonl(&reference_trace.events);

    ContentionNumbers {
        knee,
        cache_growth,
        one_user_identical,
        thread_identity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json;
    use crate::gate::failing;

    #[test]
    fn f8_quick_holds_its_gates() {
        let mut numbers = run(true);
        // The gates: p99 non-decreasing in population (the knee), the
        // largest population contends, the shared hit rate grows, and
        // both identities hold.
        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["experiment"].as_str(), Some("F8_contention"));
        assert_eq!(json["knee"].items().len(), numbers.knee.len());
        assert_eq!(json["cache_growth"].items().len(), numbers.cache_growth.len());
        assert_eq!(json["one_user_identical"], Value::Bool(true));
        assert_eq!(json["thread_identity"], Value::Bool(true));

        numbers.knee[2].p99_ms = numbers.knee[1].p99_ms - 1.0;
        assert_eq!(failing(&numbers), ["knee p99 at 12 users >= at 4 users (ms)"]);
    }

    #[test]
    fn dash_gates_need_both_counter_tracks_and_the_row_schema() {
        let counters = |names: &[&str]| {
            let events = names.iter().map(|&name| object!("name": name, "ph": "C"));
            object!("traceEvents": events.collect::<Value>())
        };
        let fields = ["series", "kind", "t_ns", "bin_ns", "sum", "weight", "max", "milli"];
        let row = |n: usize| Value::Object(fields[..n].iter().map(|&k| (k.into(), 0u64.into())).collect());
        let failing = |trace: &Value, row: Value| -> Vec<String> {
            dash_gates(trace, &[row]).into_iter().filter(|g| !g.passed).map(|g| g.name).collect()
        };
        let both = counters(&["gateway0000.cpu_util", "gateway0000.cache_hit_rate"]);
        assert!(failing(&both, row(8)).is_empty());
        let one = counters(&["gateway0000.cpu_util"]);
        assert_eq!(failing(&one, row(8)), ["a shared-cache hit-rate counter track"]);
        assert_eq!(failing(&both, row(7)), ["every telemetry row carries `milli`"]);
    }
}
