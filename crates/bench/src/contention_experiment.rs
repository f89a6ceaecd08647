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
use simnet::SimDuration;

/// Fixed seed for every F8 population.
const F8_SEED: u64 = 801;

/// Sessions each user runs (Entertainment sessions are two steps).
const SESSIONS_PER_USER: u64 = 6;

/// Think time between sessions, seconds of sim time.
const THINK_SECS: f64 = 2.0;

/// One point of the population sweep, caches off.
#[derive(Debug, Clone)]
pub struct KneeRow {
    /// Stations sharing the one cell/gateway/host.
    pub users: u64,
    /// Median transaction latency, milliseconds.
    pub p50_ms: f64,
    /// Tail transaction latency, milliseconds.
    pub p99_ms: f64,
    /// Share of transactions that waited on a shared resource.
    pub contended_share: f64,
    /// Mean wait per transaction across all shared resources, ms.
    pub mean_wait_ms: f64,
    /// Cell airtime utilisation over the run's horizon (0..1).
    pub cell_utilisation: f64,
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
pub struct CacheGrowthRow {
    /// Stations behind the one shared gateway cache.
    pub users: u64,
    /// Hit rate of the shared gateway cache (0..1).
    pub hit_rate: f64,
    /// Raw hits.
    pub hits: u64,
    /// Raw misses.
    pub misses: u64,
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
    /// Population sweep shared by both curves.
    pub populations: Vec<u64>,
    /// The knee curve, caches off.
    pub knee: Vec<KneeRow>,
    /// The shared-cache hit-rate curve, long-TTL gateway cache.
    pub cache_growth: Vec<CacheGrowthRow>,
    /// Whether the 1-user shared world came out byte-identical to the
    /// per-user reference world (counters *and* JSONL trace).
    pub one_user_identical: bool,
    /// Whether every sweep point was byte-identical at 1/2/4 threads.
    pub thread_identity: bool,
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

impl ContentionNumbers {
    /// Renders the artefact written to `BENCH_contention.json`.
    pub fn to_json(&self) -> String {
        let knee: Vec<String> = self
            .knee
            .iter()
            .map(|r| {
                format!(
                    "    {{ \"users\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"contended_share\": {:.4}, \"mean_wait_ms\": {:.4}, \"cell_utilisation\": {:.4} }}",
                    r.users, r.p50_ms, r.p99_ms, r.contended_share, r.mean_wait_ms, r.cell_utilisation
                )
            })
            .collect();
        let growth: Vec<String> = self
            .cache_growth
            .iter()
            .map(|r| {
                format!(
                    "    {{ \"users\": {}, \"hit_rate\": {:.4}, \"hits\": {}, \"misses\": {} }}",
                    r.users, r.hit_rate, r.hits, r.misses
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"F8_contention\",\n  \"sessions_per_user\": {},\n  \"think_secs\": {:.1},\n  \"knee\": [\n{}\n  ],\n  \"cache_growth\": [\n{}\n  ],\n  \"one_user_identical\": {},\n  \"thread_identity\": {}\n}}\n",
            SESSIONS_PER_USER,
            THINK_SECS,
            knee.join(",\n"),
            growth.join(",\n"),
            self.one_user_identical,
            self.thread_identity
        )
    }
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
        populations,
        knee,
        cache_growth,
        one_user_identical,
        thread_identity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f8_quick_holds_its_gates() {
        let numbers = run(true);
        assert!(numbers.one_user_identical);
        assert!(numbers.thread_identity);
        // The knee: p99 non-decreasing in population, and the largest
        // population actually contends.
        for pair in numbers.knee.windows(2) {
            assert!(
                pair[1].p99_ms >= pair[0].p99_ms,
                "p99 must not fall as population grows: {} then {}",
                pair[0].p99_ms,
                pair[1].p99_ms
            );
        }
        assert!(numbers.knee.last().unwrap().contended_share > 0.0);
        // Shared-cache growth: the largest population beats the 1-user
        // hit rate strictly.
        let first = numbers.cache_growth.first().unwrap();
        let last = numbers.cache_growth.last().unwrap();
        assert!(
            last.hit_rate > first.hit_rate,
            "shared cache must help more with more users: {} vs {}",
            last.hit_rate,
            first.hit_rate
        );
    }

    #[test]
    fn f8_json_is_shaped_like_the_artefact() {
        let numbers = run(true);
        let json = numbers.to_json();
        assert!(json.contains("\"experiment\": \"F8_contention\""));
        assert!(json.contains("\"knee\""));
        assert!(json.contains("\"cache_growth\""));
        assert!(json.contains("\"one_user_identical\": true"));
        assert!(json.contains("\"thread_identity\": true"));
    }
}
