//! F11 — the durable storage engine: WAL group commit × fsync cost vs
//! transaction latency, recovery-time pricing, and the zero-cost
//! identity gate.
//!
//! DESIGN.md §2.18 gives the host database a write-ahead log with group
//! commit and rebuildable secondary indexes. This experiment prices the
//! durability knob and proves it free when off:
//!
//! 1. **Durability sweep.** The commerce buy workload (every session
//!    ends in a journaled two-phase purchase) runs under every
//!    `commit_batch` × `fsync_ns` cell. Each WAL sync charges one
//!    fsync-equivalent to the committing request's host time, so larger
//!    batches amortize the same durability cost over more commits —
//!    the classic group-commit trade of latency against loss window.
//! 2. **Recovery pricing.** [`db_recovery_outage_ns`] maps journal
//!    length × policy to the crash outage: a fixed remount base, a
//!    per-entry replay cost, and one fsync-equivalent per commit batch
//!    in the durable prefix. CI gates on monotonicity in length.
//! 3. **Group-commit arithmetic.** An engine-level micro-leg drives 100
//!    commits through each batch size and reads back the fsync count —
//!    `ceil(100 / batch)` by construction, pinned here.
//! 4. **Zero-cost identity.** A fleet carrying an *explicit* default
//!    policy (`batch 1, fsync 0 ns`) is asserted byte-identical to a
//!    policy-free fleet across 1/2/4/8 threads: when durability costs
//!    nothing, the engine must not move a single bit.
//! 5. **Index rebuild.** A wall-clock measurement of crash recovery
//!    over a seeded, indexed table — the derived-projection rebuild
//!    path — plus the deterministic rebuilt-entry count.
//!
//! Results are written as the `BENCH_db.json` artefact.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use hostsite::db::Database;
use mcommerce_core::{
    db_recovery_outage_ns, Category, DurabilityPolicy, FleetRunner, Scenario, WorkloadCounters,
};
use obs::json::Value::{self, Fixed};
use obs::object;

use crate::gate::{Gate, Numbers};

/// Fixed seed for every F11 population.
const F11_SEED: u64 = 1101;

/// Buy sessions each user runs (one journaled purchase per session).
const SESSIONS: u64 = 8;

/// The `commit_batch` axis of the sweep.
const BATCHES: [u32; 3] = [1, 4, 16];

/// The `fsync_ns` axis of the sweep (0 = free, 0.25 ms, 1 ms).
const FSYNC_NS: [u64; 3] = [0, 250_000, 1_000_000];

/// One cell of the commit-batch × fsync-cost sweep.
#[derive(Debug, Clone)]
pub(crate) struct DurabilityRow {
    /// Commits per WAL sync window.
    pub(crate) commit_batch: u32,
    /// Modelled cost of one fsync-equivalent, microseconds.
    pub(crate) fsync_us: f64,
    /// p50 transaction latency across the fleet, milliseconds.
    pub(crate) p50_ms: f64,
    /// p99 transaction latency across the fleet, milliseconds.
    pub(crate) p99_ms: f64,
    /// Total WAL sync time charged to host CPU, milliseconds.
    pub(crate) commit_ms: f64,
}

impl fmt::Display for DurabilityRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch {:>2} × fsync {:>6.0} us: p50 {:>7.1} ms p99 {:>7.1} ms | {:>8.2} ms in WAL syncs",
            self.commit_batch, self.fsync_us, self.p50_ms, self.p99_ms, self.commit_ms
        )
    }
}

/// One row of the recovery-outage pricing table.
#[derive(Debug, Clone)]
pub(crate) struct RecoveryRow {
    /// Durable journal entries replayed.
    pub(crate) replayed: u64,
    /// Commits per WAL sync window during replay.
    pub(crate) commit_batch: u32,
    /// Modelled fsync-equivalent cost, microseconds.
    pub(crate) fsync_us: f64,
    /// Total crash outage (remount + replay + re-syncs), milliseconds.
    pub(crate) outage_ms: f64,
}

impl fmt::Display for RecoveryRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay {:>4} entries under batch {:>2} × fsync {:>6.0} us: outage {:>8.1} ms",
            self.replayed, self.commit_batch, self.fsync_us, self.outage_ms
        )
    }
}

/// The complete F11 result set.
#[derive(Debug, Clone)]
pub struct DbNumbers {
    /// Buying users per sweep cell.
    pub(crate) users: u64,
    /// Sessions (journaled purchases) per user.
    pub(crate) sessions_per_user: u64,
    /// The commit-batch × fsync-cost sweep.
    pub(crate) sweep: Vec<DurabilityRow>,
    /// The recovery-outage pricing table.
    pub(crate) recovery: Vec<RecoveryRow>,
    /// WAL fsyncs observed for 100 commits at each batch size.
    pub(crate) fsyncs_per_100_commits: Vec<(u32, u64)>,
    /// Whether the explicit zero-cost-policy fleet came out
    /// byte-identical to the policy-free fleet at 1/2/4/8 threads.
    pub(crate) zero_cost_identical: bool,
    /// Secondary-index entries rebuilt by the recovery micro-leg.
    pub(crate) index_entries_rebuilt: u64,
    /// Wall-clock nanoseconds for that recovery (machine-dependent).
    pub(crate) rebuild_wall_ns: f64,
}

impl fmt::Display for DbNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "buy fleet: {} users × {} journaled purchases, seed {}",
            self.users, self.sessions_per_user, F11_SEED
        )?;
        for row in &self.sweep {
            writeln!(f, "  {row}")?;
        }
        writeln!(f, "crash recovery pricing:")?;
        for row in &self.recovery {
            writeln!(f, "  {row}")?;
        }
        let fsyncs: Vec<String> = self
            .fsyncs_per_100_commits
            .iter()
            .map(|(batch, fsyncs)| format!("batch {batch}: {fsyncs}"))
            .collect();
        writeln!(f, "fsyncs per 100 commits: {}", fsyncs.join(", "))?;
        writeln!(
            f,
            "zero-cost-policy fleet identical to policy-free fleet (1/2/4/8 threads): {}",
            self.zero_cost_identical
        )?;
        write!(
            f,
            "index rebuild on recovery: {} entries in {:.0} ns (wall clock)",
            self.index_entries_rebuilt, self.rebuild_wall_ns
        )
    }
}

impl Numbers for DbNumbers {
    const EXPERIMENT: &'static str = "F11_db";

    fn to_json(&self) -> Value {
        let sweep = self.sweep.iter().map(|r| {
            object!("commit_batch": r.commit_batch, "fsync_us": Fixed(r.fsync_us, 1),
                "p50_ms": Fixed(r.p50_ms, 4), "p99_ms": Fixed(r.p99_ms, 4),
                "commit_ms": Fixed(r.commit_ms, 4))
        });
        let recovery = self.recovery.iter().map(|r| {
            object!("replayed": r.replayed, "commit_batch": r.commit_batch,
                "fsync_us": Fixed(r.fsync_us, 1), "outage_ms": Fixed(r.outage_ms, 4))
        });
        let fsyncs = self.fsyncs_per_100_commits.iter();
        let fsyncs = fsyncs.map(|&(batch, n)| (format!("batch_{batch}"), n.into()));
        object!(
            "experiment": Self::EXPERIMENT,
            "users": self.users,
            "sessions_per_user": self.sessions_per_user,
            "sweep": sweep.collect::<Value>(),
            "recovery": recovery.collect::<Value>(),
            "fsyncs_per_100_commits": Value::Object(fsyncs.collect()),
            "zero_cost_identical": self.zero_cost_identical,
            "index_entries_rebuilt": self.index_entries_rebuilt,
            "rebuild_wall_ns": Fixed(self.rebuild_wall_ns, 1),
        )
    }

    fn gates(&self) -> Vec<Gate> {
        let identical = self.zero_cost_identical;
        let mut gates = vec![
            Gate::holds("zero-cost policy identical to policy-free fleet", identical),
            Gate::above("index entries rebuilt on recovery", self.index_entries_rebuilt, 0),
        ];
        for r in self.sweep.iter().filter(|r| r.fsync_us == 0.0) {
            let name = format!("batch {}, free fsync: WAL time (ms)", r.commit_batch);
            gates.push(Gate::equals(name, r.commit_ms, 0.0));
        }
        // Outage must grow strictly with journal length under each
        // (batch, fsync) policy.
        let mut by_policy: BTreeMap<(u32, u64), Vec<&RecoveryRow>> = BTreeMap::new();
        for r in &self.recovery {
            by_policy.entry((r.commit_batch, r.fsync_us.to_bits())).or_default().push(r);
        }
        for rows in by_policy.values_mut() {
            rows.sort_by_key(|r| r.replayed);
            for w in rows.windows(2) {
                let (policy, from, to) = (w[1], w[0].replayed, w[1].replayed);
                let name = format!(
                    "batch {} × fsync {} us: outage replaying {to} > {from} entries (ms)",
                    policy.commit_batch, policy.fsync_us
                );
                gates.push(Gate::above(name, w[1].outage_ms, w[0].outage_ms));
            }
        }
        for &(batch, fsyncs) in &self.fsyncs_per_100_commits {
            let name = format!("batch {batch}: fsyncs per 100 commits");
            gates.push(Gate::equals(name, fsyncs, 100u64.div_ceil(u64::from(batch))));
        }
        gates
    }
}

/// Runs the buy workload for one sweep cell: every user works through
/// `SESSIONS` commerce sessions, each ending in a journaled purchase.
/// Returns the merged counters plus the cell's metrics (the WAL sync
/// time lands on `host.db.commit_ns`).
fn buy_cell(policy: DurabilityPolicy, users: u64) -> (WorkloadCounters, obs::Metrics) {
    let scenario = Scenario::new("F11")
        .app(Category::Commerce)
        .sessions_per_user(SESSIONS)
        .think_time(1.0)
        .seed(F11_SEED)
        .durability(policy);
    let guard = obs::metrics::enable();
    let mut counters = WorkloadCounters::default();
    for user in 0..users {
        scenario.run_user(user, &mut counters);
    }
    drop(guard);
    (counters, obs::metrics::take())
}

/// Engine-level group-commit arithmetic: 100 single-row commits under
/// `batch`, then the observed WAL fsync count (`ceil(100 / batch)`).
fn fsyncs_for_100_commits(batch: u32) -> u64 {
    let mut db = Database::new();
    db.create_table("ops", &["id", "v"], &[]).unwrap();
    db.set_durability(DurabilityPolicy::new(batch, 0));
    let before = db.wal_fsyncs();
    for id in 0..100i64 {
        db.insert("ops", vec![id.into(), (id * 7).into()]).unwrap();
    }
    // Drain the open window so a partial tail counts its final sync —
    // the same `ceil(commits / batch)` a crash-free shutdown pays.
    db.sync_journal();
    db.wal_fsyncs() - before
}

/// Wall-clock crash recovery over a seeded, indexed table: returns the
/// rebuilt secondary-index entry count (deterministic) and the elapsed
/// nanoseconds (machine-dependent, reported but never gated).
fn rebuild_micro() -> (u64, f64) {
    const ROWS: i64 = 2_000;
    let mut db = Database::new();
    db.create_table("wide", &["id", "bucket", "payload"], &["bucket"])
        .unwrap();
    let payload = "x".repeat(256);
    for id in 0..ROWS {
        db.insert(
            "wide",
            vec![id.into(), (id % 17).into(), payload.clone().into()],
        )
        .unwrap();
    }
    let journal = db.journal().to_vec();
    let started = Instant::now();
    let recovered = Database::recover(&journal).expect("clean journal recovers");
    let elapsed = started.elapsed().as_nanos() as f64;
    (recovered.index_entries_rebuilt(), elapsed)
}

/// Runs the full F11 experiment. `quick` shrinks the populations for CI
/// smoke runs; seeds and both sweep grids are identical either way.
pub fn run(quick: bool) -> DbNumbers {
    let users = if quick { 6 } else { 16 };

    let mut sweep = Vec::new();
    for &batch in &BATCHES {
        for &fsync_ns in &FSYNC_NS {
            let policy = DurabilityPolicy::new(batch, fsync_ns);
            let (counters, metrics) = buy_cell(policy, users);
            sweep.push(DurabilityRow {
                commit_batch: batch,
                fsync_us: fsync_ns as f64 / 1e3,
                p50_ms: counters.latency_percentile(50.0) * 1e3,
                p99_ms: counters.latency_percentile(99.0) * 1e3,
                commit_ms: metrics.counter("host.db.commit_ns") as f64 / 1e6,
            });
        }
    }

    let mut recovery = Vec::new();
    for &(batch, fsync_ns) in &[(1u32, 0u64), (4, 250_000), (16, 1_000_000)] {
        let policy = DurabilityPolicy::new(batch, fsync_ns);
        for &replayed in &[16u64, 64, 256] {
            recovery.push(RecoveryRow {
                replayed,
                commit_batch: batch,
                fsync_us: fsync_ns as f64 / 1e3,
                outage_ms: db_recovery_outage_ns(replayed, policy) as f64 / 1e6,
            });
        }
    }

    // Zero-cost identity, cross-checked at every thread count: a fleet
    // that *explicitly* carries the default policy (batch 1, fsync
    // 0 ns) must be byte-identical to one that never mentions
    // durability at all.
    let base = Scenario::new("F11-identity")
        .app(Category::Commerce)
        .users(if quick { 8 } else { 16 })
        .sessions_per_user(2)
        .seed(F11_SEED + 1);
    let plain = FleetRunner::new(base.clone()).threads(1).run().report.summary;
    let zero_cost_identical = [1, 2, 4, 8].iter().all(|&threads| {
        let explicit = FleetRunner::new(base.clone().durability(DurabilityPolicy::new(1, 0)))
            .threads(threads)
            .run()
            .report
            .summary;
        explicit == plain
    });

    let (index_entries_rebuilt, rebuild_wall_ns) = rebuild_micro();

    DbNumbers {
        users,
        sessions_per_user: SESSIONS,
        sweep,
        recovery,
        fsyncs_per_100_commits: BATCHES
            .iter()
            .map(|&batch| (batch, fsyncs_for_100_commits(batch)))
            .collect(),
        zero_cost_identical,
        index_entries_rebuilt,
        rebuild_wall_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json;
    use crate::gate::failing;

    #[test]
    fn durability_costs_what_the_policy_says_and_nothing_when_free() {
        let mut numbers = run(true);
        // The gates: free fsyncs charge no WAL time, recovery outage is
        // strictly monotone in journal length, fsyncs per 100 commits
        // are `ceil(100 / batch)`, the zero-cost identity holds.
        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());
        let free: Vec<&DurabilityRow> = numbers
            .sweep
            .iter()
            .filter(|r| r.fsync_us == 0.0)
            .collect();
        // fsync 0 ns is free at every batch size: no WAL time, and the
        // latency profile is the same as every other free cell.
        for row in &free {
            assert_eq!(row.p50_ms, free[0].p50_ms, "{row}");
            assert_eq!(row.p99_ms, free[0].p99_ms, "{row}");
        }
        // At a fixed batch, paying more per fsync never lowers latency
        // or WAL time; at a fixed price, batching never raises WAL time.
        for &batch in &BATCHES {
            let rows: Vec<&DurabilityRow> = numbers
                .sweep
                .iter()
                .filter(|r| r.commit_batch == batch)
                .collect();
            for pair in rows.windows(2) {
                assert!(pair[1].p99_ms >= pair[0].p99_ms, "{} vs {}", pair[1], pair[0]);
                assert!(pair[1].commit_ms >= pair[0].commit_ms, "{}", pair[1]);
            }
        }
        let paid: Vec<&DurabilityRow> = numbers
            .sweep
            .iter()
            .filter(|r| r.fsync_us == 1_000.0)
            .collect();
        for pair in paid.windows(2) {
            assert!(
                pair[1].commit_ms <= pair[0].commit_ms,
                "group commit amortizes: {} vs {}",
                pair[1],
                pair[0]
            );
        }
        assert!(paid[0].commit_ms > 0.0, "batch 1 × 1 ms pays per commit");
        assert!(numbers.rebuild_wall_ns > 0.0);
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["zero_cost_identical"], Value::Bool(true), "{json}");
        assert_eq!(json["fsyncs_per_100_commits"]["batch_4"].as_u64(), Some(25), "{json}");

        numbers.recovery[2].outage_ms = numbers.recovery[1].outage_ms;
        assert_eq!(
            failing(&numbers),
            ["batch 1 × fsync 0 us: outage replaying 256 > 64 entries (ms)"]
        );
    }

    #[test]
    fn the_sweep_is_deterministic() {
        let policy = DurabilityPolicy::new(4, 250_000);
        let (a, am) = buy_cell(policy, 3);
        let (b, bm) = buy_cell(policy, 3);
        assert_eq!(a, b, "same seed, same numbers");
        assert_eq!(
            am.counter("host.db.commit_ns"),
            bm.counter("host.db.commit_ns")
        );
        assert_eq!(a.attempted, 3 * SESSIONS * 2, "two steps per session");
    }
}
