//! The streaming-merge contract.
//!
//! The fleet engine streams per-user traces *as they arrive* through the
//! [`TraceMerger`] reorder buffer, instead of collecting everything and
//! sorting. These properties pin what that must preserve:
//!
//! 1. Engine level: summaries **and** traces are byte-identical at
//!    1, 2, 4 and 8 threads (arrival order differs wildly; canonical
//!    order must not), and the trace equals the per-user reference
//!    traces of `Scenario::run_user_traced` in user-index order.
//! 2. Merger level: for *any* arrival order of user traces — proptest
//!    drives randomised permutations — the streamed result is identical
//!    to the batch in-order concatenation.

use mcommerce_core::{Category, FleetRunner, Scenario, TraceMerger};
use mcommerce_core::fleet::FleetTrace;
use mcommerce_core::report::WorkloadCounters;
use proptest::prelude::*;

fn scenario() -> Scenario {
    Scenario::new("merge-props")
        .app(Category::Commerce)
        .users(8)
        .sessions_per_user(2)
        .seed(23)
}

/// A permutation of `0..keys.len()` sampled via random sort keys (the
/// vendored proptest shim has no shuffle strategy; argsort over random
/// keys with index tie-breaks is an unbiased substitute).
fn permutation_from(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// One traced fleet run at `threads`, returning `(summary, trace)`.
fn traced(threads: usize) -> (mcommerce_core::FleetSummary, FleetTrace) {
    let run = FleetRunner::new(scenario()).threads(threads).traced(true).run();
    (run.report.summary, run.trace.expect("traced run carries a trace"))
}

#[test]
fn streaming_engines_are_identical_at_1_2_4_8_threads() {
    let (summary, trace) = traced(1);
    assert!(!trace.events.is_empty());
    // The engine's trace is the per-user reference traces concatenated
    // in user-index order: each user's island is its private world.
    let mut reference = FleetTrace::default();
    for (_, user) in per_user_traces() {
        reference.events.extend(user.events);
        reference.dumps.extend(user.dumps);
        reference.metrics.merge(&user.metrics);
    }
    assert_eq!(
        trace.to_jsonl(),
        reference.to_jsonl(),
        "events diverged from run_user_traced"
    );
    assert_eq!(
        trace.dumps.len(),
        reference.dumps.len(),
        "dumps diverged from run_user_traced"
    );
    assert_eq!(
        trace.metrics, reference.metrics,
        "metrics diverged from run_user_traced"
    );
    for threads in [2, 4, 8] {
        let (s, t) = traced(threads);
        assert_eq!(summary, s, "summary diverged at {threads} threads");
        assert_eq!(
            trace.to_jsonl(),
            t.to_jsonl(),
            "trace diverged at {threads} threads"
        );
        assert_eq!(
            trace.metrics, t.metrics,
            "metrics diverged at {threads} threads"
        );
    }
}

/// Per-user traces of the fixed scenario, with each user's counters.
fn per_user_traces() -> Vec<(u64, mcommerce_core::fleet::UserTrace)> {
    let scenario = scenario();
    (0..scenario.users)
        .map(|user| {
            let mut counters = WorkloadCounters::default();
            (user, scenario.run_user_traced(user, &mut counters))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any arrival permutation of per-user traces streams to the same
    /// fleet trace as the in-order batch concatenation — events, dumps
    /// and metrics all byte-identical.
    #[test]
    fn trace_streams_merge_identically_in_any_arrival_order(
        keys in proptest::collection::vec(any::<u64>(), 8usize),
    ) {
        let arrival = permutation_from(&keys);
        // Batch reference: user-index order.
        let mut batch = FleetTrace::default();
        for (_, user) in per_user_traces() {
            batch.events.extend(user.events);
            batch.dumps.extend(user.dumps);
            batch.metrics.merge(&user.metrics);
        }
        // Streamed: the same traces in the sampled arrival order.
        let mut arrived = per_user_traces();
        let mut merger = TraceMerger::new();
        for &slot in &arrival {
            // Re-runs are deterministic, so taking by index is exact.
            let (user, trace) = std::mem::take(&mut arrived[slot]);
            let _ = user;
            merger.push(slot as u64, trace);
        }
        let streamed = merger.finish();
        prop_assert_eq!(batch.to_jsonl(), streamed.to_jsonl());
        prop_assert_eq!(batch.dumps.len(), streamed.dumps.len());
        prop_assert_eq!(batch.metrics, streamed.metrics);
    }
}
