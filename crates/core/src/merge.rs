//! Streaming canonical-order merge of per-user traces.
//!
//! The fleet engine concatenates traces in global user-index order —
//! that is what makes a trace byte-identical at any thread count.
//! Buying that order by *collecting first* — holding every island's
//! traces until the last one finished, then sorting — makes the
//! collection the peak-memory high-water mark of a traced run, and
//! starts the merge only after the slowest worker ends.
//!
//! [`TraceMerger`] streams instead. It accepts traces in **arrival**
//! order — whichever island finishes first — and appends them in
//! **canonical** order through a reorder buffer: a trace that arrives
//! in its canonical slot is appended immediately (and releases any
//! buffered successors); an early arrival waits in a `BTreeMap` keyed
//! by its user. The output is therefore bit-identical to the
//! collect-then-sort implementation for every arrival interleaving — a
//! property `tests/merge_props.rs` pins with randomised permutations.
//! (Worker counters need no such buffer: the engine joins every worker
//! before it folds their totals, in worker order.)

use std::collections::BTreeMap;

use crate::fleet::{FleetTrace, UserTrace};

/// Concatenates per-user traces into a [`FleetTrace`] in strict global
/// user-index order, accepting users in any arrival order.
///
/// The fleet engine pushes each island's users as the island finishes:
/// a user whose canonical slot is open streams straight into the output
/// (events appended, dumps appended, metrics merged) and is freed;
/// only users that finish ahead of a canonical predecessor wait in the
/// reorder buffer.
#[derive(Debug, Default)]
pub struct TraceMerger {
    next: u64,
    expected_users: u64,
    pending: BTreeMap<u64, UserTrace>,
    trace: FleetTrace,
}

impl TraceMerger {
    /// An empty merger expecting user 0 first (in canonical order).
    pub fn new() -> Self {
        Self::default()
    }

    /// Like [`TraceMerger::new`], sized for `users` traces: the first
    /// arrival's event count seeds one up-front reservation of the
    /// fleet buffer. Purely an allocation hint — the merged output is
    /// identical whether or not (or how accurately) it is given.
    pub(crate) fn for_users(users: u64) -> Self {
        Self {
            expected_users: users,
            ..Self::default()
        }
    }

    /// Admits user `user`'s trace, in any arrival order.
    ///
    /// # Panics
    ///
    /// If `user` already arrived.
    pub fn push(&mut self, user: u64, trace: UserTrace) {
        assert!(
            user >= self.next && !self.pending.contains_key(&user),
            "trace for user {user} merged twice"
        );
        if user != self.next {
            self.pending.insert(user, trace);
            return;
        }
        self.admit(trace);
        self.next += 1;
        while let Some(buffered) = self.pending.remove(&self.next) {
            self.admit(buffered);
            self.next += 1;
        }
    }

    fn admit(&mut self, user: UserTrace) {
        if self.expected_users > 1 && self.next == 0 && self.trace.events.is_empty() {
            // Users of one scenario emit near-identical event counts, so
            // the first arrival sizes the whole fleet's buffer — one
            // allocation instead of log2(users) doublings, which halves
            // the traced run's memory traffic.
            self.trace
                .events
                .reserve(user.events.len().saturating_mul(self.expected_users as usize));
        }
        self.trace.events.extend(user.events);
        self.trace.dumps.extend(user.dumps);
        self.trace.metrics.merge(&user.metrics);
        self.trace.dropped += user.dropped;
    }

    /// Completes the merge. Any traces still buffered (user indices
    /// with gaps below them — legal when a population's indices are
    /// sparse) drain in ascending user order, preserving the canonical
    /// ordering guarantee.
    pub fn finish(mut self) -> FleetTrace {
        let pending = std::mem::take(&mut self.pending);
        for (_, trace) in pending {
            self.admit(trace);
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with_marker(user: u64) -> UserTrace {
        let mut metrics = obs::Metrics::default();
        metrics.counters.insert("unit.users", user + 1);
        UserTrace {
            events: Vec::new(),
            dumps: Vec::new(),
            metrics,
            dropped: 0,
        }
    }

    #[test]
    fn trace_merger_streams_in_canonical_order_from_any_arrival_order() {
        let mut merger = TraceMerger::new();
        for user in [2u64, 0, 3, 1] {
            merger.push(user, trace_with_marker(user));
        }
        assert_eq!(merger.next, 4);
        assert_eq!(merger.pending.len(), 0);
        let trace = merger.finish();
        assert_eq!(trace.metrics.counter("unit.users"), 1 + 2 + 3 + 4);
    }

    #[test]
    fn trace_merger_finish_drains_sparse_indices() {
        let mut merger = TraceMerger::new();
        merger.push(0, trace_with_marker(0));
        merger.push(7, trace_with_marker(7)); // gap: users 1..=6 absent
        assert_eq!(merger.next, 1);
        assert_eq!(merger.pending.len(), 1);
        let trace = merger.finish();
        assert_eq!(trace.metrics.counter("unit.users"), 1 + 8);
    }
}
