//! Contention primitives for shared-world simulation.
//!
//! A shared world lets many stations queue on the same physical
//! resources — a cell's airtime, a WAP gateway's transcoder, a host
//! computer's CPU. The primitives here model each such resource as a
//! deterministic **first-come-first-served single server** and give the
//! world's event loop a totally ordered queue to drain:
//!
//! * [`FcfsServer`] — a work-conserving single server characterised
//!   entirely by the instant it next falls idle. Admitting a job at its
//!   arrival time yields the deterministic FCFS start time; the wait is
//!   `start − arrival`. A zero-length job never touches the server, so
//!   an uncontended world (one user, or no overlap) adds *exactly* zero
//!   time — the invariant the one-user-equivalence property relies on.
//! * [`DetQueue`] — a min-heap of `(time_ns, id)` keys. Ties on time
//!   break on the id (for the fleet engine: the user's island-local
//!   index, which follows global index order), so the pop order is a
//!   pure function of the pushed set — never of heap internals,
//!   insertion order, or thread scheduling.
//!
//! Everything is integer nanoseconds; no wall clock, no randomness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic FCFS single-server resource.
///
/// The server is fully described by `free_at_ns`, the instant the work
/// already admitted completes. Jobs are admitted in the order the event
/// loop presents them — which the loop keeps deterministic via
/// [`DetQueue`] — and each admission returns when the job actually
/// starts.
#[derive(Debug, Clone, Default)]
pub struct FcfsServer {
    free_at_ns: u64,
    busy_ns: u64,
    jobs: u64,
    waited_jobs: u64,
}

impl FcfsServer {
    /// A server that has never served anything (idle since t = 0).
    pub fn new() -> Self {
        FcfsServer::default()
    }

    /// Admits a job arriving at `arrival_ns` needing `service_ns` of
    /// server time; returns the wait (start − arrival, ≥ 0) the job
    /// suffered behind earlier admissions.
    ///
    /// A `service_ns` of zero is a no-op: the job neither waits nor
    /// occupies the server, so resources a transaction does not touch
    /// (e.g. the host, on a gateway cache hit) contribute nothing.
    pub fn admit(&mut self, arrival_ns: u64, service_ns: u64) -> u64 {
        if service_ns == 0 {
            return 0;
        }
        let start = arrival_ns.max(self.free_at_ns);
        self.free_at_ns = start.saturating_add(service_ns);
        self.busy_ns = self.busy_ns.saturating_add(service_ns);
        self.jobs += 1;
        let wait = start - arrival_ns;
        if wait > 0 {
            self.waited_jobs += 1;
        }
        wait
    }

    /// The instant the server next falls idle.
    pub fn free_at_ns(&self) -> u64 {
        self.free_at_ns
    }

    /// Total service time admitted so far, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Jobs admitted (zero-service jobs are not counted).
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Jobs that found the server busy and had to wait.
    pub fn waited_jobs(&self) -> u64 {
        self.waited_jobs
    }
}

/// A deterministic event queue over `(time_ns, id)` keys.
///
/// Pops ascend by time, then by id — a total order, so two runs that
/// push the same set of keys pop them identically regardless of push
/// order. The fleet engine keys events by the owning user's
/// island-local index, which is unique per outstanding event.
#[derive(Debug, Default)]
pub struct DetQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl DetQueue {
    /// An empty queue.
    pub fn new() -> Self {
        DetQueue::default()
    }

    /// Schedules `id` to run at `time_ns`.
    pub fn push(&mut self, time_ns: u64, id: u64) {
        self.heap.push(Reverse((time_ns, id)));
    }

    /// Removes and returns the earliest `(time_ns, id)`; ties on time
    /// resolve to the smallest id.
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(key)| key)
    }

    /// The earliest `(time_ns, id)`, left in the queue.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse(key)| key)
    }

    /// Moves the earliest event to `time_ns`, keeping its id: the queue
    /// then pops exactly what popping that event and pushing
    /// `(time_ns, id)` would leave it to pop, for the cost of one sift
    /// instead of two.
    ///
    /// # Panics
    ///
    /// If the queue is empty.
    pub fn rekey_earliest(&mut self, time_ns: u64) {
        let mut earliest = self.heap.peek_mut().expect("re-key of an empty queue");
        earliest.0 .0 = time_ns;
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_serializes_overlapping_jobs() {
        let mut s = FcfsServer::new();
        assert_eq!(s.admit(0, 100), 0, "idle server starts immediately");
        assert_eq!(s.admit(10, 50), 90, "arrives mid-service, waits for the rest");
        assert_eq!(s.free_at_ns(), 150);
        assert_eq!(s.admit(500, 10), 0, "late arrival finds the server idle");
        assert_eq!(s.jobs(), 3);
        assert_eq!(s.waited_jobs(), 1);
        assert_eq!(s.busy_ns(), 160);
    }

    #[test]
    fn zero_service_jobs_are_invisible() {
        let mut s = FcfsServer::new();
        s.admit(0, 100);
        assert_eq!(s.admit(10, 0), 0, "zero-length job never waits");
        assert_eq!(s.free_at_ns(), 100, "…and never occupies the server");
        assert_eq!(s.jobs(), 1);
    }

    #[test]
    fn queue_pops_ascend_by_time_then_id() {
        let mut q = DetQueue::new();
        q.push(50, 2);
        q.push(10, 9);
        q.push(50, 1);
        q.push(10, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 3), (10, 9), (50, 1), (50, 2)]);
        assert!(q.is_empty());
    }

    fn pop_key(heap: &mut BinaryHeap<Reverse<(u64, u64)>>) -> Option<(u64, u64)> {
        heap.pop().map(|Reverse(key)| key)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        // Random schedules of pushes, pops and re-keys of the earliest
        // event — mostly to a later time, as the fleet engine does, and
        // sometimes to any time — pop exactly what a `BinaryHeap` that
        // pops the re-keyed event and pushes it back pops, ties on time
        // and repeated keys included. Pushes outnumber pops, so the
        // heap grows several levels deep.
        #[test]
        fn rekeying_the_earliest_event_equals_pop_then_push(
            ops in proptest::collection::vec((0u8..8, 0u64..40, 0u64..8), 1..400),
        ) {
            let mut queue = DetQueue::new();
            let mut reference = BinaryHeap::new();
            for (op, time, id) in ops {
                match op {
                    0..=2 => {
                        queue.push(time, id);
                        reference.push(Reverse((time, id)));
                    }
                    3 => proptest::prop_assert_eq!(queue.pop(), pop_key(&mut reference)),
                    _ => {
                        let earliest = pop_key(&mut reference);
                        proptest::prop_assert_eq!(queue.peek(), earliest);
                        if let Some((at, id)) = earliest {
                            let to = if op == 7 { time } else { at + time };
                            reference.push(Reverse((to, id)));
                            queue.rekey_earliest(to);
                        }
                    }
                }
                proptest::prop_assert_eq!(queue.len(), reference.len());
                proptest::prop_assert_eq!(
                    queue.peek(),
                    reference.peek().map(|&Reverse(key)| key)
                );
            }
            let rest: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
            let expected: Vec<_> = std::iter::from_fn(|| pop_key(&mut reference)).collect();
            proptest::prop_assert_eq!(rest, expected);
        }
    }

    #[test]
    fn queue_order_is_push_order_independent() {
        let keys = [(5u64, 1u64), (5, 2), (1, 7), (9, 0), (1, 2)];
        let mut a = DetQueue::new();
        for (t, id) in keys {
            a.push(t, id);
        }
        let mut b = DetQueue::new();
        for (t, id) in keys.iter().rev() {
            b.push(*t, *id);
        }
        let pa: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let pb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(pa, pb);
    }
}
