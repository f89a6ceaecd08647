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
//! * [`DetQueue`] — an event queue over `(time_ns, id)` keys. Ties on
//!   time break on the id (for the fleet engine: the user's island-local
//!   index, which follows global index order), so the pop order is a
//!   pure function of the pushed set — never of queue internals,
//!   insertion order, or thread scheduling. It is simnet's timer wheel
//!   (the one the [`Simulator`](crate::Simulator) runs on) with the
//!   earliest key held outside it: filing a key costs `O(1)` at any
//!   queue size, and a one-user island never touches the wheel.
//!
//! Everything is integer nanoseconds; no wall clock, no randomness.

use crate::wheel::TimerWheel;

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
}

impl FcfsServer {
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
        start - arrival_ns
    }

    /// Total service time admitted so far, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// A deterministic event queue over `(time_ns, id)` keys.
///
/// Pops ascend by time, then by id — a total order, so two runs that
/// push the same set of keys pop them identically regardless of push
/// order. The fleet engine keys events by the owning user's
/// island-local index, which is unique per outstanding event.
///
/// The earliest key is held outside simnet's timer wheel and the rest
/// are filed in it, so a push, a pop and a re-key cost `O(1)` at any
/// size and allocate nothing once the wheel has held as many keys as it
/// will. A queue that drains rewinds to t = 0, ready for the next run.
#[derive(Default)]
pub struct DetQueue {
    earliest: Option<(u64, u64)>,
    wheel: TimerWheel<(u64, u64)>,
}

impl std::fmt::Debug for DetQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetQueue")
            .field("earliest", &self.earliest)
            .field("len", &self.len())
            .finish()
    }
}

impl DetQueue {
    /// An empty queue; allocates nothing.
    pub fn new() -> Self {
        DetQueue::default()
    }

    /// Schedules `id` to run at `time_ns`.
    #[inline]
    pub fn push(&mut self, time_ns: u64, id: u64) {
        let key = (time_ns, id);
        match self.earliest {
            None => self.earliest = Some(key),
            Some(earliest) if key < earliest => {
                self.wheel.push(earliest);
                self.earliest = Some(key);
            }
            Some(_) => self.wheel.push(key),
        }
    }

    /// Removes and returns the earliest `(time_ns, id)`; ties on time
    /// resolve to the smallest id.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        let earliest = self.earliest.take()?;
        self.earliest = self.wheel.pop();
        if self.earliest.is_none() {
            self.wheel.rewind();
        }
        Some(earliest)
    }

    /// The earliest `(time_ns, id)`, left in the queue.
    #[inline]
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.earliest
    }

    /// Moves the earliest event to `time_ns`, keeping its id: the queue
    /// then pops exactly what popping that event and pushing
    /// `(time_ns, id)` would leave it to pop. A key that stays the
    /// earliest never reaches the wheel.
    ///
    /// # Panics
    ///
    /// If the queue is empty.
    #[inline]
    pub fn rekey_earliest(&mut self, time_ns: u64) {
        let earliest = self.earliest.as_mut().expect("re-key of an empty queue");
        earliest.0 = time_ns;
        if self.wheel.len() > 0 {
            *earliest = self.wheel.swap_earliest(*earliest);
        }
    }

    /// Events still scheduled.
    pub(crate) fn len(&self) -> usize {
        self.wheel.len() + usize::from(self.earliest.is_some())
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.earliest.is_none()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use rand::rngs::StdRng;
    use rand::RngExt;

    use super::*;
    use crate::rng::rng_for;

    #[test]
    fn fcfs_serializes_overlapping_jobs() {
        let mut s = FcfsServer::default();
        assert_eq!(s.admit(0, 100), 0, "idle server starts immediately");
        assert_eq!(s.admit(10, 50), 90, "arrives mid-service, waits for the rest");
        assert_eq!(s.admit(149, 1), 1, "the server falls idle at 150");
        assert_eq!(s.admit(500, 10), 0, "late arrival finds the server idle");
        assert_eq!(s.busy_ns(), 161);
    }

    #[test]
    fn zero_service_jobs_are_invisible() {
        let mut s = FcfsServer::default();
        s.admit(0, 100);
        assert_eq!(s.admit(10, 0), 0, "zero-length job never waits");
        assert_eq!(s.admit(100, 1), 0, "…and never occupies the server");
        assert_eq!(s.busy_ns(), 101);
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

    /// A gap between two of a user's events, drawn across the wheel's
    /// ranges: sub-tick, level 0 (≤ 33.5 ms), level 1 (≤ 8.59 s),
    /// overflow, and a few fixed values (none, a 40 ms transaction, a
    /// 2 s think time) that make users collide on time.
    fn gap(rng: &mut StdRng) -> u64 {
        match rng.random_range(0..5u8) {
            0 => rng.random_range(0..1u64 << 17),
            1 => rng.random_range(1u64 << 17..1 << 25),
            2 => rng.random_range(1u64 << 25..1 << 33),
            3 => rng.random_range(1u64 << 33..60_000_000_000),
            _ => [0, 40_000_000, 2_000_000_000][rng.random_range(0..3usize)],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        // Island-sized schedules: `live` users start at t = 0 or after a
        // gap, then the earliest is re-keyed — mostly later by a gap,
        // sometimes to an earlier time or its own — or popped and pushed
        // back later, and finally every event is popped. The same queue
        // then runs a second island from t = 0. At every step the queue's
        // `len` and earliest key equal a `BinaryHeap`'s, and so do its
        // pops.
        #[test]
        fn island_schedules_pop_what_a_heap_pops(seed in proptest::prelude::any::<u64>()) {
            for live in [1u64, 25, 5_000] {
                let mut rng = rng_for(seed, "det_queue");
                let mut queue = DetQueue::new();
                let mut oracle = BinaryHeap::new();
                for _island in 0..2 {
                    for id in 0..live {
                        let time = if rng.random_bool(0.5) { 0 } else { gap(&mut rng) };
                        queue.push(time, id);
                        oracle.push(Reverse((time, id)));
                    }
                    for _ in 0..3 * live + 200 {
                        proptest::prop_assert_eq!(queue.len(), oracle.len());
                        let earliest = oracle.peek().map(|&Reverse(key)| key);
                        proptest::prop_assert_eq!(queue.peek(), earliest);
                        let (at, id) = earliest.expect("live > 0");
                        let to = match rng.random_range(0..10u8) {
                            0 => rng.random_range(0..=at),
                            1 => at,
                            _ => at.saturating_add(gap(&mut rng)),
                        };
                        oracle.pop();
                        oracle.push(Reverse((to, id)));
                        if rng.random_bool(0.1) {
                            proptest::prop_assert_eq!(queue.pop(), Some((at, id)));
                            queue.push(to, id);
                        } else {
                            queue.rekey_earliest(to);
                        }
                    }
                    while let Some(Reverse(key)) = oracle.pop() {
                        proptest::prop_assert_eq!(queue.pop(), Some(key));
                        proptest::prop_assert_eq!(queue.len(), oracle.len());
                    }
                    proptest::prop_assert!(queue.is_empty());
                    proptest::prop_assert_eq!(queue.pop(), None);
                }
            }
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
