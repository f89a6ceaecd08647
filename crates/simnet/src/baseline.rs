//! Reference `BinaryHeap` scheduler, kept for differential testing and
//! benchmarking.
//!
//! [`BaselineSimulator`] is the straightforward engine the workspace shipped
//! with before the timer-wheel rewrite: one `Box<dyn FnOnce>` per event in a
//! `BinaryHeap`, ordered by `(time, seq)`. It is intentionally *not* used by
//! any production code path; it exists so that
//!
//! * the differential property test (`tests/wheel_vs_heap.rs`) can assert
//!   that the timer wheel fires arbitrary interleaved schedules in exactly
//!   the order this engine does, and
//! * the `engine_throughput` benchmark / F4 report section can measure the
//!   wheel's speedup against a truthful baseline rather than a guess.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

type Action = Box<dyn FnOnce(&mut BaselineSimulator)>;

struct Scheduled {
    at: SimTime,
    seq: u64,
    action: Option<Action>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-wheel `BinaryHeap` + boxed-closure discrete-event engine.
///
/// Semantics match [`crate::Simulator`] exactly: absolute/relative
/// scheduling, `(time, seq)` tie-breaks, and past-scheduling panics.
pub struct BaselineSimulator {
    now: SimTime,
    queue: BinaryHeap<Scheduled>,
    next_seq: u64,
    events_processed: u64,
}

impl Default for BaselineSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl BaselineSimulator {
    /// Creates a baseline simulator at time zero.
    pub fn new() -> Self {
        BaselineSimulator {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            events_processed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules `action` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut BaselineSimulator) + 'static,
    ) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            action: Some(Box::new(action)),
        });
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut BaselineSimulator) + 'static,
    ) {
        self.schedule_at(self.now.saturating_add(delay), action);
    }

    /// Runs a single event; returns `false` when the queue is empty.
    pub(crate) fn step(&mut self) -> bool {
        let Some(mut ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        let action = ev.action.take().expect("event scheduled without action");
        self.events_processed += 1;
        action(self);
        true
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }
}
