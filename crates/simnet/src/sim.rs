//! The discrete-event engine.
//!
//! [`Simulator`] owns a virtual clock and a priority queue of scheduled
//! events. An event is any `FnOnce(&mut Simulator)`; components hold their
//! mutable state in `Rc<RefCell<…>>` cells captured by the closures they
//! schedule. Ties in firing time are broken by insertion order, which makes
//! runs fully deterministic.
//!
//! Internally the queue is a hierarchical timer wheel (`wheel` module) and
//! event closures live in a generation-tagged slab with free-list reuse
//! (`event` module): scheduling and firing are `O(1)` amortised and the
//! steady-state schedule→fire cycle performs no heap allocation for small
//! closures. The observable semantics — exact `(time, seq)` ordering,
//! horizon handling — are identical to the straightforward
//! `BinaryHeap` engine, which is retained as
//! [`crate::baseline::BaselineSimulator`] for differential tests and
//! benchmarks.

use crate::event::{EventArena, EventKey, RawEvent};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Entry, TimerWheel};

/// A deterministic, single-threaded discrete-event simulator.
///
/// ```
/// use simnet::{Simulator, SimDuration};
///
/// let mut sim = Simulator::new();
/// let mut order = Vec::new();
/// sim.schedule_in(SimDuration::from_millis(2), |_| {});
/// sim.run();
/// order.push(sim.now().as_millis());
/// assert_eq!(order, vec![2]);
/// ```
pub struct Simulator {
    now: SimTime,
    wheel: TimerWheel<Entry>,
    arena: EventArena,
    next_seq: u64,
    events_processed: u64,
    horizon: SimTime,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator at time zero with no horizon.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            wheel: TimerWheel::new(),
            arena: EventArena::default(),
            next_seq: 0,
            events_processed: 0,
            horizon: SimTime::MAX,
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

    /// Number of events currently pending (cancelled events excluded).
    pub(crate) fn pending(&self) -> usize {
        self.arena.live()
    }

    #[inline]
    fn enqueue(&mut self, at: SimTime, ev: RawEvent) -> EventKey {
        #[cold]
        #[inline(never)]
        fn past_panic(now: SimTime, at: SimTime) -> ! {
            panic!("cannot schedule into the past: now={now}, requested={at}");
        }
        if at < self.now {
            past_panic(self.now, at);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = self.arena.insert(ev);
        self.wheel.push(Entry { at, seq, slot, gen });
        EventKey { slot, gen }
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — scheduling into the past
    /// is always a logic error in the caller.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Simulator) + 'static) {
        self.enqueue(at, RawEvent::new(action));
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) {
        self.schedule_at(self.now.saturating_add(delay), action);
    }

    /// Schedules `action` at absolute time `at` and returns a key that can
    /// later [`Simulator::cancel`] it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub(crate) fn schedule_at_keyed(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventKey {
        self.enqueue(at, RawEvent::new(action))
    }

    /// Schedules `action` after `delay` and returns a key that can later
    /// [`Simulator::cancel`] it.
    pub fn schedule_in_keyed(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventKey {
        self.schedule_at_keyed(self.now.saturating_add(delay), action)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (its closure is dropped
    /// without running). A stale key — the event already fired, or was
    /// already cancelled — returns `false`; this is always safe because keys
    /// are generation-tagged.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.arena.take(key.slot, key.gen).is_some()
    }

    /// Runs a single event, advancing the clock to its firing time.
    ///
    /// Returns `false` when the queue is empty or the horizon prevents
    /// further progress. An entry past the horizon is never
    /// removed, so hitting a `run_until` boundary leaves the queue
    /// untouched.
    pub(crate) fn step(&mut self) -> bool {
        loop {
            // `pop_due` leaves an entry past the horizon queued, so hitting
            // a `run_until` boundary never disturbs the queue.
            let Some(entry) = self.wheel.pop_due(self.horizon.as_nanos()) else {
                return false;
            };
            // A stale generation means the event was cancelled; skip it.
            let Some(ev) = self.arena.take(entry.slot, entry.gen) else {
                continue;
            };
            self.now = entry.at;
            self.events_processed += 1;
            ev.invoke(self);
            return true;
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or virtual time would pass `until`.
    ///
    /// Events scheduled after `until` stay queued; the clock is advanced to
    /// `until` on return so stats sampled afterwards cover the full window.
    pub fn run_until(&mut self, until: SimTime) {
        let previous = self.horizon;
        self.horizon = until;
        while self.step() {}
        self.horizon = previous;
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &ms in &[30u64, 10, 20] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_millis(ms), move |_| log.borrow_mut().push(ms));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..5u32 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_millis(1), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulator::new();
        let hits: Rc<RefCell<u32>> = Rc::default();
        let h = Rc::clone(&hits);
        sim.schedule_in(SimDuration::from_millis(1), move |sim| {
            let h2 = Rc::clone(&h);
            sim.schedule_in(SimDuration::from_millis(1), move |_| {
                *h2.borrow_mut() += 1;
            });
            *h.borrow_mut() += 1;
        });
        sim.run();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_millis(5), |sim| {
            sim.schedule_at(SimTime::from_millis(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim = Simulator::new();
        let hits: Rc<RefCell<u32>> = Rc::default();
        for ms in [5u64, 15] {
            let h = Rc::clone(&hits);
            sim.schedule_at(SimTime::from_millis(ms), move |_| *h.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(*hits.borrow(), 2);
    }

    #[test]
    fn cancel_prevents_firing_and_stale_keys_are_safe() {
        let mut sim = Simulator::new();
        let hits: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let h1 = Rc::clone(&hits);
        let k1 = sim.schedule_in_keyed(SimDuration::from_millis(1), move |_| {
            h1.borrow_mut().push("cancelled")
        });
        let h2 = Rc::clone(&hits);
        let k2 = sim.schedule_in_keyed(SimDuration::from_millis(2), move |_| {
            h2.borrow_mut().push("fired")
        });
        assert!(sim.cancel(k1));
        assert!(!sim.cancel(k1), "double-cancel is a no-op");
        sim.run();
        assert_eq!(*hits.borrow(), vec!["fired"]);
        assert!(!sim.cancel(k2), "cancelling a fired event is a no-op");
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancelled_slot_reuse_does_not_confuse_keys() {
        let mut sim = Simulator::new();
        let hits: Rc<RefCell<u32>> = Rc::default();
        let k1 = sim.schedule_in_keyed(SimDuration::from_millis(5), |_| {});
        assert!(sim.cancel(k1));
        // The freed slot is reused; the old key must stay stale.
        let h = Rc::clone(&hits);
        let _k2 = sim.schedule_in_keyed(SimDuration::from_millis(1), move |_| {
            *h.borrow_mut() += 1
        });
        assert!(!sim.cancel(k1));
        sim.run();
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn slab_reuses_slots_across_schedule_fire_cycles() {
        let mut sim = Simulator::new();
        let depth: Rc<RefCell<u32>> = Rc::default();
        fn chain(sim: &mut Simulator, depth: Rc<RefCell<u32>>) {
            let d = *depth.borrow();
            if d >= 1000 {
                return;
            }
            *depth.borrow_mut() = d + 1;
            sim.schedule_in(SimDuration::from_micros(50), move |sim| chain(sim, depth));
        }
        chain(&mut sim, Rc::clone(&depth));
        sim.run();
        assert_eq!(*depth.borrow(), 1000);
        // 1000 sequential schedule→fire cycles must recycle one slot, not
        // allocate 1000.
        assert_eq!(sim.arena.slots_allocated(), 1);
    }

    #[test]
    fn far_future_and_near_events_interleave_correctly() {
        // Exercise level-0, level-1, and overflow paths together, including
        // ticks around the bucket-span boundaries.
        let mut sim = Simulator::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let times_ns = [
            0u64,
            1,
            131_071,            // last ns of tick 0
            131_072,            // first ns of tick 1
            33_554_432,         // level-0 span boundary (256 ticks)
            33_554_431,
            8_589_934_592,      // level-1 span boundary (2^16 ticks)
            8_589_934_591,
            60_000_000_000,     // deep overflow (a backed-off RTO)
            9_000_000_000,
            5_000_000_000,
            1_000_000,
        ];
        for &t in &times_ns {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        let mut expected = times_ns.to_vec();
        expected.sort_unstable();
        assert_eq!(*log.borrow(), expected);
    }

    #[test]
    fn events_scheduled_from_inside_events_keep_tie_order() {
        // A fired event schedules a same-time event; it must run after any
        // previously queued same-time event (larger seq).
        let mut sim = Simulator::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let at = SimTime::from_millis(7);
        {
            let log = Rc::clone(&log);
            sim.schedule_at(at, move |sim| {
                log.borrow_mut().push("first");
                let log2 = Rc::clone(&log);
                sim.schedule_at(at, move |_| log2.borrow_mut().push("nested"));
            });
        }
        {
            let log = Rc::clone(&log);
            sim.schedule_at(at, move |_| log.borrow_mut().push("second"));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["first", "second", "nested"]);
    }

    #[test]
    fn large_closures_fall_back_to_boxing() {
        let mut sim = Simulator::new();
        let log: Rc<RefCell<Vec<u8>>> = Rc::default();
        let big = [7u8; 128]; // capture larger than the inline slot
        let l = Rc::clone(&log);
        sim.schedule_in(SimDuration::from_millis(1), move |_| {
            l.borrow_mut().extend_from_slice(&big[..2])
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![7, 7]);
    }

    #[test]
    fn unfired_events_are_dropped_with_the_simulator() {
        let drops: Rc<RefCell<u32>> = Rc::default();
        struct Bump(Rc<RefCell<u32>>);
        impl Drop for Bump {
            fn drop(&mut self) {
                *self.0.borrow_mut() += 1;
            }
        }
        {
            let mut sim = Simulator::new();
            let b1 = Bump(Rc::clone(&drops));
            let b2 = Bump(Rc::clone(&drops));
            sim.schedule_in(SimDuration::from_millis(1), move |_| drop(b1));
            sim.schedule_in(SimDuration::from_secs(100), move |_| drop(b2));
            sim.run_until(SimTime::from_millis(10));
            assert_eq!(*drops.borrow(), 1, "fired event consumed its capture");
        }
        assert_eq!(*drops.borrow(), 2, "pending event dropped with the sim");
    }
}
