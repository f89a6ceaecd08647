//! The flight recorder: a bounded ring buffer of trace events with
//! automatic failure dumps.
//!
//! The sink is an enum. [`Recorder::Disabled`] makes every record call a
//! single `match` on a fieldless variant — no buffer, no allocation, no
//! clock reads — so systems constructed without tracing pay nothing.
//! [`Recorder::Ring`] keeps the most recent events (evicting the oldest,
//! like an aircraft flight recorder) and, when a transaction fails,
//! captures that transaction's surviving events into a [`FlightDump`]
//! naming the layer the failure happened in.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use crate::span::{EventKind, Layer, TraceEvent};

/// Default ring capacity: enough for hundreds of transactions of
/// context while bounding memory per recorder.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What the flight recorder preserved about one failed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The simulated user whose transaction failed.
    pub(crate) user: u64,
    /// Transaction sequence number within the user's world.
    pub(crate) txn: u64,
    /// The failure description, verbatim from the failing layer.
    pub reason: String,
    /// The layer the transaction stalled or failed in.
    pub layer: Layer,
    /// The failing transaction's events still in the ring, oldest first.
    pub(crate) events: Vec<TraceEvent>,
}

impl fmt::Display for FlightDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flight dump: user {} txn {} failed in [{}]: {}",
            self.user, self.txn, self.layer, self.reason
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  {:>12} ns  {:<10} {} ({} ns)",
                e.at_ns,
                e.layer.name(),
                e.name,
                e.dur_ns
            )?;
        }
        Ok(())
    }
}

/// The ring-buffer state behind [`Recorder::Ring`].
#[derive(Debug, Clone, Default)]
pub struct RingRecorder {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    dumps: Vec<FlightDump>,
    user: u64,
}

/// The recording sink threaded through a system under observation.
#[derive(Debug, Clone, Default)]
pub enum Recorder {
    /// No recording: every call is a single cheap `match`.
    #[default]
    Disabled,
    /// Record into a bounded flight-recorder ring buffer.
    Ring(RingRecorder),
}

impl Recorder {
    /// A ring recorder of [`DEFAULT_RING_CAPACITY`] for `user`.
    pub fn ring_for_user(user: u64) -> Self {
        Self::ring_with_capacity(DEFAULT_RING_CAPACITY, user)
    }

    /// A ring recorder keeping at most `capacity` most-recent events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn ring_with_capacity(capacity: usize, user: u64) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Recorder::Ring(RingRecorder {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            dumps: Vec::new(),
            user,
        })
    }

    /// Records a complete span `[at_ns, at_ns + dur_ns)` in `layer`.
    ///
    /// Takes a `&'static str` name so the hot path never allocates —
    /// every per-transaction span name is a literal. Dynamic names go
    /// through [`Recorder::span_dyn`].
    #[inline]
    pub fn span(&mut self, at_ns: u64, dur_ns: u64, layer: Layer, name: &'static str, txn: u64) {
        let Recorder::Ring(ring) = self else { return };
        ring.push(TraceEvent {
            at_ns,
            dur_ns,
            layer,
            name: Cow::Borrowed(name),
            kind: EventKind::Span,
            user: ring.user,
            txn,
        });
    }

    /// Like [`Recorder::span`] for names built at runtime (URLs,
    /// reasons). The copy happens only when recording is enabled.
    #[inline]
    pub fn span_dyn(&mut self, at_ns: u64, dur_ns: u64, layer: Layer, name: &str, txn: u64) {
        let Recorder::Ring(ring) = self else { return };
        ring.push(TraceEvent {
            at_ns,
            dur_ns,
            layer,
            name: Cow::Owned(name.to_owned()),
            kind: EventKind::Span,
            user: ring.user,
            txn,
        });
    }

    /// Records a point event at `at_ns` in `layer` (static name; see
    /// [`Recorder::span`] for the rationale).
    #[inline]
    pub fn instant(&mut self, at_ns: u64, layer: Layer, name: &'static str, txn: u64) {
        let Recorder::Ring(ring) = self else { return };
        ring.push(TraceEvent {
            at_ns,
            dur_ns: 0,
            layer,
            name: Cow::Borrowed(name),
            kind: EventKind::Instant,
            user: ring.user,
            txn,
        });
    }

    /// Like [`Recorder::instant`] for names built at runtime. The copy
    /// happens only when recording is enabled.
    #[inline]
    pub fn instant_dyn(&mut self, at_ns: u64, layer: Layer, name: &str, txn: u64) {
        let Recorder::Ring(ring) = self else { return };
        ring.push(TraceEvent {
            at_ns,
            dur_ns: 0,
            layer,
            name: Cow::Owned(name.to_owned()),
            kind: EventKind::Instant,
            user: ring.user,
            txn,
        });
    }

    /// Captures transaction `txn`'s surviving ring events into a
    /// [`FlightDump`] attributing the failure to `layer`. Called by the
    /// system the moment a transaction fails.
    pub fn dump_failure(&mut self, txn: u64, reason: &str, layer: Layer) {
        let Recorder::Ring(ring) = self else { return };
        let events: Vec<TraceEvent> =
            ring.events.iter().filter(|e| e.txn == txn).cloned().collect();
        ring.dumps.push(FlightDump {
            user: ring.user,
            txn,
            reason: reason.to_owned(),
            layer,
            events,
        });
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        match self {
            Recorder::Disabled => 0,
            Recorder::Ring(ring) => ring.dropped,
        }
    }

    /// Consumes the recorder, returning `(events oldest-first, dumps in
    /// failure order)`. Both are empty for [`Recorder::Disabled`]. The
    /// events are the ring's own buffer, put in order in place: nothing
    /// is copied out.
    pub fn into_parts(self) -> (Vec<TraceEvent>, Vec<FlightDump>) {
        match self {
            Recorder::Disabled => (Vec::new(), Vec::new()),
            Recorder::Ring(ring) => (Vec::from(ring.events), ring.dumps),
        }
    }

    /// A ring recorder for `user` whose buffer is sized for as many
    /// events as the shard's previous recycled ring recorded (see
    /// [`RingScratch`]). Pair with [`Recorder::into_parts_recycling`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring_recycled(capacity: usize, user: u64, scratch: &mut RingScratch) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Recorder::Ring(RingRecorder {
            events: VecDeque::with_capacity(scratch.events.clamp(1, capacity)),
            capacity,
            dropped: 0,
            dumps: Vec::new(),
            user,
        })
    }

    /// Consumes the recorder like [`Recorder::into_parts`], handing out
    /// the ring's own buffer, and notes in `scratch` how many events it
    /// recorded, to size the shard's next ring.
    pub fn into_parts_recycling(self, scratch: &mut RingScratch) -> (Vec<TraceEvent>, Vec<FlightDump>) {
        if let Recorder::Ring(ring) = &self {
            scratch.events = ring.events.len();
        }
        self.into_parts()
    }
}

/// What a fleet shard carries from one per-user ring recorder to the
/// next: the number of events the last one recorded.
///
/// A shard traces thousands of users in sequence, and users of one
/// scenario record about as many events each. A ring sized by its
/// predecessor rarely grows, and its buffer, handed out whole as the
/// user's trace, holds about what it needs: the events are neither
/// copied out of the ring nor kept in a buffer much larger than they
/// are while the trace waits to be merged.
#[derive(Debug, Default)]
pub struct RingScratch {
    events: usize,
}

impl RingRecorder {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::Disabled;
        r.span(0, 10, Layer::Wireless, "uplink", 0);
        r.instant(5, Layer::Host, "served", 0);
        r.dump_failure(0, "boom", Layer::Wireless);
        let (events, dumps) = r.into_parts();
        assert!(events.is_empty() && dumps.is_empty());
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut r = Recorder::ring_with_capacity(3, 7);
        for i in 0..5u64 {
            r.instant_dyn(i, Layer::Station, &format!("e{i}"), i);
        }
        assert_eq!(r.dropped(), 2);
        let (events, _) = r.into_parts();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "e2");
        assert_eq!(events[2].name, "e4");
        assert!(events.iter().all(|e| e.user == 7));
    }

    #[test]
    fn failure_dump_captures_only_the_failing_txn() {
        let mut r = Recorder::ring_for_user(3);
        r.span(0, 100, Layer::Station, "build", 0);
        r.span(100, 200, Layer::Wireless, "uplink", 0);
        r.span(1_000, 50, Layer::Station, "build", 1);
        r.span(1_050, 10, Layer::Wireless, "uplink", 1);
        r.dump_failure(1, "uplink failed (ARQ exhausted)", Layer::Wireless);
        let (_, dumps) = r.into_parts();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.layer, Layer::Wireless);
        assert_eq!(d.user, 3);
        assert_eq!(d.txn, 1);
        assert_eq!(d.events.len(), 2, "only txn 1's events");
        assert!(d.events.iter().all(|e| e.txn == 1));
        assert!(d.to_string().contains("failed in [wireless]"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Recorder::ring_with_capacity(0, 0);
    }

    #[test]
    fn recycled_rings_match_fresh_rings_and_are_sized_by_the_last() {
        let mut scratch = RingScratch::default();
        for user in 0..3u64 {
            let mut fresh = Recorder::ring_for_user(user);
            let mut recycled = Recorder::ring_recycled(DEFAULT_RING_CAPACITY, user, &mut scratch);
            for r in [&mut fresh, &mut recycled] {
                r.span(user * 10, 5, Layer::Wireless, "uplink", 0);
                r.instant(user * 10 + 5, Layer::Host, "served", 0);
            }
            let fresh_parts = fresh.into_parts();
            let recycled_parts = recycled.into_parts_recycling(&mut scratch);
            assert_eq!(fresh_parts, recycled_parts);
            assert_eq!(recycled_parts.0.len(), 2);
            if user > 0 {
                // Capacities are lower bounds, so compare with a fresh
                // ring's buffer rather than pin a number.
                let (recycled, fresh) = (recycled_parts.0.capacity(), fresh_parts.0.capacity());
                assert!(
                    (2..fresh).contains(&recycled),
                    "a ring sized by its 2-event predecessor holds {recycled}, a fresh one {fresh}"
                );
            }
        }
        assert_eq!(scratch.events, 2);
    }
}
