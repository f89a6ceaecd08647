//! The span taxonomy: the paper's six layers and the trace events that
//! annotate them.
//!
//! Figure 2 decomposes a mobile commerce system into six components; a
//! transaction traverses them in order. Every recorded event carries the
//! [`Layer`] it happened in, so a trace (or a flight-recorder dump)
//! attributes latency and failure to a specific component rather than to
//! the transaction as a whole.

use std::borrow::Cow;
use std::fmt;

/// One of the six components of the paper's MC system model (Figure 2).
///
/// Ordered in traversal order; the discriminant doubles as the Chrome
/// trace `tid`, so Perfetto shows one swim-lane per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// (i) the mobile application driving the session.
    Application = 1,
    /// (ii) the mobile station: request build, parse, render, battery.
    Station = 2,
    /// (iii) the mobile middleware: translation, encoding, proxying.
    Middleware = 3,
    /// (iv) the wireless network: air link, session setup, handoffs.
    Wireless = 4,
    /// (v) the wired network between middleware and host.
    Wired = 5,
    /// (vi) the host computer serving the application.
    Host = 6,
}

impl Layer {
    /// Stable lower-case name, used as the trace category.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Layer::Application => "application",
            Layer::Station => "station",
            Layer::Middleware => "middleware",
            Layer::Wireless => "wireless",
            Layer::Wired => "wired",
            Layer::Host => "host",
        }
    }

    /// The Chrome-trace thread id for this layer's swim-lane.
    pub(crate) fn tid(self) -> u32 {
        self as u32
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether an event covers an interval or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: `[at_ns, at_ns + dur_ns)`.
    Span,
    /// A point event (`dur_ns` is zero).
    Instant,
}

/// One recorded trace event, timestamped in simulated nanoseconds.
///
/// `user` and `txn` tie the event to the simulated user and the
/// transaction sequence number within that user's session, which is what
/// lets per-shard recorders merge into one canonical, thread-count-
/// independent trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event started, nanoseconds.
    pub(crate) at_ns: u64,
    /// Span duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// The component the event is attributed to.
    pub layer: Layer,
    /// Event name (`"uplink"`, `"render"`, `"rto"`, …). Almost every
    /// name on the hot path is a string literal, so this is a `Cow`:
    /// recording a static name copies a pointer instead of allocating,
    /// while dynamic names (failure reasons, URLs) still own their text.
    pub name: Cow<'static, str>,
    /// Span or instant.
    pub kind: EventKind,
    /// The simulated user the event belongs to.
    pub(crate) user: u64,
    /// Transaction sequence number within the user's world.
    pub(crate) txn: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_have_stable_names_and_tids() {
        let mut seen = std::collections::BTreeSet::new();
        for layer in [
            Layer::Application,
            Layer::Station,
            Layer::Middleware,
            Layer::Wireless,
            Layer::Wired,
            Layer::Host,
        ] {
            assert!(!layer.name().is_empty());
            assert!(seen.insert(layer.tid()), "duplicate tid for {layer}");
        }
        assert_eq!(Layer::Application.tid(), 1);
        assert_eq!(Layer::Host.tid(), 6);
    }
}
