//! Lightweight event tracing for debugging and assertion-writing.
//!
//! A [`Trace`] is a bounded ring buffer of `(time, category, message)`
//! records. Tests use it to assert that protocol events happened in the
//! right order without coupling to internal state; examples use it to
//! narrate a run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::time::SimTime;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub(crate) at: SimTime,
    /// Component-chosen category, e.g. `"tcp"`, `"mobileip"`, `"wap"`.
    pub category: &'static str,
    /// Human-readable description.
    pub(crate) message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.category, self.message)
    }
}

/// A shared, bounded trace buffer.
///
/// ```
/// use simnet::{trace::Trace, SimTime};
/// let trace = Trace::bounded(8);
/// trace.log(SimTime::from_millis(1), "tcp", "SYN sent");
/// assert_eq!(trace.len(), 1);
/// assert!(trace.contains("tcp", "SYN"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Rc<RefCell<TraceInner>>,
}

#[derive(Debug, Default)]
struct TraceInner {
    events: VecDeque<TraceEvent>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace buffer keeping at most `capacity` most-recent events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            inner: Rc::new(RefCell::new(TraceInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
            })),
        }
    }

    /// Creates a generously sized trace for tests (64k events).
    pub fn for_test() -> Self {
        Self::bounded(65_536)
    }

    /// Appends an event, evicting the oldest if the buffer is full.
    pub fn log(&self, at: SimTime, category: &'static str, message: impl Into<String>) {
        let mut inner = self.inner.borrow_mut();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(TraceEvent {
            at,
            category,
            message: message.into(),
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the buffered events in order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().cloned().collect()
    }

    /// True if any buffered event in `category` contains `needle`.
    pub fn contains(&self, category: &str, needle: &str) -> bool {
        self.inner
            .borrow()
            .events
            .iter()
            .any(|e| e.category == category && e.message.contains(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_query() {
        let t = Trace::bounded(4);
        t.log(SimTime::from_millis(1), "tcp", "SYN");
        t.log(SimTime::from_millis(2), "tcp", "SYN-ACK");
        t.log(SimTime::from_millis(3), "wap", "GET /");
        assert_eq!(t.len(), 3);
        assert!(t.contains("tcp", "SYN"));
        assert!(!t.contains("wap", "SYN"));
    }

    #[test]
    fn eviction_keeps_most_recent() {
        let t = Trace::bounded(2);
        for i in 0..5 {
            t.log(SimTime::from_millis(i), "x", format!("e{i}"));
        }
        assert_eq!(t.len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap[0].message, "e3");
        assert_eq!(snap[1].message, "e4");
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Trace::bounded(8);
        let t2 = t.clone();
        t.log(SimTime::ZERO, "a", "hello");
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn display_formats_event() {
        let t = Trace::bounded(1);
        t.log(SimTime::from_millis(5), "tcp", "RTO");
        let s = t.snapshot()[0].to_string();
        assert!(s.contains("tcp"));
        assert!(s.contains("RTO"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Trace::bounded(0);
    }
}
