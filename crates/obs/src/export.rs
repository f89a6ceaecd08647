//! Trace exporters: JSONL event logs and Chrome `trace_event` JSON.
//!
//! Both exporters are pure functions of the event slice: same events in,
//! byte-identical text out. Numbers are formatted from integers only
//! (nanoseconds split into microsecond + fractional parts), so there is
//! no floating-point formatting to drift across platforms.
//!
//! The Chrome format is the `trace_event` "JSON Object Format" consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): each
//! span is a complete (`"ph":"X"`) event, each instant an `"i"` event;
//! `pid` is the simulated user and `tid` the paper layer, so the UI
//! renders one process per user with six layer swim-lanes.

use crate::json::quoted;
use crate::span::{EventKind, TraceEvent};
use crate::timeseries::Telemetry;

/// Nanoseconds rendered as fractional microseconds (`"1234.567"`),
/// the unit Chrome trace timestamps use. Integer-only formatting keeps
/// the output byte-stable.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders events as JSONL: one JSON object per line, in event order.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"at_ns\":{},\"dur_ns\":{},\"user\":{},\"txn\":{},\"layer\":\"{}\",\"name\":{},\"kind\":\"{}\"}}\n",
            e.at_ns,
            e.dur_ns,
            e.user,
            e.txn,
            e.layer.name(),
            quoted(&e.name),
            match e.kind {
                EventKind::Span => "span",
                EventKind::Instant => "instant",
            },
        ));
    }
    out
}

/// Renders events as a Chrome `trace_event` JSON document.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    to_chrome_trace_with(events, None)
}

/// Renders events as a Chrome `trace_event` JSON document, appending
/// one `"ph":"C"` counter event per telemetry bin so Perfetto draws a
/// counter track per resource (gateway utilization, cache hit-rate, …)
/// alongside the span swim-lanes.
pub fn to_chrome_trace_with(events: &[TraceEvent], telemetry: Option<&Telemetry>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match e.kind {
            EventKind::Span => out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"txn\":{}}}}}",
                quoted(&e.name),
                e.layer.name(),
                micros(e.at_ns),
                micros(e.dur_ns),
                e.user,
                e.layer.tid(),
                e.txn,
            )),
            EventKind::Instant => out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"txn\":{}}}}}",
                quoted(&e.name),
                e.layer.name(),
                micros(e.at_ns),
                e.user,
                e.layer.tid(),
                e.txn,
            )),
        }
    }
    if let Some(telemetry) = telemetry {
        for counter in telemetry.chrome_counter_events() {
            if !out.ends_with('[') {
                out.push(',');
            }
            out.push_str(&counter);
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::span::Layer;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at_ns: 1_234_567,
                dur_ns: 890,
                layer: Layer::Wireless,
                name: "uplink".into(),
                kind: EventKind::Span,
                user: 3,
                txn: 0,
            },
            TraceEvent {
                at_ns: 2_000_000,
                dur_ns: 0,
                layer: Layer::Host,
                name: "served \"x\"".into(),
                kind: EventKind::Instant,
                user: 3,
                txn: 0,
            },
        ]
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let jsonl = to_jsonl(&events());
        let lines: Vec<Value> = jsonl.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0]["layer"].as_str(), Some("wireless"));
        assert_eq!(lines[1]["kind"].as_str(), Some("instant"));
        assert_eq!(lines[1]["name"].as_str(), Some("served \"x\""), "{jsonl}");
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_micro_timestamps() {
        let json = to_chrome_trace(&events());
        let doc = json::parse(&json).unwrap();
        let span = &doc["traceEvents"][0];
        assert_eq!(span["ts"], Value::Float(1234.567), "{json}");
        assert_eq!(span["ph"].as_str(), Some("X"));
        assert_eq!(doc["traceEvents"][1]["ph"].as_str(), Some("i"));
        assert_eq!(span["pid"].as_u64(), Some(3));
        assert_eq!(span["tid"].as_u64(), Some(u64::from(Layer::Wireless.tid())));
    }

    #[test]
    fn chrome_trace_embeds_counter_tracks() {
        use crate::timeseries::{SeriesKind, Telemetry};
        let mut tel = Telemetry::new(1_000_000);
        let id = tel.register("gateway0000.cpu_util", SeriesKind::Utilization);
        tel.record_busy(id, 0, 250_000);
        let json = to_chrome_trace_with(&events(), Some(&tel));
        let doc = json::parse(&json).unwrap();
        let counter = &doc["traceEvents"][2];
        assert_eq!(counter["ph"].as_str(), Some("C"), "{json}");
        assert_eq!(counter["name"].as_str(), Some("gateway0000.cpu_util"), "{json}");
        // Counters also append cleanly to an empty span list.
        let bare = to_chrome_trace_with(&[], Some(&tel));
        let bare = json::parse(&bare).unwrap();
        assert_eq!(bare["traceEvents"][0]["ph"].as_str(), Some("C"), "{bare}");
    }

    #[test]
    fn exporters_are_deterministic() {
        let evs = events();
        assert_eq!(to_jsonl(&evs), to_jsonl(&evs));
        assert_eq!(to_chrome_trace(&evs), to_chrome_trace(&evs));
        assert_eq!(to_chrome_trace(&[]), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
    }
}
