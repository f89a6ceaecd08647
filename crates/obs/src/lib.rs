#![warn(missing_docs)]
//! # obs — deterministic observability for the mcommerce workspace
//!
//! The paper's central claim is structural: a mobile transaction
//! traverses six distinct components (application → station → middleware
//! → wireless → wired → host), and understanding an MC system means
//! attributing cost to each. This crate is the measurement layer that
//! makes the attribution observable at production scale:
//!
//! * [`hist`] — the log-linear histogram (32 sub-buckets per octave,
//!   ≤ 3% quantisation error) shared by every latency distribution in
//!   the workspace. Extracted from `mcommerce-core`'s report module so
//!   metrics and workload counters bucket identically.
//! * [`metrics`] — a thread-local registry of named counters and
//!   histograms each layer publishes into (packets dropped, RTO
//!   firings, transcode bytes, handoffs, …). Disabled by default: the
//!   hot-path cost of an unpublished metric is one thread-local flag
//!   check.
//! * `span` — the span taxonomy: the six paper layers and the
//!   sim-time trace event they annotate.
//! * [`recorder`] — the [`Recorder`] sink. `Recorder::Disabled` skips
//!   all recording at a single `match`; `Recorder::Ring` keeps a
//!   bounded flight-recorder ring buffer and dumps the current
//!   transaction's tail when it fails.
//! * [`timeseries`] — fixed sim-time-bin resource series (utilization,
//!   gauges, hit rates) that merge commutatively across shards, the
//!   time dimension behind the shared-world dashboards.
//! * [`export`] — JSONL and Chrome `trace_event` exporters
//!   (`chrome://tracing` / Perfetto), including `"ph":"C"` counter
//!   tracks derived from telemetry series.
//! * [`json`] — the workspace's one JSON value type, writer, string
//!   escaper and parser: every artefact is written and read through it.
//!
//! ## Determinism
//!
//! Nothing here reads a wall clock or an OS RNG. Every timestamp is
//! simulated nanoseconds supplied by the caller, every container is
//! ordered (`BTreeMap` / append-order `Vec`), and every exporter is a
//! pure function of the recorded events — so a fixed-seed run produces
//! a byte-identical trace at any thread count.

pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub(crate) mod span;
pub mod timeseries;

pub use hist::Histogram;
pub use metrics::Metrics;
pub use recorder::{FlightDump, Recorder, RingScratch};
pub use span::{EventKind, Layer, TraceEvent};
pub use timeseries::Telemetry;
