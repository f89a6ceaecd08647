//! The perf-regression harness: field-by-field diffs of `BENCH_*.json`
//! artefact sets against committed baselines.
//!
//! Every experiment writes a JSON artefact, but until now nothing
//! compared one run against another — the bench trajectory was a pile
//! of unread files. This module diffs two artefacts (or two directories
//! of them) with **per-metric policies**:
//!
//! * **Gated** metrics are the deterministic outputs of the fixed-seed
//!   simulations — sim-time latencies, counts, rates, digests,
//!   identities. They must match the baseline within `TOLERANCE`
//!   (1%, covering decimal formatting) on any machine, so a drift is a
//!   real behaviour change and fails the diff.
//! * **Informational** metrics are wall-clock measurements (wall
//!   seconds, events/s, tps, overhead percentages, RSS, thread counts).
//!   They vary across machines and runs, so they are reported in the
//!   delta table but never gate.
//!
//! The output is a markdown delta table; the exit status is the gate.
//! `scripts/tier1.sh` runs the `benchdiff` bin against
//! `bench/baselines/*.json` on every PR, so the perf trajectory is
//! recorded — and regressions in deterministic behaviour are caught —
//! from this commit forward.
//!
//! Documents are read with [`obs::json`], the workspace's one JSON
//! parser.

use std::collections::{BTreeMap, BTreeSet};

use obs::json::{self, Value};

/// Relative tolerance for gated numeric metrics: 1%, which covers the
/// artefacts' decimal formatting.
pub(crate) const TOLERANCE: f64 = 0.01;

/// Flattens a document into `path → leaf` (`"knee[2].p99_ms" → 2617.2457`;
/// objects add `.key`, arrays `[i]`). Empty containers add nothing.
pub(crate) fn flatten(doc: &Value) -> BTreeMap<String, Value> {
    fn walk(path: String, value: &Value, out: &mut BTreeMap<String, Value>) {
        match value {
            Value::Object(members) => {
                for (key, v) in members {
                    walk(if path.is_empty() { key.clone() } else { format!("{path}.{key}") }, v, out);
                }
            }
            Value::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(format!("{path}[{i}]"), v, out);
                }
            }
            leaf => {
                out.insert(path, leaf.clone());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(String::new(), doc, &mut out);
    out
}

/// Metric names that are wall-clock (or machine-shape) measurements:
/// reported in the delta table, never gated. Matched against the final
/// path segment.
pub(crate) const INFORMATIONAL: &[&str] = &[
    "wall_secs",
    "events_per_sec",
    "tps",
    "speedup",
    "overhead_pct",
    "overhead_floor_pct",
    "overhead_disabled_pct",
    "overhead_disabled_floor_pct",
    "overhead_enabled_pct",
    "peak_rss_bytes",
    "db_get_ns",
    "rebuild_wall_ns",
    "threads",
];

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Gated and within tolerance.
    Ok,
    /// Informational metric: reported, never gated.
    Info,
    /// Present only in the current run (a new metric; not a failure).
    New,
    /// Gated and out of tolerance, or missing from the current run.
    Fail,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Info => "info",
            Status::New => "new",
            Status::Fail => "FAIL",
        }
    }
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Flattened metric path.
    pub metric: String,
    /// Baseline value, if the baseline has the metric.
    pub baseline: Option<Value>,
    /// Current value, if the current run has the metric.
    pub current: Option<Value>,
    /// Relative delta in percent, for numeric pairs.
    pub(crate) delta_pct: Option<f64>,
    /// The verdict.
    pub(crate) status: Status,
}

/// The full comparison of one artefact pair.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Artefact label (file stem) the rows belong to.
    pub(crate) label: String,
    /// Every metric in baseline ∪ current, in path order.
    pub(crate) rows: Vec<Delta>,
}

impl Diff {
    /// True when no gated metric failed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.status != Status::Fail)
    }

    /// Rows that failed the gate.
    pub fn failures(&self) -> impl Iterator<Item = &Delta> {
        self.rows.iter().filter(|r| r.status == Status::Fail)
    }

    /// Renders the markdown delta table. `full` includes every metric;
    /// otherwise unchanged gated metrics are elided and only changed,
    /// informational, new and failing rows appear.
    pub fn to_markdown(&self, full: bool) -> String {
        let mut out = format!(
            "### {}\n\n| metric | baseline | current | delta | status |\n|---|---:|---:|---:|---|\n",
            self.label
        );
        let mut elided = 0usize;
        for row in &self.rows {
            let unchanged = row.status == Status::Ok && row.delta_pct.is_none_or(|d| d == 0.0);
            if !full && unchanged {
                elided += 1;
                continue;
            }
            let fmt_val = |v: &Option<Value>| v.as_ref().map_or("—".into(), Value::to_string);
            let delta = row
                .delta_pct
                .map_or("—".into(), |d| format!("{d:+.2}%"));
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                row.metric,
                fmt_val(&row.baseline),
                fmt_val(&row.current),
                delta,
                row.status.label()
            ));
        }
        if elided > 0 {
            out.push_str(&format!("\n_{elided} unchanged gated metrics elided._\n"));
        }
        out
    }
}

/// The final path segment without any array index: the metric's name.
fn last_segment(path: &str) -> &str {
    let tail = path.rsplit('.').next().unwrap_or(path);
    tail.split('[').next().unwrap_or(tail)
}

/// Whether two leaves agree: numbers within [`TOLERANCE`], anything
/// else exactly.
fn leaves_match(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(a), Some(b)) => (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()) + 1e-9,
        _ => a == b,
    }
}

/// Compares a baseline artefact against a current one.
pub(crate) fn diff(
    label: &str,
    baseline: &BTreeMap<String, Value>,
    current: &BTreeMap<String, Value>,
) -> Diff {
    let mut rows = Vec::new();
    let metrics: BTreeSet<&String> = baseline.keys().chain(current.keys()).collect();
    for metric in metrics {
        let base = baseline.get(metric).cloned();
        let cur = current.get(metric).cloned();
        let informational = INFORMATIONAL.contains(&last_segment(metric));
        let delta_pct = match (base.as_ref().and_then(Value::as_f64), cur.as_ref().and_then(Value::as_f64)) {
            (Some(a), Some(b)) if a.abs() > 1e-12 => Some((b - a) / a.abs() * 100.0),
            _ => None,
        };
        let status = match (&base, &cur) {
            (Some(_), None) => Status::Fail, // metric vanished: schema regression
            (None, Some(_)) => Status::New,
            (Some(_), Some(_)) if informational => Status::Info,
            (Some(a), Some(b)) if leaves_match(a, b) => Status::Ok,
            (Some(_), Some(_)) => Status::Fail,
            (None, None) => unreachable!("metric came from one of the maps"),
        };
        rows.push(Delta {
            metric: metric.clone(),
            baseline: base,
            current: cur,
            delta_pct,
            status,
        });
    }
    Diff {
        label: label.to_owned(),
        rows,
    }
}

/// Parses and compares two artefact documents.
pub fn diff_docs(label: &str, baseline_doc: &str, current_doc: &str) -> Result<Diff, String> {
    let baseline = json::parse(baseline_doc)
        .map_err(|e| format!("{label}: baseline parse error: {e}"))?;
    let current =
        json::parse(current_doc).map_err(|e| format!("{label}: current parse error: {e}"))?;
    Ok(diff(label, &flatten(&baseline), &flatten(&current)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_walks_nesting_arrays_and_escapes() {
        let doc = json::parse(
            "{\"a\": {\"b\": [1, 2.5, {\"c\": true}]}, \"s\": \"x\\n\\\"y\\\"\", \"z\": null}",
        )
        .unwrap();
        let flat = flatten(&doc);
        assert_eq!(flat["a.b[0]"], Value::Int(1));
        assert_eq!(flat["a.b[1]"], Value::Float(2.5));
        assert_eq!(flat["a.b[2].c"], Value::Bool(true));
        assert_eq!(flat["s"], Value::Str("x\n\"y\"".into()));
        assert_eq!(flat["z"], Value::Null);
    }

    #[test]
    fn malformed_documents_are_errors() {
        let ok = "{\"a\": 1}";
        for bad in ["{\"a\": }", "{\"a\": 1} trailing", "{\"a\": 1"] {
            assert!(diff_docs("t", bad, ok).is_err(), "{bad}");
            assert!(diff_docs("t", ok, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn identical_documents_pass() {
        let doc = "{\"p99_ms\": 134.2, \"wall_secs\": 0.5, \"ok\": true}";
        let d = diff_docs("t", doc, doc).unwrap();
        assert!(d.passed());
    }

    #[test]
    fn wall_clock_drift_is_informational_but_sim_drift_fails() {
        let base = "{\"p99_ms\": 100.0, \"wall_secs\": 0.5}";
        let noisy = "{\"p99_ms\": 100.5, \"wall_secs\": 5.0}";
        let d = diff_docs("t", base, noisy).unwrap();
        assert!(d.passed(), "1% tolerance absorbs formatting drift: {d:?}");

        let regressed = "{\"p99_ms\": 150.0, \"wall_secs\": 0.5}";
        let d = diff_docs("t", base, regressed).unwrap();
        assert!(!d.passed());
        let failures: Vec<&str> = d.failures().map(|r| r.metric.as_str()).collect();
        assert_eq!(failures, ["p99_ms"]);
    }

    #[test]
    fn booleans_strings_and_missing_metrics_gate_exactly() {
        let base = "{\"identity\": true, \"digest\": \"abc\", \"count\": 4}";
        let flipped = "{\"identity\": false, \"digest\": \"abc\", \"count\": 4}";
        assert!(!diff_docs("t", base, flipped).unwrap().passed());
        let vanished = "{\"identity\": true, \"digest\": \"abc\"}";
        assert!(!diff_docs("t", base, vanished).unwrap().passed());
        let grown = "{\"identity\": true, \"digest\": \"abc\", \"count\": 4, \"extra\": 1}";
        let d = diff_docs("t", base, grown).unwrap();
        assert!(d.passed(), "new metrics are not regressions");
        assert!(d.rows.iter().any(|r| r.status == Status::New));
    }

    #[test]
    fn markdown_table_elides_unchanged_and_names_failures() {
        let base = "{\"a\": 1, \"b\": 2, \"wall_secs\": 1.0}";
        let cur = "{\"a\": 1, \"b\": 4, \"wall_secs\": 1.5}";
        let d = diff_docs("t", base, cur).unwrap();
        let md = d.to_markdown(false);
        assert!(md.contains("| `b` | 2 | 4 | +100.00% | FAIL |"), "{md}");
        assert!(md.contains("| `wall_secs` |"), "{md}");
        assert!(!md.contains("| `a` |"), "unchanged gated rows elide: {md}");
        assert!(md.contains("1 unchanged gated metrics elided"), "{md}");
    }

    #[test]
    fn real_artefact_shapes_round_trip() {
        // A miniature BENCH_contention.json in the real emitter's style.
        let doc = "{\n  \"experiment\": \"F8_contention\",\n  \"knee\": [\n    { \"users\": 1, \"p99_ms\": 134.2 },\n    { \"users\": 32, \"p99_ms\": 7800.0 }\n  ],\n  \"thread_identity\": true\n}\n";
        let d = diff_docs("contention", doc, doc).unwrap();
        assert!(d.passed());
        assert!(d.rows.iter().any(|r| r.metric == "knee[1].p99_ms"));
    }
}
