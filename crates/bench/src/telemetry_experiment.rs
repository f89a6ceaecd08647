//! F10 — fleet telemetry: cost when off, identity when on.
//!
//! PR 8's telemetry layer ([`obs::timeseries`]) claims to be free when
//! disabled and purely observational when enabled. This experiment
//! measures both claims and writes `BENCH_telemetry.json`:
//!
//! 1. **Disabled cost.** A micro-benchmark runs the same arithmetic
//!    kernel with and without the per-event `Option<&mut Telemetry>`
//!    check the engine's instrumentation points pay when telemetry is
//!    off. The relative overhead is gated at ≤3% in `scripts/tier1.sh`.
//!    (A fleet-level on-vs-off wall-clock pair is reported too, but the
//!    branch cost is only resolvable in isolation — the fleet numbers
//!    carry run-to-run scheduler noise far larger than one branch.)
//! 2. **Thread identity.** The fixed-seed shared-world series export —
//!    JSONL *and* Chrome counter events — is byte-identical at
//!    1/2/4/8 threads.
//! 3. **Observer identity.** Turning telemetry on changes neither the
//!    merged summary nor the JSONL trace of a traced run — the
//!    instrumentation never feeds back into the simulation.
//! 4. **Saturation attribution.** Per-resource peak utilisation and
//!    saturation-onset sim-times (the numbers behind `report --f8
//!    --dash`), deterministic and therefore gated by `benchdiff`.
//!
//! Wall-clock timings use the median of `REPETITIONS` runs, like F5.

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use mcommerce_core::{CachePolicy, Category, FleetRun, FleetRunner, Scenario, Topology};
use obs::json::Value::{self, Fixed};
use obs::object;
use obs::timeseries::{SeriesKind, Telemetry};
use simnet::SimDuration;

use crate::gate::{Gate, Numbers};

/// Fixed seed for every F10 run.
const F10_SEED: u64 = 1001;

/// Sessions each user runs.
const SESSIONS_PER_USER: u64 = 6;

/// Think time between sessions, seconds of sim time.
const THINK_SECS: f64 = 2.0;

/// Wall-clock repetitions per timed cell; the median is reported.
pub(crate) const REPETITIONS: usize = 5;

/// Utilisation threshold (thousandths) that counts as saturated in the
/// onset columns: 90%.
pub const SATURATION_MILLI: u64 = 900;

/// The micro-benchmark cell: kernel with vs without the disabled-path
/// telemetry branch.
#[derive(Debug, Clone)]
pub(crate) struct MicroNumbers {
    /// Kernel iterations per repetition.
    pub(crate) iterations: u64,
    /// Median wall seconds, kernel alone.
    pub(crate) baseline_wall_secs: f64,
    /// Median wall seconds, kernel + disabled-telemetry branch.
    pub(crate) disabled_wall_secs: f64,
    /// Relative cost of the branch, percent (median of the
    /// per-repetition ratios — the honest central estimate).
    pub(crate) overhead_disabled_pct: f64,
    /// Minimum per-repetition ratio — the least-noise pairing, and the
    /// CI gate statistic (noise only inflates ratios; a real
    /// regression lifts every pairing).
    pub(crate) overhead_disabled_floor_pct: f64,
}

/// The fleet-level cell: one shared-world run, telemetry off vs on.
#[derive(Debug, Clone)]
pub(crate) struct FleetCell {
    /// Stations in the shared world.
    pub(crate) users: u64,
    /// Median wall seconds with telemetry off.
    pub(crate) off_wall_secs: f64,
    /// Median wall seconds with telemetry on.
    pub(crate) on_wall_secs: f64,
    /// Relative cost of full capture, percent.
    pub(crate) overhead_enabled_pct: f64,
    /// Registered series in the merged telemetry.
    pub(crate) series: usize,
    /// Total (series, bin) points exported.
    pub(crate) points: usize,
}

/// One resource's saturation row (the `--dash` numbers).
#[derive(Debug, Clone)]
pub(crate) struct PeakRow {
    /// Series name, e.g. `gateway0000.cpu_util`.
    pub(crate) series: String,
    /// Series kind name (`util` / `gauge` / `rate`).
    pub(crate) kind: String,
    /// Peak bin value, thousandths.
    pub(crate) peak_milli: u64,
    /// Sim-time of the first bin at ≥[`SATURATION_MILLI`], if any.
    pub(crate) onset_ns: Option<u64>,
}

/// Renders a peak for humans: percent for utilisations and rates,
/// absolute for gauges (a queue depth of 1.0 is one request, not 100%).
pub fn peak_display(kind: &str, peak_milli: u64) -> String {
    if kind == "gauge" {
        format!("{:.2}", peak_milli as f64 / 1000.0)
    } else {
        format!("{:.1}%", peak_milli as f64 / 10.0)
    }
}

/// Renders a saturation onset for humans. Saturation is a fraction-of-
/// capacity idea, so gauges get `n/a` rather than a misleading time.
pub fn onset_display(kind: &str, onset_ns: Option<u64>) -> String {
    if kind == "gauge" {
        return "n/a (gauge)".into();
    }
    match onset_ns {
        Some(ns) => format!("{:.1} s", ns as f64 / 1e9),
        None => "never".into(),
    }
}

impl fmt::Display for PeakRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} peak {:>7}  saturated from {}",
            self.series,
            peak_display(&self.kind, self.peak_milli),
            onset_display(&self.kind, self.onset_ns),
        )
    }
}

/// The complete F10 result set.
#[derive(Debug, Clone)]
pub struct TelemetryNumbers {
    /// The micro disabled-cost cell.
    pub(crate) micro: MicroNumbers,
    /// The fleet on-vs-off cell.
    pub(crate) fleet: FleetCell,
    /// Series exports byte-identical at 1/2/4/8 threads.
    pub(crate) thread_identity: bool,
    /// Telemetry on/off leaves summary + trace byte-identical.
    pub(crate) run_identity: bool,
    /// Repeated exports of one run are byte-identical.
    pub(crate) export_stable: bool,
    /// Per-resource peaks and saturation onsets.
    pub(crate) peaks: Vec<PeakRow>,
}

impl fmt::Display for TelemetryNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "micro ({} iters, median of {}): baseline {:.4} s, disabled branch {:.4} s -> {:+.2}% (floor {:+.2}%, gate <= 3%)",
            self.micro.iterations,
            REPETITIONS,
            self.micro.baseline_wall_secs,
            self.micro.disabled_wall_secs,
            self.micro.overhead_disabled_pct,
            self.micro.overhead_disabled_floor_pct,
        )?;
        writeln!(
            f,
            "fleet ({} users shared world): off {:.3} s, on {:.3} s -> {:+.1}% for {} series / {} points",
            self.fleet.users,
            self.fleet.off_wall_secs,
            self.fleet.on_wall_secs,
            self.fleet.overhead_enabled_pct,
            self.fleet.series,
            self.fleet.points,
        )?;
        writeln!(
            f,
            "series identical at 1/2/4/8 threads: {}",
            self.thread_identity
        )?;
        writeln!(
            f,
            "telemetry on/off leaves summary+trace identical: {}",
            self.run_identity
        )?;
        writeln!(f, "exports stable across repeated calls: {}", self.export_stable)?;
        writeln!(f, "resource saturation (bin peaks):")?;
        for row in &self.peaks {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

impl Numbers for TelemetryNumbers {
    const EXPERIMENT: &'static str = "F10_telemetry";

    /// Wall seconds and overhead percentages live under leaf names the
    /// `benchdiff` policy treats as informational; everything else is
    /// deterministic and gated.
    fn to_json(&self) -> Value {
        let (micro, fleet) = (&self.micro, &self.fleet);
        let peaks = self.peaks.iter().map(|r| {
            object!("series": r.series.as_str(), "kind": r.kind.as_str(),
                "peak_milli": r.peak_milli, "onset_ns": r.onset_ns)
        });
        object!(
            "experiment": Self::EXPERIMENT,
            "micro": object!(
                "iterations": micro.iterations,
                "baseline": object!("wall_secs": Fixed(micro.baseline_wall_secs, 6)),
                "disabled": object!("wall_secs": Fixed(micro.disabled_wall_secs, 6),
                    "overhead_disabled_pct": Fixed(micro.overhead_disabled_pct, 4),
                    "overhead_disabled_floor_pct": Fixed(micro.overhead_disabled_floor_pct, 4)),
            ),
            "fleet": object!(
                "users": fleet.users,
                "off": object!("wall_secs": Fixed(fleet.off_wall_secs, 6)),
                "on": object!("wall_secs": Fixed(fleet.on_wall_secs, 6),
                    "overhead_enabled_pct": Fixed(fleet.overhead_enabled_pct, 4)),
                "series": fleet.series,
                "points": fleet.points,
            ),
            "thread_identity": self.thread_identity,
            "run_identity": self.run_identity,
            "export_stable": self.export_stable,
            "peaks": peaks.collect::<Value>(),
        )
    }

    fn gates(&self) -> Vec<Gate> {
        let floor = self.micro.overhead_disabled_floor_pct;
        let names: Vec<&str> = self.peaks.iter().map(|p| p.series.as_str()).collect();
        let mut gates = vec![
            Gate::at_most("disabled-telemetry overhead floor (%)", floor, 3.0),
            Gate::holds("series exports identical at 1/2/4/8 threads", self.thread_identity),
            Gate::holds("telemetry leaves summary and trace unchanged", self.run_identity),
            Gate::holds("exports identical between identical runs", self.export_stable),
            Gate::at_least("registered series", names.len(), 5),
            Gate::holds("series in canonical order", names.is_sorted()),
        ];
        for want in [
            "cell0000.airtime_util",
            "gateway0000.cpu_util",
            "gateway0000.cache_hit_rate",
            "host0000.cpu_util",
            "host0000.queue_depth",
        ] {
            gates.push(Gate::holds(format!("series {want} registered"), names.contains(&want)));
        }
        gates
    }
}

/// The arithmetic kernel standing in for per-transaction engine work: a
/// 64-bit LCG mix, cheap enough that a mispredicted branch would show.
/// With `telemetry` present it records one busy interval per iteration,
/// exactly like a contention-charging instrumentation point; with
/// `None` it pays the one branch the engine pays when telemetry is off.
fn micro_kernel(iters: u64, mut telemetry: Option<&mut Telemetry>) -> u64 {
    let id = telemetry
        .as_deref_mut()
        .map(|t| t.register("micro.busy", SeriesKind::Utilization));
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(x >> 33);
        if let Some(t) = telemetry.as_deref_mut() {
            t.record_busy(id.expect("registered with telemetry"), i * 1_000, x % 512);
        }
    }
    acc
}

/// The same kernel with no instrumentation point at all — the "code
/// that was never instrumented" baseline.
fn micro_kernel_bare(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(x >> 33);
    }
    acc
}

/// The median of a set of wall times.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times.swap_remove(times.len() / 2)
}

/// `(median, floor)` of the per-repetition overhead ratios. Each
/// repetition times its baseline and variant back-to-back, so a noise
/// burst inflates both and largely cancels in that rep's ratio. The
/// median is the honest central estimate; the floor (minimum) is the
/// least-noise-contaminated pairing and is what CI gates — noise only
/// pushes ratios up, a real regression lifts every pairing.
fn overhead_pcts(baseline: &[f64], variant: &[f64]) -> (f64, f64) {
    let mut ratios: Vec<f64> = baseline
        .iter()
        .zip(variant)
        .map(|(b, v)| (v / b - 1.0) * 100.0)
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2], ratios[0])
}

fn timed(f: &mut dyn FnMut() -> u64) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

fn micro(quick: bool) -> MicroNumbers {
    let iterations: u64 = if quick { 20_000_000 } else { 100_000_000 };
    // `black_box` on the argument keeps the compiler from constant-
    // folding the `None` away — the engine's check is a real runtime
    // branch, so the micro-benchmark's must be too. The variants are
    // warmed once and then timed interleaved, so neither side pays the
    // cold caches alone.
    let _ = micro_kernel_bare(black_box(iterations));
    let _ = micro_kernel(black_box(iterations), black_box(None));
    let mut baseline_times = Vec::with_capacity(REPETITIONS);
    let mut disabled_times = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        baseline_times.push(timed(&mut || micro_kernel_bare(black_box(iterations))));
        disabled_times.push(timed(&mut || micro_kernel(black_box(iterations), black_box(None))));
    }
    let (overhead_disabled_pct, overhead_disabled_floor_pct) =
        overhead_pcts(&baseline_times, &disabled_times);
    MicroNumbers {
        iterations,
        baseline_wall_secs: median(baseline_times),
        disabled_wall_secs: median(disabled_times),
        overhead_disabled_pct,
        overhead_disabled_floor_pct,
    }
}

/// The F10 shared world: Entertainment traffic behind one cell, one
/// gateway (with a long-TTL shared cache so the hit-rate track is
/// live) and one host.
fn fleet_scenario(users: u64) -> Scenario {
    Scenario::new("F10")
        .app(Category::Entertainment)
        .users(users)
        .sessions_per_user(SESSIONS_PER_USER)
        .think_time(THINK_SECS)
        .seed(F10_SEED)
        .cache(CachePolicy::standard().ttl(SimDuration::from_secs(3600)))
}

fn run_point(scenario: &Scenario, threads: usize, telemetry: bool) -> FleetRun {
    FleetRunner::new(scenario.clone())
        .topology(Topology::shared())
        .threads(threads)
        .telemetry(telemetry)
        .run()
}

/// Runs the full F10 experiment. `quick` shrinks the population and the
/// micro iteration count; seeds and topology are identical either way.
pub fn run(quick: bool) -> TelemetryNumbers {
    let users: u64 = if quick { 12 } else { 32 };
    let scenario = fleet_scenario(users);

    // Fleet wall-clock pair: warm-up, then interleaved repetitions,
    // median each. The kept run is the on-side median run; its series
    // are deterministic across repetitions anyway.
    let _ = run_point(&scenario, 2, false);
    let _ = run_point(&scenario, 2, true);
    let mut off_times = Vec::with_capacity(REPETITIONS);
    let mut on_runs: Vec<(f64, FleetRun)> = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        let start = Instant::now();
        let _ = run_point(&scenario, 2, false);
        off_times.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let run = run_point(&scenario, 2, true);
        on_runs.push((start.elapsed().as_secs_f64(), run));
    }
    let on_times: Vec<f64> = on_runs.iter().map(|(secs, _)| *secs).collect();
    let (overhead_enabled_pct, _) = overhead_pcts(&off_times, &on_times);
    let off_wall_secs = median(off_times);
    on_runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (on_wall_secs, fleet_run) = on_runs.swap_remove(REPETITIONS / 2);
    let telemetry = fleet_run
        .timeseries
        .as_ref()
        .expect("telemetry-on run carries series");

    // Thread identity: the canonical exports, byte for byte.
    let reference_jsonl = telemetry.to_jsonl();
    let reference_counters = telemetry.chrome_counter_events();
    let mut thread_identity = true;
    for threads in [1usize, 4, 8] {
        let other = run_point(&scenario, threads, true);
        let other_t = other.timeseries.as_ref().expect("telemetry on");
        thread_identity &= other_t.to_jsonl() == reference_jsonl
            && other_t.chrome_counter_events() == reference_counters;
    }

    // Observer identity: telemetry must not perturb the simulation.
    let traced_off = FleetRunner::new(scenario.clone())
        .topology(Topology::shared())
        .threads(2)
        .traced(true)
        .run();
    let traced_on = FleetRunner::new(scenario.clone())
        .topology(Topology::shared())
        .threads(2)
        .traced(true)
        .telemetry(true)
        .run();
    let run_identity = traced_off.report.summary == traced_on.report.summary
        && traced_off.trace.as_ref().expect("traced").to_jsonl()
            == traced_on.trace.as_ref().expect("traced").to_jsonl();

    // Export stability: pure functions of the recorded bins.
    let export_stable = telemetry.to_jsonl() == reference_jsonl
        && telemetry.chrome_counter_events() == reference_counters;

    // Saturation rows for every registered resource series.
    let peaks: Vec<PeakRow> = telemetry
        .names()
        .map(str::to_owned)
        .collect::<Vec<_>>()
        .into_iter()
        .map(|name| PeakRow {
            kind: telemetry.kind(&name).expect("registered").name().to_owned(),
            peak_milli: telemetry.peak_milli(&name).expect("registered"),
            onset_ns: telemetry.onset_ns(&name, SATURATION_MILLI),
            series: name,
        })
        .collect();

    let points = reference_jsonl.lines().count();
    TelemetryNumbers {
        micro: micro(quick),
        fleet: FleetCell {
            users,
            off_wall_secs,
            on_wall_secs,
            overhead_enabled_pct,
            series: telemetry.names().count(),
            points,
        },
        thread_identity,
        run_identity,
        export_stable,
        peaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json;
    use crate::gate::failing;

    #[test]
    fn f10_quick_holds_its_gates() {
        let mut numbers = run(true);
        assert!(numbers.fleet.series > 0 && numbers.fleet.points > 0);
        // The overhead floor is wall-clock: pin it, then every gate
        // (identities, the five resource series, canonical order) holds.
        numbers.micro.overhead_disabled_floor_pct = 0.0;
        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());

        let text = numbers.to_json().to_string();
        let json = json::parse(&text).expect("artefact parses");
        assert_eq!(json["experiment"].as_str(), Some("F10_telemetry"));
        assert!(json["micro"]["disabled"]["overhead_disabled_pct"].as_f64().is_some());
        assert_eq!(json["thread_identity"], Value::Bool(true));
        assert_eq!(json["peaks"].items().len(), numbers.peaks.len());
        // The artefact diffs clean against itself.
        let diff = crate::benchdiff::diff_docs("telemetry", &text, &text).expect("artefact parses");
        assert!(diff.passed());

        numbers.micro.overhead_disabled_floor_pct = 3.5;
        assert_eq!(failing(&numbers), ["disabled-telemetry overhead floor (%)"]);
        numbers.micro.overhead_disabled_floor_pct = 0.0;
        numbers.peaks.swap(0, 1);
        assert_eq!(failing(&numbers), ["series in canonical order"]);
    }
}
