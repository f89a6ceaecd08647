//! Regenerates every table and figure of the paper from the simulation
//! and prints them in paper order.
//!
//! ```text
//! cargo run -p bench --bin report [--quick] [--f4] [--f5] [--f6] [--f7] [--f8] [--f9] [--f10] [--f11] [--f12] [--trace] [--dash]
//! ```
//!
//! `--quick` shrinks every workload for smoke runs. `--fN` runs only the
//! named experiments, in table order; each writes its `BENCH_*.json`
//! artefact (the table in `main` names every flag, heading and file).
//! F9's cells re-execute this binary via the internal `--f9-cell` mode,
//! so each cell's peak RSS is measured in a fresh process. `--trace`
//! (with F5) additionally exports the fixed-seed fleet trace as
//! `TRACE_fleet.jsonl` and `TRACE_fleet.trace.json` — open the latter in
//! `chrome://tracing` or <https://ui.perfetto.dev>. `--dash` (with F8)
//! appends the resource dashboard: per-resource peak utilisation,
//! saturation-onset sim-times, the busiest-resource attribution of the
//! p99 knee, and the telemetry artefacts `TELEMETRY_fleet.jsonl` +
//! `TRACE_fleet.counters.trace.json` (spans *and* Perfetto counter
//! tracks).
//!
//! Every file the report writes is read back and parsed with
//! `obs::json`. Each experiment then prints its gates
//! ([`bench::gate::Numbers::gates`], and
//! [`contention_experiment::dash_gates`] for `--dash`) with the measured
//! value and the bound; the report exits non-zero if a file does not
//! parse or a gate fails.

use std::process::ExitCode;

use bench::ablations;
use bench::cache_experiment;
use bench::contention_experiment;
use bench::db_experiment;
use bench::engine;
use bench::experiments;
use bench::faults_experiment;
use bench::gate::{Gate, Numbers};
use bench::obs_experiment;
use bench::scale_experiment;
use bench::search_experiment;
use bench::tcpx;
use bench::telemetry_experiment;
use mcommerce_core::{fleet, CachePolicy, Category, FleetRunner, Scenario, Topology};
use obs::json::{self, Value};
use simnet::SimDuration;

fn heading(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Runs a step of the report (`quick` or not), writes its files and
/// returns its gates.
type Step = fn(bool) -> Vec<Gate>;

/// A `--fN` experiment: its flag, heading and step, and a view behind a
/// second flag (F5's `--trace`, F8's `--dash`).
type Experiment = (&'static str, &'static str, Step, Option<(&'static str, Step)>);

/// Writes `text` to `path`, reads the file back and parses it with
/// `obs::json`: one document, or one per line for `.jsonl`. Returns the
/// gate that the file re-parsed into at least one document, and the
/// documents when `keep` is set (a fleet trace is only validated: built,
/// it would take ~1 KB per event).
fn write_and_parse(path: &str, text: &str, keep: bool) -> (Gate, Vec<Value>) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("-> wrote {path}");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let docs: Vec<&str> = if path.ends_with(".jsonl") { text.lines().collect() } else { vec![&text] };
    let mut kept = Vec::new();
    let parsed = docs.iter().try_for_each(|doc| {
        if keep { json::parse(doc).map(|v| kept.push(v)) } else { json::validate(doc) }
    });
    let count = match parsed {
        Ok(()) => docs.len(),
        Err(e) => {
            eprintln!("report: {path} does not parse: {e}");
            0
        }
    };
    (Gate::above(format!("{path}: documents re-parsed"), count, 0), kept)
}

/// Prints an experiment's numbers, writes its artefact to `path`, and
/// returns the re-parse gates followed by the experiment's own.
fn publish<N: Numbers>(path: &str, numbers: N) -> Vec<Gate> {
    println!("{numbers}\n");
    let (reparsed, docs) = write_and_parse(path, &format!("{}\n", numbers.to_json()), true);
    let experiment = docs.first().and_then(|doc| doc["experiment"].as_str()).unwrap_or("(none)");
    let mut gates = vec![reparsed, Gate::equals(format!("{path}: experiment"), experiment, N::EXPERIMENT)];
    gates.extend(numbers.gates());
    gates
}

/// The `--trace` view of F5: exports the fixed-seed fleet trace.
fn f5_trace(quick: bool) -> Vec<Gate> {
    let scenario = obs_experiment::trace_scenario(quick);
    let fleet_trace = FleetRunner::new(scenario)
        .threads(fleet::default_threads())
        .traced(true)
        .run()
        .trace
        .expect("traced run carries a trace");
    let gates = vec![
        write_and_parse("TRACE_fleet.jsonl", &fleet_trace.to_jsonl(), false).0,
        write_and_parse("TRACE_fleet.trace.json", &fleet_trace.to_chrome_json(), false).0,
    ];
    println!(
        "   {} events, {} dumps; open the .trace.json in chrome://tracing or \
         https://ui.perfetto.dev",
        fleet_trace.events.len(),
        fleet_trace.dumps.len()
    );
    for dump in fleet_trace.dumps.iter().take(3) {
        println!("{dump}");
    }
    gates
}

/// The `--f8 --dash` view: reruns the largest knee population with
/// telemetry on, prints per-resource peaks and saturation onsets,
/// attributes the p99 knee to the busiest shared resource, and writes
/// the series + counter-track artefacts (the artefact run adds the
/// long-TTL shared cache so the hit-rate track is live in Perfetto).
fn f8_dash(quick: bool) -> Vec<Gate> {
    let users: u64 = if quick { 32 } else { 96 };
    let scenario = Scenario::new("F8")
        .app(Category::Entertainment)
        .users(users)
        .sessions_per_user(6)
        .think_time(2.0)
        .seed(801);
    let knee_run = FleetRunner::new(scenario.clone())
        .topology(Topology::shared())
        .threads(2)
        .telemetry(true)
        .run();
    let telemetry = knee_run.timeseries.as_ref().expect("telemetry on");
    let stats = knee_run.contention.as_ref().expect("shared run");

    println!(
        "\nresource dashboard — {} users, bin {} ms:",
        users,
        telemetry.bin_ns() / 1_000_000
    );
    println!("  {:<28} {:>8}  saturated (>=90%) from", "series", "peak");
    for name in telemetry.names().map(str::to_owned).collect::<Vec<_>>() {
        let kind = telemetry.kind(&name).expect("registered").name();
        let peak = telemetry.peak_milli(&name).unwrap_or(0);
        let onset = telemetry.onset_ns(&name, telemetry_experiment::SATURATION_MILLI);
        println!(
            "  {:<28} {:>8}  {}",
            name,
            telemetry_experiment::peak_display(kind, peak),
            telemetry_experiment::onset_display(kind, onset),
        );
    }

    // Knee attribution: the shared resource that collected the most
    // wait is what bends p99.
    let waits = [
        ("cell airtime", "cell0000.airtime_util", stats.cell_wait_ns),
        ("gateway CPU", "gateway0000.cpu_util", stats.gateway_wait_ns),
        ("host CPU", "host0000.cpu_util", stats.host_wait_ns),
    ];
    let total: u64 = waits.iter().map(|&(_, _, ns)| ns).sum();
    let &(label, series, wait_ns) = waits
        .iter()
        .max_by_key(|&&(_, _, ns)| ns)
        .expect("three resources");
    let onset = telemetry.onset_ns(series, telemetry_experiment::SATURATION_MILLI);
    println!(
        "\n-> p99 knee attribution: {} ({:.1}% of all shared-resource wait; `{}` {})",
        label,
        if total == 0 {
            0.0
        } else {
            wait_ns as f64 / total as f64 * 100.0
        },
        series,
        match onset {
            Some(ns) => format!("first >=90% utilised at {:.1} s sim-time", ns as f64 / 1e9),
            None => format!(
                "peaks at {:.1}%",
                telemetry.peak_milli(series).unwrap_or(0) as f64 / 10.0
            ),
        }
    );

    // Artefacts: the same world with the long-TTL shared cache, traced,
    // so the Perfetto view carries span swim-lanes plus live counter
    // tracks for every resource including the cache hit-rate.
    let artefact_run = FleetRunner::new(
        scenario.cache(CachePolicy::standard().ttl(SimDuration::from_secs(3600))),
    )
    .topology(Topology::shared())
    .threads(2)
    .traced(true)
    .telemetry(true)
    .run();
    let artefact_series = artefact_run.timeseries.as_ref().expect("telemetry on");
    let trace = artefact_run.trace.as_ref().expect("traced run");
    let (rows_reparsed, rows) = write_and_parse("TELEMETRY_fleet.jsonl", &artefact_series.to_jsonl(), true);
    let (trace_reparsed, counter_trace) = write_and_parse(
        "TRACE_fleet.counters.trace.json",
        &obs::export::to_chrome_trace_with(&trace.events, Some(artefact_series)),
        true,
    );
    println!(
        "   {} points, {} span events, {} counter tracks; open the trace in \
         https://ui.perfetto.dev",
        rows.len(),
        trace.events.len(),
        artefact_series.names().count(),
    );
    let mut gates = vec![rows_reparsed, trace_reparsed];
    gates.extend(contention_experiment::dash_gates(
        counter_trace.first().unwrap_or(&Value::Null),
        &rows,
    ));
    gates
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // Hidden subprocess mode: run exactly one F9 grid cell in this
    // process (fresh RSS high-water mark) and print it as one JSON line.
    if let Some(at) = args.iter().position(|a| a == "--f9-cell") {
        let users: u64 = args[at + 1].parse().expect("--f9-cell <users> <threads>");
        let threads: usize = args[at + 2].parse().expect("--f9-cell <users> <threads>");
        println!("{}", scale_experiment::run_cell(users, threads).to_json());
        return ExitCode::SUCCESS;
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let quick = flag("--quick");
    let experiments: [Experiment; 9] = [
        ("--f4", "F4 — event engine: timer-wheel scheduler vs BinaryHeap reference",
            |quick| publish("BENCH_engine.json", engine::run(quick)), None),
        ("--f5", "F5 — observability: flight-recorder overhead, on and off",
            |quick| publish("BENCH_obs.json", obs_experiment::run(quick)), Some(("--trace", f5_trace))),
        ("--f6", "F6 — fault injection: availability + tail latency under storms, MC vs EC",
            |quick| publish("BENCH_faults.json", faults_experiment::run(quick)), None),
        ("--f7", "F7 — caching hierarchy: cold vs warm latency, zero-TTL identity",
            |quick| publish("BENCH_cache.json", cache_experiment::run(quick)), None),
        ("--f8", "F8 — shared-world contention: the knee + shared-cache growth",
            |quick| publish("BENCH_contention.json", contention_experiment::run(quick)), Some(("--dash", f8_dash))),
        ("--f9", "F9 — fleet scale: populations × threads, wall-clock / tps / peak RSS",
            |quick| publish("BENCH_scale.json", scale_experiment::run(quick)), None),
        ("--f10", "F10 — fleet telemetry: cost when off, identity when on",
            |quick| publish("BENCH_telemetry.json", telemetry_experiment::run(quick)), None),
        ("--f11", "F11 — durable storage: group commit × fsync cost, recovery pricing",
            |quick| publish("BENCH_db.json", db_experiment::run(quick)), None),
        ("--f12", "F12 — full-text search: cold vs memoized latency, index scaling",
            |quick| publish("BENCH_search.json", search_experiment::run(quick)), None),
    ];
    // No `--fN` flag: the whole report, experiments in paper order.
    let all = !experiments.iter().any(|e| flag(e.0));
    if all {
        paper_tables(quick);
    }
    let mut gates = Vec::new();
    for &(name, title, step, view) in &experiments {
        if !all && !flag(name) {
            continue;
        }
        heading(title);
        let mut checked = step(quick);
        if let Some((_, view)) = view.filter(|&(view_flag, _)| flag(view_flag)) {
            checked.extend(view(quick));
        }
        for gate in &checked {
            println!("gate {gate}");
        }
        gates.extend(checked);
    }
    if all {
        extensions(quick);
    }
    let failed: Vec<&Gate> = gates.iter().filter(|g| !g.passed).collect();
    println!("\ngates: {} passed, {} failed", gates.len() - failed.len(), failed.len());
    for gate in &failed {
        eprintln!("report: gate {gate}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Figures 1–2, Tables 1–5 and F3: the paper's own artefacts.
fn paper_tables(quick: bool) {
    let (txns, sessions, t4_bytes) = if quick {
        (40, 4, 50_000)
    } else {
        (300, 12, 200_000)
    };

    heading("Figures 1 & 2 — EC (4 components) vs MC (6 components), same workload");
    let (ec, mc) = experiments::fig1_fig2(txns);
    println!("{ec}");
    println!("{mc}");
    println!(
        "\n-> MC adds the mobile middleware and wireless components; both carry\n\
         real latency, and the end-to-end transaction still completes."
    );

    heading("Table 1 — major mobile commerce applications (all 8 categories, measured)");
    for row in experiments::table1(sessions) {
        println!("{row}");
    }

    heading("Table 2 — mobile stations (same workload per device)");
    for row in experiments::table2(sessions) {
        println!("{row}");
    }

    heading("Table 3 — WAP vs i-mode middleware");
    for row in experiments::table3(sessions) {
        println!("{row}");
    }

    heading("Table 4 — WLAN standards: goodput vs distance");
    let rows = experiments::table4(t4_bytes);
    let mut last = String::new();
    for row in rows {
        if row.standard != last {
            println!(
                "--- {} (nominal {} Mbps) ---",
                row.standard,
                row.nominal_bps / 1_000_000
            );
            last = row.standard.clone();
        }
        if row.goodput_bps > 0.0 {
            println!(
                "  {:>5.0} m: {:>8.2} Mbps ({} retx)",
                row.distance_m,
                row.goodput_bps / 1e6,
                row.retransmissions
            );
        } else {
            println!("  {:>5.0} m: out of range", row.distance_m);
        }
    }

    heading("Table 5 — cellular generations (payment transaction per standard)");
    for row in experiments::table5() {
        println!("{row}");
    }

    heading("F3 — fleet engine: users × threads, same merged result, wall-clock only");
    let fleet_users: &[u64] = if quick {
        &[1, 100, 1_000]
    } else {
        &[1, 100, 1_000, 10_000]
    };
    for row in experiments::fleet_scale(fleet_users, &[1, 2, 4, 8]) {
        println!("{row}");
    }
    println!(
        "\n-> the merged FleetSummary is asserted identical at every thread\n\
         count; txns/s varies only with the machine's real parallelism."
    );

}

/// X1, X2 and the ablations: what the paper argues but does not measure.
fn extensions(quick: bool) {
    let (sessions, x1_bytes) = if quick { (4, 150_000) } else { (12, 400_000) };

    heading("X1 — §5.2: TCP variants over an error-prone wireless hop");
    for row in tcpx::full_sweep(x1_bytes) {
        println!("{row}");
    }

    heading("X2 — §1.1: the five system requirements, checked");
    for report in experiments::independence() {
        println!(
            "requirement {} ({}) — {}\n    {}",
            report.number,
            report.requirement,
            if report.satisfied {
                "SATISFIED"
            } else {
                "NOT SATISFIED"
            },
            report.evidence
        );
    }

    heading("Ablations — what each design choice buys");
    println!("A1 — WBXML binary encoding (GPRS, travel workload):");
    for row in ablations::wbxml_ablation(sessions) {
        println!("  {row}");
    }
    println!("\nA2 — WTLS transport security (payment workload):");
    for row in ablations::security_ablation(sessions) {
        println!("  {row}");
    }
    println!("\nA3 — embedded store vs flat file (§7):");
    for row in ablations::storage_ablation() {
        println!("  {row}");
    }
    println!("\nA4 — gateway deck adaptation vs the Palm i705's 8 KB budget:");
    for row in ablations::pagination_ablation() {
        println!("  {row}");
    }
    println!("\nA5 — battery life per OS (§4.1), same 2 kJ battery and usage:");
    for row in ablations::battery_ablation() {
        println!("  {row}");
    }

    println!("\ndone.");
}
