//! Fleet benchmark for the mcommerce system model.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload storefront_isolated --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload's fleet
//! runs at two worker threads, each run in a fresh process and followed
//! by its set-up (the same fleet with no sessions) in another, until
//! `--seconds` have passed (at least five pairs); host metrics are the
//! medians. `--trace 1` measures the per-layer metrics in fresh
//! processes at one thread, with the counting allocator and the metrics
//! registry on. Both check the simulated output against digests and
//! print, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--record-references FIRST LAST` prints the digest table that
//! `workload::REFERENCES` holds, for seeds FIRST..=LAST.

mod alloc;
mod metrics;
mod replay;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use mcommerce_core::{FleetRunner, RecorderKind};

use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Worker threads of the measured run: one per core of a two-core host.
const THREADS: usize = 2;
/// Fewest measured runs, each followed by a set-up run, per `--trace 0`
/// invocation.
const MIN_RUNS: usize = 5;
/// Fewest traced runs per `--trace 1` invocation: the deterministic
/// per-layer counts must repeat between two of them.
const MIN_TRACED_RUNS: usize = 2;
/// No new run starts after this long, whatever `--seconds` says.
const RUN_CAP: Duration = Duration::from_secs(120);
/// Share of the population the shared workloads' replay samples.
const SHARED_REPLAY_DIVISOR: u64 = 10;
/// Prefix of every line a child process reports on.
const CHILD_TAG: &str = "fleetbench-child";

const USAGE: &str = "usage: fleetbench --workload <storefront_isolated|metro_browse_shared|search_checkout_shared> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let name = get("--workload")?;
    let args = Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if flags.len() != 4 {
        return Err("unknown flag".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--child") => child(&argv[1..]),
        Some("--record-references") => record_references(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- child

/// One report line of a child process.
fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{CHILD_TAG}\t{key}\t{value}");
}

/// Peak resident set size of this process in KiB (`VmHWM`).
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The hidden `--child <mode> <workload> <scenario seed> <users>` entry
/// point: one measurement in this fresh process, reported as tagged
/// lines.
fn child(argv: &[String]) -> Result<(), String> {
    let [mode, name, seed, users] = argv else {
        return Err("--child takes <mode> <workload> <scenario seed> <users>".into());
    };
    let w = Workload::parse(name).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad scenario seed")?;
    let users: u64 = users.parse().map_err(|_| "bad users")?;
    match mode.as_str() {
        "measure" => {
            let runner = w.runner(seed, users, THREADS);
            let started = Instant::now();
            let run = runner.run();
            emit("wall_s", started.elapsed().as_secs_f64());
            let counters = &run.report.summary.workload.counters;
            emit("digest", workload::digest(counters));
            emit("attempted", counters.attempted);
            emit("succeeded", counters.succeeded);
            for v in metrics::sim_end_to_end(counters) {
                emit(v.name, v.value);
                emit(&format!("base:{}", v.name), v.base);
            }
        }
        "setup" => {
            let runner = FleetRunner::new(w.scenario(seed, users).sessions_per_user(0))
                .topology(w.topology(users))
                .threads(THREADS);
            let started = Instant::now();
            let run = runner.run();
            emit("wall_s", started.elapsed().as_secs_f64());
            emit("attempted", run.report.summary.workload.counters.attempted);
        }
        "trace" => traced_child(w, seed, users),
        other => return Err(format!("unknown child mode {other}")),
    }
    emit("peak_rss_kib", peak_rss_kib()?);
    Ok(())
}

/// The per-layer pass: an untraced and a traced fleet run at one
/// thread, then the public-call replay.
fn traced_child(w: Workload, seed: u64, users: u64) {
    let started = Instant::now();
    let plain = w.runner(seed, users, 1).run();
    let plain_wall = started.elapsed().as_secs_f64();

    let before = alloc::snapshot();
    let counting = alloc::enable();
    let started = Instant::now();
    let traced = w
        .runner(seed, users, 1)
        .traced(true)
        .recorder(RecorderKind::Disabled)
        .run();
    let traced_wall = started.elapsed().as_secs_f64();
    drop(counting);
    let allocs = alloc::snapshot() - before;

    let sample = if w.is_shared() {
        users / SHARED_REPLAY_DIVISOR
    } else {
        users
    };
    let replay = replay::run(&w.scenario(seed, users), sample);

    let counters = &traced.report.summary.workload.counters;
    let registry = traced.trace.as_ref().expect("a traced run carries a trace");
    emit(
        "digest",
        workload::digest(&plain.report.summary.workload.counters),
    );
    emit("digest.traced", workload::digest(counters));
    emit("digest.replay", workload::digest(&replay.counters));
    emit("attempted", counters.attempted);
    emit("succeeded", counters.succeeded);
    // Recorded for the notes: the registry counts a failure that
    // reaches the end of `execute` twice, so failures are never taken
    // from it.
    emit(
        "registry.station.txn_failures",
        registry.metrics.counter("station.txn_failures"),
    );
    let values = metrics::per_layer(&metrics::Traced {
        counters,
        registry: &registry.metrics,
        contention: traced.contention.as_ref(),
        allocs,
        trace_overhead: traced_wall / plain_wall,
        replay: &replay,
        replay_is_fleet: !w.is_shared(),
    });
    for v in values {
        emit(v.name, v.value);
        emit(&format!("base:{}", v.name), v.base);
    }
}

/// A child's report: key → value.
type Report = BTreeMap<String, String>;

fn spawn(mode: &str, w: Workload, seed: u64, users: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--child",
            mode,
            w.name(),
            &seed.to_string(),
            &users.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            let mut parts = line.splitn(3, '\t');
            (parts.next()? == CHILD_TAG).then_some(())?;
            Some((parts.next()?.to_owned(), parts.next()?.to_owned()))
        })
        .collect())
}

fn text<'a>(report: &'a Report, key: &str) -> Result<&'a str, String> {
    report
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("child report lacks {key}"))
}

fn field<T: std::str::FromStr>(report: &Report, key: &str) -> Result<T, String> {
    text(report, key)?
        .parse()
        .map_err(|_| format!("child report has a malformed {key}"))
}

// --------------------------------------------------------------- parent

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What the output check found, printed before the result line.
struct Check {
    notes: Vec<String>,
    ok: bool,
}

impl Check {
    fn new() -> Self {
        Check {
            notes: Vec::new(),
            ok: true,
        }
    }

    fn require(&mut self, ok: bool, what: String) {
        self.notes
            .push(format!("{} {what}", if ok { "ok  " } else { "FAIL" }));
        self.ok &= ok;
    }

    /// Compares a digest with the recorded one, when there is one.
    fn against_reference(&mut self, w: Workload, seed: u64, users: u64, digest: &str) {
        match workload::reference(w, seed, users) {
            Some(reference) => self.require(
                digest == reference,
                format!("digest {digest} = recorded reference {reference} (seed {seed}, {users} users)"),
            ),
            None => self.notes.push(format!(
                "--   no reference recorded for seed {seed}; checked against the canary and across runs"
            )),
        }
    }
}

/// Runs the workload's canary population in this process and checks
/// it against its recorded digest.
fn canary(w: Workload, check: &mut Check) {
    let users = w.canary_users();
    let run = w.runner(w.scenario_seed(0, users), users, THREADS).run();
    let digest = workload::digest(&run.report.summary.workload.counters);
    match workload::reference(w, 0, users) {
        Some(reference) => check.require(
            digest == reference,
            format!("canary ({users} users, seed 0) digest {digest} = recorded {reference}"),
        ),
        None => check.require(false, format!("no canary reference recorded ({digest})")),
    }
}

/// A metric ready to print.
struct Row {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .find(|&&(n, _)| n == name)
        .map(|(_, u)| u)
        .expect("every reported metric is declared")
}

fn spread(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {} runs, range {lo:.6}..{hi:.6}", values.len())
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let users = w.users();
    let seed = w.scenario_seed(args.seed, users);
    let seconds = Duration::from_secs(args.seconds);
    let mut check = Check::new();
    canary(w, &mut check);
    let started = Instant::now();
    let more = |runs: usize, least: usize| {
        runs < least || (started.elapsed() < seconds && started.elapsed() < RUN_CAP)
    };

    let mut measured = Vec::new();
    let mut rows = Vec::new();
    let mut attempted = 0u64;
    let mut succeeded = 0u64;
    if !args.trace {
        // Set-up runs interleave with measured runs, so both sample the
        // same stretches of machine noise.
        let mut setups = Vec::new();
        while more(measured.len(), MIN_RUNS) {
            measured.push(spawn("measure", w, seed, users)?);
            setups.push(spawn("setup", w, seed, users)?);
        }
        let setup_txns = setups
            .iter()
            .map(|r| field::<u64>(r, "attempted"))
            .sum::<Result<u64, String>>()?;
        check.require(
            setup_txns == 0,
            "set-up runs execute no transactions".into(),
        );
        let tps = measured
            .iter()
            .map(|r| Ok(field::<f64>(r, "attempted")? / field::<f64>(r, "wall_s")?))
            .collect::<Result<Vec<f64>, String>>()?;
        let rss = measured
            .iter()
            .map(|r| Ok(field::<f64>(r, "peak_rss_kib")? / 1024.0))
            .collect::<Result<Vec<f64>, String>>()?;
        let setup = setups
            .iter()
            .map(|r| field::<f64>(r, "wall_s"))
            .collect::<Result<Vec<f64>, String>>()?;
        rows.push(Row {
            name: "txn_per_s",
            value: median(&tps),
            unit: unit_of("txn_per_s"),
            note: format!("host; {THREADS} threads, {}", spread(&tps)),
        });
        rows.push(Row {
            name: "peak_rss_mb",
            value: median(&rss),
            unit: unit_of("peak_rss_mb"),
            note: format!("host; VmHWM of each run's own process, {}", spread(&rss)),
        });
        rows.push(Row {
            name: "setup_s",
            value: median(&setup),
            unit: unit_of("setup_s"),
            note: format!("host; no sessions, {}", spread(&setup)),
        });
        for &(name, ..) in &metrics::END_TO_END[3..] {
            rows.push(Row {
                name,
                value: field(&measured[0], name)?,
                unit: unit_of(name),
                note: format!("sim; {}", text(&measured[0], &format!("base:{name}"))?),
            });
        }
    } else {
        measured.push(spawn("measure", w, seed, users)?);
        let mut traced = Vec::new();
        while more(traced.len(), MIN_TRACED_RUNS) {
            traced.push(spawn("trace", w, seed, users)?);
        }
        let first = &traced[0];
        let reference = text(&measured[0], "digest")?;
        let deterministic: Vec<&str> = metrics::PER_LAYER
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !metrics::is_wall_clock(name))
            .collect();
        for (i, r) in traced.iter().enumerate() {
            for key in ["digest", "digest.traced"] {
                let digest = text(r, key)?;
                check.require(
                    digest == reference,
                    format!("traced run {i}: 1-thread {key} {digest} = 2-thread digest"),
                );
            }
            let replay = text(r, "digest.replay")?;
            if !w.is_shared() {
                check.require(
                    replay == reference,
                    format!("traced run {i}: public-call replay digest {replay} = fleet digest"),
                );
            }
            let mut moved = Vec::new();
            for &name in &deterministic {
                let (a, b) = (field::<f64>(r, name)?, field::<f64>(first, name)?);
                if (a - b).abs() > metrics::repeat_tolerance(name) * b.abs() {
                    moved.push(name);
                }
            }
            if replay != text(first, "digest.replay")? {
                moved.push("digest.replay");
            }
            check.require(
                moved.is_empty(),
                format!(
                    "traced run {i}: {} allocation, memo and sim-time metrics and the replay digest repeat {moved:?}",
                    deterministic.len()
                ),
            );
            attempted += field::<u64>(r, "attempted")?;
            succeeded += field::<u64>(r, "succeeded")?;
        }
        for &(name, unit) in metrics::PER_LAYER {
            let values = traced
                .iter()
                .map(|r| field::<f64>(r, name))
                .collect::<Result<Vec<f64>, String>>()?;
            let base = text(first, &format!("base:{name}"))?;
            let note = if metrics::is_wall_clock(name) {
                format!("host; {}; {base}", spread(&values))
            } else if unit.starts_with("sim_") {
                format!("sim; {base}")
            } else {
                base.to_owned()
            };
            rows.push(Row {
                name,
                value: median(&values),
                unit,
                note,
            });
        }
        check.notes.push(format!(
            "--   registry station.txn_failures = {} for {} failed txns (counts each failure twice; not used)",
            text(first, "registry.station.txn_failures")?,
            field::<u64>(first, "attempted")? - field::<u64>(first, "succeeded")?,
        ));
    }

    let digest = text(&measured[0], "digest")?;
    check.require(
        measured
            .iter()
            .all(|r| r.get("digest").map(String::as_str) == Some(digest)),
        format!("{} measured runs share digest {digest}", measured.len()),
    );
    check.against_reference(w, args.seed, users, digest);
    for r in &measured {
        attempted += field::<u64>(r, "attempted")?;
        succeeded += field::<u64>(r, "succeeded")?;
    }
    check.require(
        rows.iter().all(|r| r.value.is_finite()),
        "every metric is finite".into(),
    );

    println!(
        "fleetbench {} --seed {} (scenario seed {seed}): {users} users, {} mode, {:.1} s",
        w.name(),
        args.seed,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        started.elapsed().as_secs_f64(),
    );
    for row in &rows {
        println!(
            "  {:<38} {:>16.6} {:<7} {}",
            row.name, row.value, row.unit, row.note
        );
    }
    for note in &check.notes {
        println!("  {note}");
    }
    let failed = if check.ok {
        attempted - succeeded
    } else {
        attempted
    };
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        check.ok,
        metrics.join(", ")
    );
    Ok(())
}

// ----------------------------------------------------------- references

/// Prints `workload::REFERENCES` rows: each workload's canary and its
/// measured population for seeds `first..=last`.
fn record_references(argv: &[String]) -> Result<(), String> {
    let [first, last] = argv else {
        return Err("--record-references takes FIRST LAST".into());
    };
    let first: u64 = first.parse().map_err(|_| "bad FIRST")?;
    let last: u64 = last.parse().map_err(|_| "bad LAST")?;
    for w in Workload::ALL {
        let rows = std::iter::once((0, w.canary_users()))
            .chain((first..=last).map(|seed| (seed, w.users())));
        for (seed, users) in rows {
            let run = w.runner(w.scenario_seed(seed, users), users, THREADS).run();
            let digest = workload::digest(&run.report.summary.workload.counters);
            println!("    (\"{}\", {seed}, {users}, \"{digest}\"),", w.name());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
