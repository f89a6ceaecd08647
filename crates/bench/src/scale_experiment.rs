//! F9 — fleet scale: wall-clock, throughput and memory across
//! populations and thread counts.
//!
//! F3 established that the merged summary is thread-count invariant at
//! workshop populations. F9 is the scale experiment behind the "million
//! users in seconds" claim: the full grid of populations {10 k, 100 k,
//! 1 M} × threads {1, 4, 8}, each cell measured for wall-clock seconds,
//! transactions per second, and peak resident set size — rendered as
//! the `BENCH_scale.json` artefact.
//!
//! # Measurement discipline
//!
//! Every cell runs in its **own subprocess** (the report binary
//! re-executes itself with a hidden `--f9-cell` flag). That is what
//! makes peak RSS honest: `VmHWM` is a process-lifetime high-water
//! mark, so in-process cells would report the largest population's
//! footprint for every later cell. A subprocess also gives each cell a
//! cold allocator, so the RSS curve is a function of the population,
//! not of the run order.
//!
//! # The identity gate
//!
//! Each cell digests its merged
//! [`WorkloadCounters`](mcommerce_core::WorkloadCounters) (FNV-1a 64 over
//! the full debug rendering — every counter, histogram bucket and
//! failure string). The artefact's `identical_across_threads` is
//! computed from those digests, and [`ScaleNumbers`]'s gates check it,
//! the digest count per population and the 100k-user RSS budget.

use std::collections::BTreeSet;
use std::fmt;
use std::process::Command;
use std::time::Instant;

use mcommerce_core::{Category, FleetRunner, Scenario};
use obs::json::{self, Value, Value::Fixed};
use obs::object;

use crate::gate::{Gate, Numbers};

/// One measured grid cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Simulated users.
    pub(crate) users: u64,
    /// Worker threads requested.
    pub(crate) threads: usize,
    /// Wall-clock seconds for the whole fleet run.
    pub(crate) wall_secs: f64,
    /// Transactions executed.
    pub(crate) transactions: u64,
    /// Transactions per wall-clock second.
    pub(crate) tps: f64,
    /// Peak resident set size of the cell's process, bytes (0 when the
    /// platform exposes no `VmHWM`).
    pub(crate) peak_rss_bytes: u64,
    /// FNV-1a 64 digest of the merged workload counters, hex.
    pub(crate) digest: String,
}

impl ScaleCell {
    /// The cell as a JSON object: an element of the artefact's `cells`,
    /// and the line the `--f9-cell` subprocess prints.
    pub fn to_json(&self) -> Value {
        object!("users": self.users, "threads": self.threads, "wall_secs": Fixed(self.wall_secs, 6),
            "transactions": self.transactions, "tps": Fixed(self.tps, 1),
            "peak_rss_bytes": self.peak_rss_bytes, "digest": self.digest.as_str())
    }

    /// Reads a cell back from [`ScaleCell::to_json`]'s object; `None`
    /// when a field is missing or mistyped.
    pub(crate) fn from_json(cell: &Value) -> Option<ScaleCell> {
        Some(ScaleCell {
            users: cell["users"].as_u64()?,
            threads: usize::try_from(cell["threads"].as_u64()?).ok()?,
            wall_secs: cell["wall_secs"].as_f64()?,
            transactions: cell["transactions"].as_u64()?,
            tps: cell["tps"].as_f64()?,
            peak_rss_bytes: cell["peak_rss_bytes"].as_u64()?,
            digest: cell["digest"].as_str()?.to_owned(),
        })
    }
}

/// The complete F9 result grid.
#[derive(Debug, Clone)]
pub struct ScaleNumbers {
    /// Populations swept, ascending.
    pub(crate) populations: Vec<u64>,
    /// Thread counts swept, ascending.
    pub(crate) threads: Vec<usize>,
    /// Measured cells, population-major then thread order.
    pub(crate) cells: Vec<ScaleCell>,
}

/// Peak-RSS budget of a 100k-user cell: the engine streams, so memory
/// must not scale with the population.
const RSS_BUDGET_BYTES: u64 = 128 * 1024 * 1024;

impl ScaleNumbers {
    /// The distinct merged-counter digests among `users`' cells.
    fn digests(&self, users: u64) -> BTreeSet<&str> {
        self.cells.iter().filter(|c| c.users == users).map(|c| c.digest.as_str()).collect()
    }

    /// Whether every population's cells share one digest, whatever
    /// their thread count.
    pub(crate) fn identical_across_threads(&self) -> bool {
        self.populations.iter().all(|&pop| self.digests(pop).len() == 1)
    }
}

impl Numbers for ScaleNumbers {
    const EXPERIMENT: &'static str = "F9_scale";

    fn to_json(&self) -> Value {
        object!(
            "experiment": Self::EXPERIMENT,
            "populations": self.populations.iter().map(|&p| p.into()).collect::<Value>(),
            "threads": self.threads.iter().map(|&t| t.into()).collect::<Value>(),
            "identical_across_threads": self.identical_across_threads(),
            "cells": self.cells.iter().map(ScaleCell::to_json).collect::<Value>(),
        )
    }

    fn gates(&self) -> Vec<Gate> {
        let cells = self.to_json()["cells"].items().iter().all(|c| ScaleCell::from_json(c).is_some());
        let grid = self.populations.len() * self.threads.len();
        let mut gates = vec![
            Gate::holds("identical_across_threads", self.identical_across_threads()),
            Gate::equals("grid cells", self.cells.len(), grid),
            Gate::holds("every artefact cell reads back with all seven fields", cells),
        ];
        for &pop in &self.populations {
            let name = format!("{pop} users: distinct merged-counter digests across threads");
            gates.push(Gate::equals(name, self.digests(pop).len(), 1));
        }
        for c in self.cells.iter().filter(|c| c.users == 100_000 && c.peak_rss_bytes > 0) {
            let name = format!("peak RSS at 100k users, {} threads (bytes)", c.threads);
            gates.push(Gate::below(name, c.peak_rss_bytes, RSS_BUDGET_BYTES));
        }
        gates
    }
}

impl fmt::Display for ScaleNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>9} {:>7} {:>9} {:>12} {:>12} {:>9}",
            "users", "threads", "wall s", "txns/s", "peak RSS", "digest"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:>9} {:>7} {:>9.3} {:>12.0} {:>9.1} MB  {}",
                c.users,
                c.threads,
                c.wall_secs,
                c.tps,
                c.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                &c.digest,
            )?;
        }
        write!(f, "merged counters identical across thread counts at every population")
    }
}

/// The F9 scenario for one population: the Commerce workload, one
/// session per user, caches off — the leanest end-to-end transaction,
/// so the measurement isolates the engine, not a cache policy.
pub(crate) fn scenario(users: u64) -> Scenario {
    Scenario::new("F9")
        .app(Category::Commerce)
        .users(users)
        .sessions_per_user(1)
        .seed(97)
}

/// FNV-1a 64 over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Peak resident set size of this process, bytes (`VmHWM`), 0 when the
/// platform does not expose it.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Runs one grid cell **in this process** and measures it. This is what
/// the hidden `--f9-cell` mode of the report binary calls; the peak-RSS
/// number is only meaningful when the process ran nothing bigger first.
pub fn run_cell(users: u64, threads: usize) -> ScaleCell {
    let scenario = scenario(users);
    let started = Instant::now();
    let run = FleetRunner::new(scenario).threads(threads).run();
    let wall_secs = started.elapsed().as_secs_f64();
    let report = run.report;
    let transactions = report.summary.transactions();
    let digest = fnv1a(format!("{:?}", report.summary.workload.counters).as_bytes());
    ScaleCell {
        users,
        threads,
        wall_secs,
        transactions,
        tps: transactions as f64 / wall_secs,
        peak_rss_bytes: peak_rss_bytes(),
        digest: format!("{digest:016x}"),
    }
}

/// Runs one cell in a fresh subprocess of the current binary (hidden
/// `--f9-cell` mode), so its peak RSS is its own. Falls back to an
/// in-process run when re-execution is unavailable.
fn run_cell_isolated(users: u64, threads: usize) -> ScaleCell {
    let child = std::env::current_exe().ok().and_then(|exe| {
        Command::new(exe)
            .args(["--f9-cell", &users.to_string(), &threads.to_string()])
            .output()
            .ok()
    });
    if let Some(out) = child {
        if out.status.success() {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let cell = |line: &str| ScaleCell::from_json(&json::parse(line).ok()?);
            if let Some(cell) = stdout.lines().rev().find_map(cell) {
                return cell;
            }
        }
    }
    run_cell(users, threads)
}

/// Runs the full F9 grid. `quick` drops the million-user column for
/// smoke runs.
pub fn run(quick: bool) -> ScaleNumbers {
    let populations: Vec<u64> = if quick {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };
    let threads = vec![1usize, 4, 8];
    let mut cells = Vec::new();
    for &users in &populations {
        for &t in &threads {
            cells.push(run_cell_isolated(users, t));
        }
    }
    ScaleNumbers {
        populations,
        threads,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::failing;

    #[test]
    fn one_cell_measures_and_digests() {
        let a = run_cell(50, 2);
        assert_eq!(a.users, 50);
        assert_eq!(a.transactions, 100); // two-step Commerce session
        assert!(a.wall_secs > 0.0 && a.tps > 0.0);
        assert_eq!(a.digest.len(), 16);
        // The digest is a function of the merged counters alone.
        let b = run_cell(50, 5);
        assert_eq!(a.digest, b.digest);
        let c = run_cell(51, 2);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn cell_json_round_trips() {
        let cell = run_cell(10, 1);
        let line = json::parse(&cell.to_json().to_string()).expect("the cell line parses");
        let parsed = ScaleCell::from_json(&line).expect("parses");
        assert_eq!(parsed.users, cell.users);
        assert_eq!(parsed.threads, cell.threads);
        assert_eq!(parsed.transactions, cell.transactions);
        assert_eq!(parsed.peak_rss_bytes, cell.peak_rss_bytes);
        assert_eq!(parsed.digest, cell.digest);
        // to_json prints wall_secs with 6 decimals: half-ulp tolerance.
        assert!((parsed.wall_secs - cell.wall_secs).abs() <= 5e-7);
    }

    #[test]
    fn grid_json_has_the_schema_and_the_gates_are_live() {
        let cell = run_cell(10, 1);
        let mut numbers = ScaleNumbers {
            populations: vec![10],
            threads: vec![1, 2],
            cells: vec![cell.clone(), ScaleCell { threads: 2, ..cell }],
        };
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["experiment"].as_str(), Some("F9_scale"));
        assert_eq!(json["populations"].items().len(), 1);
        assert_eq!(json["threads"].items().len(), 2);
        assert_eq!(json["identical_across_threads"], Value::Bool(true));
        for key in ["tps", "peak_rss_bytes", "digest"] {
            assert!(json["cells"][0].get(key).is_some(), "missing {key} in {json}");
        }
        let Value::Object(top) = &json else { panic!("{json}") };
        let Value::Object(first) = &json["cells"][0] else { panic!("{json}") };
        assert!(
            top.iter().chain(first).all(|(key, _)| !key.contains("events")),
            "the fleet engine counts no events: {json}"
        );

        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());
        numbers.cells[1].digest = "0".repeat(16);
        assert_eq!(
            failing(&numbers),
            ["identical_across_threads", "10 users: distinct merged-counter digests across threads"]
        );
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["identical_across_threads"], Value::Bool(false));
        numbers.cells[1].digest = numbers.cells[0].digest.clone();
        numbers.populations = vec![100_000];
        for cell in &mut numbers.cells {
            cell.users = 100_000;
        }
        numbers.cells[1].peak_rss_bytes = RSS_BUDGET_BYTES;
        assert_eq!(failing(&numbers), ["peak RSS at 100k users, 2 threads (bytes)"]);
        numbers.cells.pop();
        assert_eq!(failing(&numbers), ["grid cells"]);
    }
}
