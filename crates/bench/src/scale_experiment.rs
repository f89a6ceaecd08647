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
//! failure string). [`run`] asserts the digest is identical across
//! thread counts at every population; `scripts/tier1.sh` checks the
//! same invariant on the emitted JSON.

use std::fmt;
use std::process::Command;
use std::time::Instant;

use mcommerce_core::{Category, FleetRunner, Scenario};

/// One measured grid cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Simulated users.
    pub users: u64,
    /// Worker threads requested.
    pub threads: usize,
    /// Wall-clock seconds for the whole fleet run.
    pub wall_secs: f64,
    /// Transactions executed.
    pub transactions: u64,
    /// Transactions per wall-clock second.
    pub tps: f64,
    /// Peak resident set size of the cell's process, bytes (0 when the
    /// platform exposes no `VmHWM`).
    pub peak_rss_bytes: u64,
    /// FNV-1a 64 digest of the merged workload counters, hex.
    pub digest: String,
}

impl ScaleCell {
    /// Renders the cell as a JSON object (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"users\": {}, \"threads\": {}, \"wall_secs\": {:.6}, \"transactions\": {}, \"tps\": {:.1}, \"peak_rss_bytes\": {}, \"digest\": \"{}\" }}",
            self.users,
            self.threads,
            self.wall_secs,
            self.transactions,
            self.tps,
            self.peak_rss_bytes,
            self.digest,
        )
    }
}

/// The complete F9 result grid.
#[derive(Debug, Clone)]
pub struct ScaleNumbers {
    /// Populations swept, ascending.
    pub populations: Vec<u64>,
    /// Thread counts swept, ascending.
    pub threads: Vec<usize>,
    /// Measured cells, population-major then thread order.
    pub cells: Vec<ScaleCell>,
}

impl ScaleNumbers {
    /// Renders the grid as the `BENCH_scale.json` document.
    pub fn to_json(&self) -> String {
        let populations: Vec<String> = self.populations.iter().map(u64::to_string).collect();
        let threads: Vec<String> = self.threads.iter().map(usize::to_string).collect();
        let cells: Vec<String> = self.cells.iter().map(|c| format!("    {}", c.to_json())).collect();
        format!(
            "{{\n  \"experiment\": \"F9_scale\",\n  \"populations\": [{}],\n  \"threads\": [{}],\n  \"identical_across_threads\": true,\n  \"cells\": [\n{}\n  ]\n}}\n",
            populations.join(", "),
            threads.join(", "),
            cells.join(",\n"),
        )
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
pub fn scenario(users: u64) -> Scenario {
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

/// Extracts `"key": <value>` from a one-object JSON line (the cell
/// subprocess's output — flat, machine-generated, so plain string
/// scanning is exact).
fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find([',', '}'])
        .unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses a subprocess cell line back into a [`ScaleCell`].
fn parse_cell(json: &str) -> Option<ScaleCell> {
    Some(ScaleCell {
        users: json_field(json, "users")?.parse().ok()?,
        threads: json_field(json, "threads")?.parse().ok()?,
        wall_secs: json_field(json, "wall_secs")?.parse().ok()?,
        transactions: json_field(json, "transactions")?.parse().ok()?,
        tps: json_field(json, "tps")?.parse().ok()?,
        peak_rss_bytes: json_field(json, "peak_rss_bytes")?.parse().ok()?,
        digest: json_field(json, "digest")?.to_owned(),
    })
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
            if let Some(cell) = stdout.lines().rev().find_map(parse_cell) {
                return cell;
            }
        }
    }
    run_cell(users, threads)
}

/// Runs the full F9 grid. `quick` drops the million-user column for
/// smoke runs; both modes assert the cross-thread identity gate.
pub fn run(quick: bool) -> ScaleNumbers {
    let populations: Vec<u64> = if quick {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };
    let threads = vec![1usize, 4, 8];
    let mut cells = Vec::new();
    for &users in &populations {
        let mut reference: Option<&str> = None;
        let lo = cells.len();
        for &t in &threads {
            cells.push(run_cell_isolated(users, t));
        }
        for cell in &cells[lo..] {
            match reference {
                None => reference = Some(&cell.digest),
                Some(reference) => assert_eq!(
                    reference, cell.digest,
                    "{} users: merged counters must be byte-identical at every thread count",
                    users
                ),
            }
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
        let parsed = parse_cell(&cell.to_json()).expect("parses");
        assert_eq!(parsed.users, cell.users);
        assert_eq!(parsed.threads, cell.threads);
        assert_eq!(parsed.transactions, cell.transactions);
        assert_eq!(parsed.peak_rss_bytes, cell.peak_rss_bytes);
        assert_eq!(parsed.digest, cell.digest);
        // to_json prints wall_secs with 6 decimals: half-ulp tolerance.
        assert!((parsed.wall_secs - cell.wall_secs).abs() <= 5e-7);
    }

    #[test]
    fn grid_json_has_the_schema_tier1_checks() {
        let numbers = ScaleNumbers {
            populations: vec![10, 20],
            threads: vec![1, 2],
            cells: vec![run_cell(10, 1)],
        };
        let json = numbers.to_json();
        for key in [
            "\"experiment\"",
            "\"F9_scale\"",
            "\"populations\"",
            "\"threads\"",
            "\"identical_across_threads\"",
            "\"cells\"",
            "\"tps\"",
            "\"peak_rss_bytes\"",
            "\"digest\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(
            !json.contains("events"),
            "the fleet engine counts no events: {json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
