//! Diffs `BENCH_*.json` artefact sets against committed baselines.
//!
//! ```text
//! cargo run -p bench --bin benchdiff -- <baseline> <current> [--full]
//! ```
//!
//! `<baseline>` and `<current>` are either two JSON files or two
//! directories; directories are matched by the baseline's `*.json`
//! file names (a baseline artefact missing from the current set fails).
//! Prints a markdown delta table per artefact and exits 1 if any gated
//! metric drifted beyond the 1% tolerance. Wall-clock metrics (wall
//! seconds, throughput, RSS, overhead percentages) are reported but never
//! gate — see [`bench::benchdiff`] for the policy. `--full` prints
//! unchanged rows too.

use bench::benchdiff::{diff_docs, Diff};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: benchdiff <baseline-file-or-dir> <current-file-or-dir> [--full]"
    );
    std::process::exit(2);
}

/// The artefact pairs to compare: `(label, baseline path, current path)`.
fn pairs(baseline: &Path, current: &Path) -> Result<Vec<(String, PathBuf, PathBuf)>, String> {
    if baseline.is_dir() != current.is_dir() {
        return Err("baseline and current must both be files or both directories".into());
    }
    if !baseline.is_dir() {
        let label = baseline
            .file_stem()
            .map_or_else(|| "artefact".into(), |s| s.to_string_lossy().into_owned());
        return Ok(vec![(label, baseline.into(), current.into())]);
    }
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(baseline)
        .map_err(|e| format!("read {}: {e}", baseline.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no *.json baselines in {}", baseline.display()));
    }
    for base_path in entries {
        let name = base_path.file_name().expect("json file has a name");
        let label = base_path
            .file_stem()
            .expect("json file has a stem")
            .to_string_lossy()
            .into_owned();
        out.push((label, base_path.clone(), current.join(name)));
    }
    Ok(out)
}

fn compare(label: &str, base_path: &Path, cur_path: &Path) -> Result<Diff, String> {
    let base = std::fs::read_to_string(base_path)
        .map_err(|e| format!("{label}: read {}: {e}", base_path.display()))?;
    let cur = std::fs::read_to_string(cur_path)
        .map_err(|e| format!("{label}: read {}: {e} (artefact missing?)", cur_path.display()))?;
    diff_docs(label, &base, &cur)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut full = false;
    for arg in &args {
        match arg.as_str() {
            "--full" => full = true,
            _ if arg.starts_with("--") => usage(),
            _ => paths.push(arg.into()),
        }
    }
    let [baseline, current] = paths.as_slice() else {
        usage()
    };

    let pairs = match pairs(baseline, current) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchdiff: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = 0usize;
    for (label, base_path, cur_path) in &pairs {
        match compare(label, base_path, cur_path) {
            Ok(diff) => {
                println!("{}", diff.to_markdown(full));
                if !diff.passed() {
                    failed += 1;
                    for row in diff.failures() {
                        eprintln!(
                            "benchdiff: FAIL {label}: `{}` baseline={} current={}",
                            row.metric,
                            row.baseline
                                .as_ref()
                                .map_or("—".into(), ToString::to_string),
                            row.current.as_ref().map_or("—".into(), ToString::to_string),
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("benchdiff: FAIL {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("benchdiff: {failed}/{} artefacts failed the gate", pairs.len());
        ExitCode::FAILURE
    } else {
        println!("benchdiff: {} artefacts within tolerance", pairs.len());
        ExitCode::SUCCESS
    }
}
