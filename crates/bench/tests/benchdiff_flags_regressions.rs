//! The `benchdiff` binary fails on a deterministic regression: a copy of
//! the committed F8 baseline whose last knee p99 is doubled must not
//! diff clean against the untouched baseline.

use std::path::Path;
use std::process::Command;

use obs::json::{self, Value};

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../bench/baselines/BENCH_contention.json"
);

fn benchdiff(baseline: &Path, current: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .arg(baseline)
        .arg(current)
        .output()
        .expect("benchdiff runs")
}

#[test]
fn a_doubled_knee_p99_fails_the_diff() {
    let untouched = Path::new(BASELINE);
    assert!(
        benchdiff(untouched, untouched).status.success(),
        "a baseline diffs clean against itself"
    );

    let mut doc = json::parse(&std::fs::read_to_string(untouched).expect("baseline readable"))
        .expect("baseline parses");
    let Some(Value::Array(knee)) = doc.get_mut("knee") else {
        panic!("BENCH_contention.json has a knee array");
    };
    let p99 = knee
        .last_mut()
        .and_then(|row| row.get_mut("p99_ms"))
        .expect("the last knee row has p99_ms");
    *p99 = Value::Float(p99.as_f64().expect("p99_ms is a number") * 2.0);
    let regressed = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_regressed.baseline.json");
    std::fs::write(&regressed, format!("{doc}\n")).expect("write the regressed copy");

    let out = benchdiff(&regressed, untouched);
    assert!(
        !out.status.success(),
        "benchdiff passed an injected 2x p99 regression"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("knee[3].p99_ms"), "{stderr}");
}
