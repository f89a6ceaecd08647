//! `obs::json` under hostile input: the parser returns `Err` instead of
//! overflowing the stack or panicking, and the writer's output parses
//! back to the value it was written from.

use obs::json::{self, Value};
use proptest::prelude::*;

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    assert!(json::parse(&"[".repeat(100_000)).is_err());
    assert!(json::parse(&"{\"a\":".repeat(100_000)).is_err());
    let ok = format!(
        "{}{}",
        "[".repeat(json::MAX_DEPTH),
        "]".repeat(json::MAX_DEPTH)
    );
    assert!(json::parse(&ok).is_ok());
    let deep = format!("[{ok}]");
    assert!(json::parse(&deep).is_err());
}

#[test]
fn every_truncated_baseline_is_an_error() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baselines");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("bench/baselines exists") {
        let path = entry.expect("readable entry").path();
        let text = std::fs::read_to_string(&path).expect("readable baseline");
        assert!(json::parse(&text).is_ok(), "{}", path.display());
        let close = text.rfind('}').expect("a baseline is an object");
        for end in (0..=close).filter(|&end| text.is_char_boundary(end)) {
            assert!(
                json::parse(&text[..end]).is_err(),
                "{} cut at byte {end} parsed",
                path.display()
            );
        }
        files += 1;
    }
    assert!(
        files >= 9,
        "expected every BENCH_*.json baseline, found {files}"
    );
}

/// SplitMix64: one random word per call.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A string mixing what the writer must escape with what it must not.
fn text(state: &mut u64) -> String {
    const CHARS: [char; 14] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '☃', '😀',
    ];
    let len = next(state) % 12;
    (0..len)
        .map(|_| CHARS[(next(state) % 14) as usize])
        .collect()
}

/// A random value nested at most `depth` more levels.
fn value(state: &mut u64, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match next(state) % kinds {
        0 => Value::Null,
        1 => Value::Bool(next(state).is_multiple_of(2)),
        2 => Value::Int(match next(state) % 3 {
            0 => u64::MAX.into(),
            1 => i128::from(next(state)),
            _ => i128::from(next(state) as i64),
        }),
        3 => {
            let x = f64::from_bits(next(state));
            Value::Float(if x.is_finite() { x } else { -0.0 })
        }
        4 | 5 => Value::Str(text(state)),
        6 => (0..next(state) % 4)
            .map(|_| value(state, depth - 1))
            .collect(),
        _ => Value::Object(
            (0..next(state) % 4)
                .map(|_| (text(state), value(state, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_values_parse_back_to_themselves(seed in any::<u64>()) {
        let mut state = seed;
        let v = value(&mut state, 4);
        prop_assert_eq!(json::parse(&v.to_string()), Ok(v));
    }
}
