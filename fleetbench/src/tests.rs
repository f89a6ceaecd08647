//! The benchmark's self-tests: run with
//! `cargo test --release --offline --manifest-path fleetbench/Cargo.toml`.

use std::sync::Mutex;

use super::*;

/// Serialises the tests that switch the global allocation counters on.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting_lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(name, unit)` pairs of one `BENCHMARK.json` section, in file order.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark's directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let string_after = |s: &str, key: &str| -> Option<String> {
        let at = s.find(&format!("\"{key}\""))?;
        let rest = &s[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_owned())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                string_after(entry, "name").expect("entry has a name"),
                string_after(entry, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let end_to_end: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(declared("end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = metrics::PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);

    // What a traced pass prints is exactly the declared list, in order.
    let _serial = counting_lock();
    let w = Workload::StorefrontIsolated;
    let run = w
        .runner(0, 8, 1)
        .traced(true)
        .recorder(RecorderKind::Disabled)
        .run();
    let replay = replay::run(&w.scenario(0, 8), 8);
    let values = metrics::per_layer(&metrics::Traced {
        counters: &run.report.summary.workload.counters,
        registry: &run.trace.as_ref().expect("traced").metrics,
        contention: run.contention.as_ref(),
        allocs: alloc::Snapshot::default(),
        trace_overhead: 1.0,
        replay: &replay,
        replay_is_fleet: true,
    });
    let printed: Vec<&str> = values.iter().map(|v| v.name).collect();
    let declared: Vec<&str> = metrics::PER_LAYER.iter().map(|&(n, _)| n).collect();
    assert_eq!(printed, declared);
    let sim: Vec<&str> = metrics::sim_end_to_end(&run.report.summary.workload.counters)
        .iter()
        .map(|v| v.name)
        .collect();
    let declared: Vec<&str> = metrics::END_TO_END[3..].iter().map(|&(n, _)| n).collect();
    assert_eq!(sim, declared);
}

#[test]
fn replay_reproduces_the_fleet_on_a_tiny_population() {
    let _serial = counting_lock();
    let w = Workload::StorefrontIsolated;
    for seed in [0, 5] {
        let fleet = w.runner(seed, 40, 2).run();
        let replay = replay::run(&w.scenario(seed, 40), 40);
        assert_eq!(replay.counters, fleet.report.summary.workload.counters);
        assert_eq!(replay.execute.calls, 80, "two steps per storefront session");
        assert_eq!(
            replay.exchange.calls, 80,
            "caches off: every step reaches the exchange"
        );
        assert!(replay.execute.ns >= replay.exchange.ns);
        assert!(replay.execute.allocs >= replay.exchange.allocs);
        assert!(replay.build.allocs > 0, "counting is on during the replay");
    }
}

#[test]
fn a_perturbed_counter_fails_the_digest_check() {
    let w = Workload::StorefrontIsolated;
    let users = w.canary_users();
    let seed = w.scenario_seed(0, users);
    let counters = w
        .runner(seed, users, 2)
        .run()
        .report
        .summary
        .workload
        .counters;
    let mut check = Check::new();
    check.against_reference(w, 0, users, &workload::digest(&counters));
    assert!(check.ok, "{:?}", check.notes);

    let mut perturbed = counters.clone();
    perturbed.latency_ns += 1;
    let mut check = Check::new();
    check.against_reference(w, 0, users, &workload::digest(&perturbed));
    assert!(!check.ok, "one nanosecond more must fail the check");
}

#[test]
fn every_workload_succeeds_completely_on_one_island() {
    for w in Workload::ALL {
        let users = if w.is_shared() {
            3 * w.canary_users() / 20
        } else {
            30
        };
        let run = w.runner(w.scenario_seed(3, users), users, 2).run();
        let c = &run.report.summary.workload.counters;
        assert!(c.attempted > 0);
        assert_eq!(c.succeeded, c.attempted, "{}: {:?}", w.name(), c.failures);
        assert_eq!(run.contention.is_some(), w.is_shared());
    }
}

#[test]
fn the_counting_allocator_counts_only_while_enabled() {
    let _serial = counting_lock();
    let before = alloc::snapshot();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(alloc::snapshot(), before);
    let counting = alloc::enable();
    drop(std::hint::black_box(vec![0u8; 64]));
    drop(counting);
    let counted = alloc::snapshot() - before;
    assert!(counted.allocs >= 1 && counted.bytes >= 64);
}
