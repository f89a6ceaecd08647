//! Property tests for the fleet telemetry layer (DESIGN.md §2.17):
//! thread-count invariance of the series exports byte-for-byte, the
//! observer property (telemetry on changes nothing the simulation
//! produces), export stability, and the shape of the recorded series.

use mcommerce::core::{CachePolicy, Category, FleetRun, FleetRunner, Scenario, Topology};
use mcommerce::obs::json;
use mcommerce::obs::Telemetry;
use mcommerce::simnet::SimDuration;

fn crowd(users: u64) -> Scenario {
    Scenario::new("telemetry")
        .app(Category::Entertainment)
        .users(users)
        .sessions_per_user(2)
        .think_time(2.0)
        .seed(23)
        .cache(CachePolicy::standard().ttl(SimDuration::from_secs(3600)))
}

fn telemetry_run(scenario: &Scenario, topology: Topology, threads: usize) -> FleetRun {
    FleetRunner::new(scenario.clone())
        .topology(topology)
        .threads(threads)
        .telemetry(true)
        .run()
}

fn series(run: &FleetRun) -> &Telemetry {
    run.timeseries.as_ref().expect("telemetry was enabled")
}

#[test]
fn series_exports_are_byte_identical_across_thread_counts() {
    // Several islands so the thread sweep actually exercises the
    // canonical merge: 6 cells → 3 gateways → 3 hosts.
    let topo = Topology::shared().cells(6).gateways(3).hosts(3);
    let scenario = crowd(24);
    let runs: Vec<FleetRun> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| telemetry_run(&scenario, topo, t))
        .collect();
    let reference = series(&runs[0]);
    assert!(!reference.is_empty(), "the crowd must record some series");
    for run in &runs[1..] {
        assert_eq!(
            reference.to_jsonl(),
            series(run).to_jsonl(),
            "JSONL series must not depend on thread count"
        );
        assert_eq!(
            reference.chrome_counter_events(),
            series(run).chrome_counter_events(),
            "counter tracks must not depend on thread count"
        );
    }
}

#[test]
fn telemetry_is_a_pure_observer() {
    // The same traced world with telemetry off and on: summary,
    // contention stats and the full JSONL trace must be bit-identical —
    // instrumentation never feeds back into the simulation.
    let topo = Topology::shared().cells(4).gateways(2).hosts(2);
    let scenario = crowd(12);
    let off = FleetRunner::new(scenario.clone())
        .topology(topo)
        .threads(2)
        .traced(true)
        .run();
    let on = FleetRunner::new(scenario)
        .topology(topo)
        .threads(2)
        .traced(true)
        .telemetry(true)
        .run();
    assert_eq!(off.report.summary, on.report.summary);
    assert_eq!(off.contention, on.contention);
    assert_eq!(
        off.trace.expect("traced").to_jsonl(),
        on.trace.expect("traced").to_jsonl(),
        "the event trace must not see the telemetry layer"
    );
    assert!(off.timeseries.is_none());
    assert!(on.timeseries.is_some());
}

#[test]
fn exports_are_stable_and_reruns_are_identical() {
    let topo = Topology::shared();
    let scenario = crowd(8);
    let run = telemetry_run(&scenario, topo, 2);
    let again = telemetry_run(&scenario, topo, 2);
    let t = series(&run);
    // Pure functions of the bins: repeated calls are byte-identical.
    assert_eq!(t.to_jsonl(), t.to_jsonl());
    assert_eq!(t.chrome_counter_events(), t.chrome_counter_events());
    // And a rerun of the same seed reproduces them byte-for-byte.
    assert_eq!(t.to_jsonl(), series(&again).to_jsonl());
}

#[test]
fn every_shared_resource_registers_its_series() {
    let run = telemetry_run(&crowd(8), Topology::shared(), 2);
    let t = series(&run);
    let names: Vec<&str> = t.names().collect();
    for expected in [
        "cell0000.airtime_util",
        "gateway0000.cache_hit_rate",
        "gateway0000.cpu_util",
        "host0000.cpu_util",
        "host0000.queue_depth",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    // Canonical order is lexicographic — the merge contract.
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "names() must come out in canonical order");
    // The busy world actually moved the needle somewhere.
    assert!(t.peak_milli("cell0000.airtime_util").unwrap_or(0) > 0);
}

#[test]
fn jsonl_lines_parse_and_match_the_series_schema() {
    let run = telemetry_run(&crowd(8), Topology::shared(), 2);
    let jsonl = series(&run).to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let row = json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        assert!(row["series"].as_str().is_some(), "bad line: {line}");
        for field in ["kind", "t_ns", "bin_ns", "sum", "weight", "max", "milli"] {
            assert!(row.get(field).is_some(), "line missing {field}: {line}");
        }
    }
}

#[test]
fn chrome_counter_events_carry_counter_phase_and_values() {
    let run = telemetry_run(&crowd(8), Topology::shared(), 2);
    let events = series(&run).chrome_counter_events();
    assert!(!events.is_empty());
    for event in &events {
        let doc = json::parse(event).unwrap_or_else(|e| panic!("bad event {event}: {e}"));
        assert_eq!(doc["ph"].as_str(), Some("C"), "not a counter: {event}");
        assert!(doc["args"]["value"].as_f64().is_some(), "no value: {event}");
    }
}
