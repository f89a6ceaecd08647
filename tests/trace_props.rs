//! The observability determinism contract, end to end:
//!
//! 1. A fixed-seed traced fleet produces **byte-identical** JSONL and
//!    Chrome-trace exports at any thread count — the recorder inherits
//!    the fleet engine's canonical user-order merge.
//! 2. Tracing only observes: the workload summary matches the untraced
//!    run exactly.
//! 3. Every failed transaction leaves a flight-recorder dump naming the
//!    layer that failed it.
//! 4. Every nanosecond of a transaction's latency is attributed to
//!    exactly one layer: a layer's spans plus its FCFS waits are its
//!    latency sum in the counters, to the nanosecond, and the root spans
//!    plus all the waits are the latency sum.

use std::collections::BTreeMap;

use mcommerce_core::{Category, FleetReport, FleetRunner, FleetTrace, Scenario, Topology};
use obs::{EventKind, Layer};
use wireless::WlanStandard;

// These shims keep the assertions readable while exercising the
// FleetRunner entry point that replaced fleet::run_traced_on.
fn run_on(scenario: &Scenario, threads: usize) -> FleetReport {
    FleetRunner::new(scenario.clone()).threads(threads).run().report
}

fn run_traced_on(scenario: &Scenario, threads: usize) -> (FleetReport, FleetTrace) {
    let run = FleetRunner::new(scenario.clone())
        .threads(threads)
        .traced(true)
        .run();
    (run.report, run.trace.expect("traced run carries a trace"))
}

fn scenario() -> Scenario {
    Scenario::new("trace-props")
        .app(Category::Commerce)
        .users(12)
        .sessions_per_user(2)
        .seed(2003)
}

#[test]
fn fleet_trace_is_byte_identical_across_thread_counts() {
    let scenario = scenario();
    let (_, t1) = run_traced_on(&scenario, 1);
    let (_, t2) = run_traced_on(&scenario, 2);
    let (_, t8) = run_traced_on(&scenario, 8);

    assert!(!t1.events.is_empty(), "traced fleet must produce events");
    let jsonl = t1.to_jsonl();
    assert_eq!(jsonl, t2.to_jsonl(), "JSONL must not depend on threads");
    assert_eq!(jsonl, t8.to_jsonl(), "JSONL must not depend on threads");

    let chrome = t1.to_chrome_json();
    assert_eq!(chrome, t2.to_chrome_json());
    assert_eq!(chrome, t8.to_chrome_json());

    // The merged metrics registry obeys the same contract.
    assert_eq!(t1.metrics, t2.metrics);
    assert_eq!(t1.metrics, t8.metrics);
}

#[test]
fn tracing_does_not_perturb_the_fleet() {
    let scenario = scenario();
    let untraced = run_on(&scenario, 4).summary;
    let (traced, trace) = run_traced_on(&scenario, 4);
    assert_eq!(traced.summary, untraced);
    assert_eq!(
        trace.metrics.counter("station.transactions"),
        untraced.transactions()
    );
}

#[test]
fn failed_transactions_dump_the_flight_recorder() {
    // Out of WLAN range: every transaction fails with "no coverage", and
    // each failure must leave a dump attributed to the wireless layer.
    let dead_zone = scenario().users(3).wireless(
        mcommerce_core::netpath::WirelessConfig::Wlan {
            standard: WlanStandard::Bluetooth,
            distance_m: 50.0,
        },
    );
    let (report, trace) = run_traced_on(&dead_zone, 2);
    let failed = report.summary.workload.attempted - report.summary.workload.succeeded;
    assert!(failed > 0, "dead zone must fail transactions");
    assert_eq!(
        trace.dumps.len(),
        failed,
        "one flight dump per failed transaction"
    );
    for dump in &trace.dumps {
        assert_eq!(dump.layer, obs::Layer::Wireless, "{}", dump.reason);
        assert!(dump.reason.contains("no coverage"), "{}", dump.reason);
    }
}

#[test]
fn every_nanosecond_of_latency_belongs_to_one_layer() {
    let shared = Topology::shared().cells(4).gateways(2).hosts(2);
    for secure in [false, true] {
        let scenario = scenario().secure(secure);
        for (world, topology) in [("isolated", Topology::isolated()), ("shared", shared)] {
            for threads in [1usize, 2, 4, 8] {
                let at = format!("secure {secure}, {world}, {threads} thread(s)");
                let run = FleetRunner::new(scenario.clone())
                    .topology(topology)
                    .threads(threads)
                    .traced(true)
                    .run();
                let counters = &run.report.summary.workload.counters;
                assert_eq!(
                    counters.succeeded, counters.attempted,
                    "{at}: a transaction failed"
                );
                let trace = run.trace.expect("traced run carries a trace");
                assert_eq!(trace.dropped, 0, "{at}: a ring recorder overwrote events");
                let mut spans = BTreeMap::<Layer, u128>::new();
                for e in &trace.events {
                    if e.kind == EventKind::Span && e.name != "retry_backoff" {
                        *spans.entry(e.layer).or_default() += u128::from(e.dur_ns);
                    }
                }
                let span = |layer| spans.get(&layer).copied().unwrap_or_default();
                // Cell → wireless, gateway → middleware, host CPU + WAL →
                // host; an isolated world queues nowhere.
                let (cell, gateway, host) = run.contention.as_ref().map_or((0, 0, 0), |c| {
                    (c.cell_wait_ns, c.gateway_wait_ns, c.host_wait_ns)
                });
                if run.contention.is_some() {
                    assert!(
                        cell + gateway + host > 0,
                        "{at}: the shared world never queued"
                    );
                }
                for (layer, key, wait) in [
                    (Layer::Station, "station", 0),
                    (Layer::Wireless, "wireless", cell),
                    (Layer::Middleware, "middleware", gateway),
                    (Layer::Wired, "wired", 0),
                    (Layer::Host, "host", host),
                ] {
                    assert_eq!(
                        span(layer) + u128::from(wait),
                        counters.component_ns[key],
                        "{at}: {key}'s spans and waits"
                    );
                }
                assert_eq!(
                    span(Layer::Application),
                    counters.latency_ns - u128::from(cell + gateway + host),
                    "{at}: root spans"
                );
            }
        }
    }
}
