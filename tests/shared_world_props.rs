//! Property tests for the shared-world contention engine (DESIGN.md
//! §2.15): thread-count invariance of summaries *and* traces, exact
//! equivalence between a one-user shared world and the per-user
//! reference world, correlated faults behind a shared gateway, and the
//! knee — p99 latency rising with population on fixed infrastructure.

use mcommerce::core::{
    CachePolicy, Category, FleetRun, FleetRunner, MiddlewareKind, Placement, RecorderKind,
    Scenario, Topology, WorkloadCounters,
};
use mcommerce::faults::{FaultKind, FaultPlan, RetryPolicy};
use mcommerce::hostsite::db::DurabilityPolicy;
use mcommerce::simnet::SimDuration;

fn shared_run(scenario: &Scenario, topology: Topology, threads: usize) -> FleetRun {
    FleetRunner::new(scenario.clone())
        .topology(topology)
        .threads(threads)
        .run()
}

fn crowd(users: u64) -> Scenario {
    Scenario::new("shared")
        .app(Category::Entertainment)
        .users(users)
        .sessions_per_user(2)
        .think_time(2.0)
        .seed(23)
}

#[test]
fn shared_world_is_byte_identical_across_thread_counts() {
    // Several islands so the thread sweep actually exercises sharding:
    // 6 cells → 3 gateways → 3 hosts.
    let topo = Topology::shared().cells(6).gateways(3).hosts(3);
    let scenario = crowd(24);
    let runs: Vec<FleetRun> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| shared_run(&scenario, topo, t))
        .collect();
    for run in &runs[1..] {
        assert_eq!(
            runs[0].report.summary, run.report.summary,
            "summary must not depend on thread count"
        );
        assert_eq!(
            runs[0].contention, run.contention,
            "contention stats must not depend on thread count"
        );
    }
}

#[test]
fn shared_world_traces_are_byte_identical_across_thread_counts() {
    let topo = Topology::shared().cells(4).gateways(2).hosts(2);
    let scenario = crowd(12);
    let traces: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            FleetRunner::new(scenario.clone())
                .topology(topo)
                .threads(t)
                .traced(true)
                .run()
                .trace
                .expect("traced run carries a trace")
                .to_jsonl()
        })
        .collect();
    for trace in &traces[1..] {
        assert_eq!(&traces[0], trace, "JSONL trace must be thread-invariant");
    }
}

#[test]
fn one_user_shared_world_reproduces_the_legacy_world_exactly() {
    // One user on shared infrastructure never queues, so every wait is
    // exactly zero and the world must be the user's private one bit for
    // bit: the isolated topology's, and the per-user reference's —
    // summaries, counters and traces alike.
    for category in [Category::Commerce, Category::Entertainment] {
        let scenario = Scenario::new("degenerate")
            .app(category)
            .users(1)
            .sessions_per_user(3)
            .think_time(1.5)
            .seed(47);
        let isolated = FleetRunner::new(scenario.clone()).traced(true).run();
        let mut reference = WorkloadCounters::default();
        let reference_trace = scenario.run_user_traced(0, &mut reference);
        let shared = FleetRunner::new(scenario)
            .topology(Topology::shared())
            .traced(true)
            .run();
        assert_eq!(
            isolated.report.summary, shared.report.summary,
            "{category}: 1-user shared summary must equal isolated"
        );
        assert_eq!(
            shared.report.summary.workload.counters, reference,
            "{category}: 1-user shared counters must equal run_user_traced"
        );
        let shared_trace = shared.trace.unwrap().to_jsonl();
        assert_eq!(
            isolated.trace.unwrap().to_jsonl(),
            shared_trace,
            "{category}: 1-user shared trace must equal isolated"
        );
        assert_eq!(
            mcommerce::obs::export::to_jsonl(&reference_trace.events),
            shared_trace,
            "{category}: 1-user shared trace must equal run_user_traced"
        );
        let stats = shared.contention.expect("shared run reports contention");
        assert_eq!(stats.total_wait_ns(), 0, "one user never waits");
        assert_eq!(stats.contended_transactions, 0);
    }
}

#[test]
fn shared_gateway_outage_strikes_the_whole_population_at_once() {
    // All users think in lockstep from t = 0, so a plan window covers
    // every user's transaction attempts in the same sim-time interval —
    // the correlated-failure story a shared gateway implies.
    let outage = FaultPlan::none().window(
        SimDuration::from_secs(1),
        SimDuration::from_secs(3600),
        FaultKind::GatewayOutage,
    );
    let scenario = crowd(8).sessions_per_user(2).think_time(5.0).faults(outage);
    let run = shared_run(&scenario, Topology::shared(), 2);
    let workload = &run.report.summary.workload;
    // First session starts before the window opens; the second (after
    // 5 s of think time) lands inside it for every single user.
    assert!(
        workload.succeeded < workload.attempted,
        "the outage must fail transactions"
    );
    let failed = workload.attempted - workload.succeeded;
    assert_eq!(
        failed % 8,
        0,
        "a shared outage is correlated: it fails the same steps for all \
         8 users, so failures come in population-sized multiples (got {failed})"
    );
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn many_user_islands_under_faults_keep_their_recorded_digest() {
    // Four islands of eight search-heavy shoppers, each island behind
    // its own host, in a fault storm. Its `DbCrash` one-shot crashes the
    // island's host, so the journal replay refuses service, the retry
    // policy backs off and re-drives the refused attempts, and gateway
    // faults fall back to the textual middleware. Every cache tier and
    // a priced WAL are on. The digest was recorded when each user's
    // whole system had the island's host and gateway cache swapped into
    // it around every transaction, so it pins which host a crash hits,
    // and the retry and fallback paths, on many-user islands.
    const DIGEST: u64 = 0x40be_49d3_2d86_2046;
    let scenario = Scenario::new("faulted islands")
        .app(Category::Commerce)
        .search_heavy(true)
        .users(32)
        .sessions_per_user(3)
        .think_time(4.0)
        .seed(19)
        .faults(FaultPlan::storm(5, SimDuration::from_secs(15), 1.5))
        .retry(RetryPolicy::standard())
        .fallback_middleware(MiddlewareKind::WapTextual)
        .cache(CachePolicy::standard())
        .durability(DurabilityPolicy::new(4, 250_000));
    let topology = Topology::shared().cells(8).gateways(4).hosts(4);
    for threads in [1usize, 2, 4, 8] {
        let run = FleetRunner::new(scenario.clone())
            .topology(topology)
            .threads(threads)
            .traced(true)
            .run();
        let counters = &run.report.summary.workload.counters;
        let stats = run.contention.expect("shared runs report contention");
        assert_eq!(stats.islands, 4);
        // Every refused attempt dumps the flight recorder.
        let dumps = run.trace.expect("traced run carries a trace").dumps;
        let refused = dumps
            .iter()
            .filter(|d| d.reason.contains("host database recovering"))
            .count();
        assert!(refused > 0, "no attempt met a recovering host");
        assert!(counters.retries > 0, "nothing was retried");
        let digest = fnv1a(format!("{counters:?}{stats:?}").as_bytes());
        assert_eq!(digest, DIGEST, "{threads} thread(s): digest {digest:#018x}");
    }
}

#[test]
fn the_contention_walk_keeps_its_recorded_stats_and_series() {
    // The faulted islands above with telemetry on: every shared server
    // of an island — its cells, its gateway's CPU, the host's CPU and a
    // priced WAL — queues transactions, and its busy series, the host's
    // queue depth and the gateways' cache hit rates are exported. The
    // digests pin the contention stats, the JSONL series and the Chrome
    // counter events byte for byte.
    const DIGESTS: [u64; 3] = [
        0xf765_b6d7_9763_4160,
        0x9468_87da_cb6f_a9ae,
        0x3519_4fea_b8df_ac63,
    ];
    let scenario = Scenario::new("faulted islands")
        .app(Category::Commerce)
        .search_heavy(true)
        .users(32)
        .sessions_per_user(3)
        .think_time(4.0)
        .seed(19)
        .faults(FaultPlan::storm(5, SimDuration::from_secs(15), 1.5))
        .retry(RetryPolicy::standard())
        .fallback_middleware(MiddlewareKind::WapTextual)
        .cache(CachePolicy::standard())
        .durability(DurabilityPolicy::new(4, 250_000));
    let topology = Topology::shared().cells(8).gateways(4).hosts(4);
    for threads in [1usize, 4] {
        let run = FleetRunner::new(scenario.clone())
            .topology(topology)
            .threads(threads)
            .telemetry(true)
            .run();
        let stats = run.contention.expect("shared runs report contention");
        let series = run.timeseries.expect("telemetry was enabled");
        assert!(stats.cell_wait_ns > 0, "no cell wait: {stats:?}");
        assert!(stats.gateway_wait_ns > 0, "no gateway wait: {stats:?}");
        assert!(stats.host_wait_ns > 0, "no host wait: {stats:?}");
        let wal_busy_ns = (0..4)
            .filter_map(|host| series.totals(&format!("host{host:04}.wal_util")))
            .map(|(busy_ns, _)| busy_ns)
            .sum::<u64>();
        assert!(wal_busy_ns > 0, "the WAL never served");
        let digests = [
            fnv1a(format!("{stats:?}").as_bytes()),
            fnv1a(series.to_jsonl().as_bytes()),
            fnv1a(series.chrome_counter_events().concat().as_bytes()),
        ];
        assert_eq!(
            digests, DIGESTS,
            "{threads} thread(s): digests {digests:#018x?}"
        );
    }
}

#[test]
fn contention_waits_grow_with_population_on_fixed_infrastructure() {
    // The paper's heavy-traffic concern, as a property: more stations
    // behind one cell + gateway + host ⇒ more queueing, higher p99.
    let topo = Topology::shared();
    let mut last_wait = 0u64;
    let mut last_p99 = 0.0f64;
    for users in [1u64, 8, 32] {
        let run = shared_run(&crowd(users), topo, 2);
        let stats = run.contention.expect("contention stats");
        let p99 = run
            .report
            .summary
            .workload
            .counters
            .latency_percentile(99.0);
        assert!(
            stats.total_wait_ns() >= last_wait,
            "{users} users: total wait {} must not drop below {}",
            stats.total_wait_ns(),
            last_wait
        );
        assert!(
            p99 >= last_p99,
            "{users} users: p99 {p99} must not drop below {last_p99}"
        );
        last_wait = stats.total_wait_ns();
        last_p99 = p99;
    }
    assert!(last_wait > 0, "32 users on one cell must actually contend");
}

#[test]
fn placement_changes_the_load_split_but_not_the_totals_shape() {
    // Round-robin and blocked placement both run the same population to
    // completion; only which cell/island each user lands in differs.
    let topo = Topology::shared().cells(4).gateways(2).hosts(2);
    let scenario = crowd(16);
    let rr = shared_run(&scenario, topo, 2);
    let blocked = shared_run(&scenario, topo.placement(Placement::Blocked), 2);
    assert_eq!(
        rr.report.summary.workload.attempted,
        blocked.report.summary.workload.attempted
    );
    assert_eq!(rr.report.summary.workload.success_rate(), 1.0);
    assert_eq!(blocked.report.summary.workload.success_rate(), 1.0);
}

#[test]
fn disabled_recorder_matches_ring_summary_in_shared_worlds() {
    let topo = Topology::shared().cells(2).gateways(2).hosts(2);
    let scenario = crowd(8);
    let ring = FleetRunner::new(scenario.clone())
        .topology(topo)
        .traced(true)
        .run();
    let metrics_only = FleetRunner::new(scenario)
        .topology(topo)
        .traced(true)
        .recorder(RecorderKind::Disabled)
        .run();
    assert_eq!(ring.report.summary, metrics_only.report.summary);
    let quiet = metrics_only.trace.expect("traced");
    assert!(quiet.events.is_empty());
    assert!(quiet.metrics.counter("station.transactions") > 0);
}

#[test]
fn the_registry_counts_each_failed_transaction_once() {
    // 100 shoppers buying from one shared host sell out its scarcest
    // item, so the host refuses the late purchases: failures that run
    // the whole transaction path before they are counted.
    let scenario = Scenario::new("sell-out")
        .app(Category::Commerce)
        .search_heavy(true)
        .users(100)
        .sessions_per_user(2)
        .seed(1201);
    let run = FleetRunner::new(scenario)
        .topology(Topology::shared())
        .threads(1)
        .traced(true)
        .recorder(RecorderKind::Disabled)
        .run();
    let counters = &run.report.summary.workload.counters;
    let failed = counters.attempted - counters.succeeded;
    assert!(failed > 0, "no purchase was refused: {:?}", counters.failures);
    let trace = run.trace.expect("traced run carries a trace");
    assert_eq!(trace.metrics.counter("station.txn_failures"), failed);
}
