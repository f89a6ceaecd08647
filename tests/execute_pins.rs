//! Recorded digests of the transaction path (`UserSide::execute` and its
//! retry loop), byte for byte: the reports, the trace events and the
//! flight-recorder dumps.
//!
//! Two recordings, both FNV-1a 64:
//!
//! * a secure, faulted fleet of many-user islands — WTLS handshakes and
//!   sealed records, outages, loss bursts, gateway and transcoder faults
//!   with a fallback middleware, a crashing host, retries with backoff,
//!   and every cache tier — at 1 and 4 threads;
//! * a hand-driven [`McSystem`] script through the branches that fleet
//!   never takes: out of coverage, a host error status, a render that
//!   fails on a small device, a gateway-cache hit, requests carrying the
//!   station's cookie jar, ARQ exhaustion on the uplink and on the
//!   downlink, a battery that dies mid-transaction and a station refused
//!   for an exhausted battery.
//!
//! The script's reports are rendered in ns and nJ, so its constants do
//! not depend on how a time is stored; they were recorded before
//! reported time became integer nanoseconds. The secure fleet's were
//! recorded with integer time. A change that moves any of them changes
//! what a transaction reports.

use mcommerce::core::{
    CachePolicy, Category, CommerceSystem, FleetRunner, McSystem, MiddlewareKind, Scenario,
    SystemSpec, Topology, WiredPath, WirelessConfig,
};
use mcommerce::faults::{FaultKind, FaultPlan, RetryPolicy};
use mcommerce::hostsite::db::DurabilityPolicy;
use mcommerce::hostsite::{db::Database, HostComputer, HttpRequest, HttpResponse, ServerCtx};
use mcommerce::markup::html;
use mcommerce::middleware::MobileRequest;
use mcommerce::obs::Recorder;
use mcommerce::simnet::time::secs_to_ns;
use mcommerce::simnet::SimDuration;
use mcommerce::station::DeviceProfile;
use mcommerce::wireless::WlanStandard;

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn secure_faulted_islands_keep_their_recorded_bytes() {
    // `many_user_islands_under_faults_keep_their_recorded_digest`'s
    // scenario (tests/shared_world_props.rs) with WTLS on.
    const COUNTERS: u64 = 0xd8e6_1623_05db_4f83;
    const TRACE: u64 = 0x2c93_bb89_d2f3_e217;
    const DUMPS: u64 = 0x7c1d_8c2c_1f87_27ab;
    let scenario = Scenario::new("faulted islands")
        .app(Category::Commerce)
        .search_heavy(true)
        .users(32)
        .sessions_per_user(3)
        .think_time(4.0)
        .seed(19)
        .secure(true)
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
            .traced(true)
            .run();
        let counters = &run.report.summary.workload.counters;
        let stats = run.contention.expect("shared runs report contention");
        let trace = run.trace.expect("traced run carries a trace");
        let digests = [
            fnv1a(format!("{counters:?}{stats:?}").as_bytes()),
            fnv1a(trace.to_jsonl().as_bytes()),
            fnv1a(format!("{:?}", trace.dumps).as_bytes()),
        ];
        assert_eq!(
            digests,
            [COUNTERS, TRACE, DUMPS],
            "{threads} thread(s): digests {digests:#018x?}"
        );
    }
}

/// A host serving a cookie at `/hello`, a small page at `/` and a page at
/// `/big` too large for a Palm's content budget; every other path is a
/// 404.
fn host() -> HostComputer {
    let mut host = HostComputer::new(Database::new(), 31);
    host.web
        .route_get("/hello", |_: &HttpRequest, _: &mut ServerCtx<'_>| {
            let mut page = html::PageWriter::new("Hello");
            page.p("hello");
            HttpResponse::ok(page.finish()).with_cookie("visited", "1")
        });
    host.web.static_page(
        "/",
        html::page("Store", vec![html::p("open for business").into()]).to_markup(),
    );
    let rows = (0..300)
        .map(|i| html::p(&format!("Row {i} of an enormous report page")).into())
        .collect();
    host.web
        .static_page("/big", html::page("Big", rows).to_markup());
    host
}

fn wifi() -> WirelessConfig {
    WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m: 20.0,
    }
}

/// Runs `paths` in order on `sys`, appending a line per report: the
/// latency and the five shares in ns, the energy in nJ, the air bytes,
/// retransmissions, verdict, failure, outcome and attempts.
fn drive(sys: &mut McSystem, paths: &[&str], log: &mut String) {
    for path in paths {
        let r = sys.execute(&MobileRequest::get(path));
        let b = &r.breakdown;
        log.push_str(&format!(
            "{path}: {} [{} {} {} {} {}] {} nJ, {}/{} B, {} rtx, {} {:?} {:?} x{}\n",
            r.total().as_nanos(),
            b.station.as_nanos(),
            b.wireless.as_nanos(),
            b.middleware.as_nanos(),
            b.wired.as_nanos(),
            b.host.as_nanos(),
            secs_to_ns(r.energy_j),
            r.air_bytes_up,
            r.air_bytes_down,
            r.retransmissions,
            r.success,
            r.failure,
            r.outcome,
            r.attempts,
        ));
    }
}

/// A loss burst of `ber` over the whole script.
fn burst(ber: f64) -> FaultPlan {
    FaultPlan::none().window(
        SimDuration::ZERO,
        SimDuration::from_secs(3600),
        FaultKind::LossBurst { ber },
    )
}

#[test]
fn single_system_branches_keep_their_recorded_bytes() {
    const REPORTS: u64 = 0xd490_5ad0_a4d7_ab54;
    const TRACE: u64 = 0x271f_9214_311c_9a6c;
    let mut sys = SystemSpec::new()
        .device(DeviceProfile::palm_i705())
        .wireless(wifi())
        .wired(WiredPath::wan())
        .seed(37)
        .cache(CachePolicy::standard())
        .build(host());
    sys.set_recorder(Recorder::ring_for_user(0));
    let mut log = String::new();
    // A cookie for every later request, a miss that stores the deck, a
    // hit, a 404 and a failed render.
    drive(
        &mut sys,
        &["/hello", "/", "/", "/missing", "/big"],
        &mut log,
    );
    // Out of coverage, then back.
    sys.set_wireless(WirelessConfig::Wlan {
        standard: WlanStandard::Bluetooth,
        distance_m: 100.0,
    });
    drive(&mut sys, &["/"], &mut log);
    sys.set_wireless(wifi());
    // A loss burst bad enough to exhaust ARQ on the small uplink, then
    // one that lets the uplink through but not the larger downlink.
    sys.set_fault_plan(burst(1e-2));
    drive(&mut sys, &["/missing"], &mut log);
    sys.set_fault_plan(burst(2e-3));
    drive(&mut sys, &["/big"], &mut log);
    sys.set_fault_plan(FaultPlan::none());
    // Leave the battery a sliver: the next transaction dies part way,
    // and the one after it is refused at the station.
    let remaining = sys.station.battery.remaining_j();
    assert!(sys.station.battery.drain(remaining - 1e-6));
    drive(&mut sys, &["/missing", "/"], &mut log);
    let (events, dumps) = sys.take_recorder().into_parts();
    let trace = format!("{}{dumps:?}", mcommerce::obs::export::to_jsonl(&events));
    let digests = [fnv1a(log.as_bytes()), fnv1a(trace.as_bytes())];
    assert_eq!(digests, [REPORTS, TRACE], "digests {digests:#018x?}\n{log}");
}
