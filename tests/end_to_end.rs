//! Integration tests spanning the whole workspace: full six-component
//! transactions across middleware × device × network matrices, secure
//! payment flows, and EC/MC parity.

use mcommerce::core::apps::{all_apps, Application, PaymentsApp, TravelApp};
use mcommerce::core::workload::{run_session, run_workload};
use mcommerce::core::{
    Category, CommerceSystem, EcSystem, FleetRunner, MiddlewareKind, Scenario, SystemSpec,
    WiredPath, WirelessConfig,
};
use mcommerce::hostsite::db::Database;
use mcommerce::hostsite::HostComputer;
use mcommerce::middleware::{IModeService, MobileRequest};
use mcommerce::station::DeviceProfile;
use mcommerce::wireless::{CellularStandard, WlanStandard};

fn host_with(apps: &[&dyn Application], seed: u64) -> HostComputer {
    let mut host = HostComputer::new(Database::new(), seed);
    for app in apps {
        app.install(&mut host);
    }
    host
}

fn wifi(distance: f64) -> WirelessConfig {
    WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m: distance,
    }
}

#[test]
fn full_matrix_of_middleware_devices_and_networks() {
    // Every combination must complete the payment workflow — the paper's
    // interoperability requirement across its own technology survey.
    let devices = [
        DeviceProfile::ipaq_h3870(),
        DeviceProfile::nokia_9290(),
        DeviceProfile::palm_i705(),
        DeviceProfile::sony_clie_nr70v(),
        DeviceProfile::toshiba_e740(),
    ];
    let networks = [
        wifi(10.0),
        wifi(90.0),
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11g,
            distance_m: 40.0,
        },
        WirelessConfig::Cellular {
            standard: CellularStandard::Gprs,
        },
        WirelessConfig::Cellular {
            standard: CellularStandard::Edge,
        },
        WirelessConfig::Cellular {
            standard: CellularStandard::Wcdma,
        },
    ];
    let mut combo = 0u64;
    for device in &devices {
        for network in &networks {
            for kind in [MiddlewareKind::Wap, MiddlewareKind::IMode] {
                combo += 1;
                let scenario = Scenario::new("matrix")
                    .app(Category::Commerce)
                    .middleware(kind)
                    .device(device.clone())
                    .wireless(*network)
                    .sessions_per_user(2)
                    .seed(1000 + combo);
                let summary = FleetRunner::new(scenario).run().report.summary.workload;
                assert_eq!(
                    summary.succeeded,
                    summary.attempted,
                    "{} × {} × {} failed",
                    kind,
                    device.name,
                    network.name()
                );
            }
        }
    }
    assert_eq!(combo, 60);
}

#[test]
fn all_eight_applications_share_one_host_database() {
    let apps = all_apps();
    let mut host = HostComputer::new(Database::new(), 5);
    for app in &apps {
        app.install(&mut host);
    }
    // Eight applications provisioned 14+ tables side by side.
    assert!(host.web.db().table_names().len() >= 12);

    let mut system = SystemSpec::new()
        .middleware(MiddlewareKind::Wap)
        .device(DeviceProfile::toshiba_e740())
        .wireless(wifi(15.0))
        .wired(WiredPath::wan())
        .seed(6)
        .build(host);
    for app in &apps {
        let summary = run_workload(&mut system, app.as_ref(), 3, 7);
        assert!(
            summary.success_rate() > 0.95,
            "{} failed: {:.0}%",
            app.category(),
            summary.success_rate() * 100.0
        );
    }
}

#[test]
fn ec_and_mc_run_the_identical_application_code() {
    // Program independence across *system* variants: the same installed
    // application serves desktop EC clients and mobile MC clients.
    let app = TravelApp;
    let mut ec = EcSystem::new(host_with(&[&app], 8), WiredPath::wan());
    let mut mc = SystemSpec::new()
        .middleware(MiddlewareKind::IMode)
        .device(DeviceProfile::nokia_9290())
        .wireless(wifi(30.0))
        .wired(WiredPath::wan())
        .seed(9)
        .build(host_with(&[&app], 8));
    let ec_summary = run_workload(&mut ec, &app, 6, 10);
    let mc_summary = run_workload(&mut mc, &app, 6, 10);
    assert_eq!(ec_summary.succeeded, ec_summary.attempted);
    assert_eq!(mc_summary.succeeded, mc_summary.attempted);
    // Mobile pays for mobility with latency and battery.
    assert!(mc_summary.latency_mean > ec_summary.latency_mean);
    assert!(mc_summary.energy_mean_j > 0.0);
    assert_eq!(ec_summary.energy_mean_j, 0.0);
}

#[test]
fn secure_payment_rejects_replay_through_the_whole_stack() {
    let mut system = Scenario::new("replay")
        .app(Category::Commerce)
        .wireless(wifi(20.0))
        .seed(12)
        .system_for_user(0);
    let buy = |nonce: &str| {
        MobileRequest::post(
            "/shop/buy",
            vec![("sku".into(), "1".into()), ("nonce".into(), nonce.into())],
        )
    };
    let first = system.execute(&buy("555"));
    assert!(first.success, "{:?}", first.failure);
    let replay = system.execute(&buy("555"));
    assert!(
        !replay.success,
        "replayed payment must be refused end to end"
    );
    let fresh = system.execute(&buy("556"));
    assert!(fresh.success);
}

#[test]
fn session_state_survives_across_the_wap_gateway() {
    // Cookies set by the host travel through the gateway, live in the
    // station's jar, and return on subsequent requests.
    let mut host = HostComputer::new(Database::new(), 13);
    host.web.route_get(
        "/counter",
        |_req: &mcommerce::hostsite::HttpRequest, ctx: &mut mcommerce::hostsite::ServerCtx<'_>| {
            let n: i64 = ctx
                .session
                .get("n")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
                + 1;
            ctx.session.insert("n".into(), n.to_string());
            mcommerce::hostsite::HttpResponse::ok(
                mcommerce::markup::html::page(
                    "Counter",
                    vec![mcommerce::markup::html::p(&format!("visit number {n}")).into()],
                )
                .to_markup(),
            )
        },
    );
    let mut system = SystemSpec::new()
        .middleware(MiddlewareKind::Wap)
        .device(DeviceProfile::sony_clie_nr70v())
        .wireless(wifi(10.0))
        .wired(WiredPath::lan())
        .seed(14)
        .build(host);
    for expected in 1..=4 {
        let report = system.execute(&MobileRequest::get("/counter"));
        assert!(report.success);
        let outcome = report.outcome.expect("successful render carries an outcome");
        assert_eq!(&*outcome.title, "Counter");
        assert!(
            outcome
                .page_text
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
                .contains(&format!("visit number {expected}")),
            "visit {expected}: {:?}",
            outcome.page_text
        );
    }
}

#[test]
fn workload_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let app = PaymentsApp::new();
        let mut system = SystemSpec::new()
            .middleware(MiddlewareKind::Wap)
            .device(DeviceProfile::palm_i705())
            .wireless(wifi(97.0)) // lossy enough that the RNG matters
            .wired(WiredPath::wan())
            .seed(seed)
            .build(host_with(&[&app], 15));
        let mut timings = Vec::new();
        for index in 0..6 {
            let steps = app.session(3, index);
            let reports = run_session(&mut system, &steps);
            timings.extend(reports.iter().map(|r| r.total().as_nanos()));
        }
        timings
    };
    assert_eq!(run(1), run(1), "same seed, same virtual timings");
    assert_ne!(run(1), run(2), "different seed, different loss pattern");
}

#[test]
fn devices_rank_consistently_on_the_same_workload() {
    // Table 2 made executable: the 33 MHz Palm is slower end-to-end than
    // the 400 MHz Toshiba on identical content and network.
    let mut latencies = Vec::new();
    for device in [
        DeviceProfile::palm_i705(),
        DeviceProfile::ipaq_h3870(),
        DeviceProfile::toshiba_e740(),
    ] {
        let scenario = Scenario::new("rank")
            .app(Category::Travel)
            .device(device)
            .wireless(wifi(15.0))
            .wired(WiredPath::lan())
            .sessions_per_user(6)
            .seed(18);
        let summary = FleetRunner::new(scenario).run().report.summary.workload;
        assert_eq!(summary.succeeded, summary.attempted);
        latencies.push(summary.latency_mean);
    }
    assert!(latencies[0] > latencies[1], "Palm i705 slower than iPAQ");
    assert!(latencies[1] > latencies[2], "iPAQ slower than Toshiba E740");
}

#[test]
fn content_negotiation_lets_imode_pass_native_chtml_through() {
    // §7's content negotiation: the travel search page is authored in
    // cHTML when the client asks for it, so the i-mode service ships it
    // without running its filter.
    use mcommerce::middleware::Middleware;
    let app = TravelApp;
    let mut host = host_with(&[&app], 91);
    let mut imode = IModeService::new();
    let ex = imode.exchange(&mut host, &MobileRequest::get("/travel/search?from=ATL"));
    assert_eq!(
        imode.filtered_pages.get(),
        0,
        "native cHTML needs no filtering"
    );
    let doc = mcommerce::markup::parse::parse(std::str::from_utf8(&ex.content).unwrap()).unwrap();
    mcommerce::markup::chtml::validate(&doc).unwrap();
    // A page with no negotiation (the booking confirmation) still gets
    // filtered on demand.
    let _ = imode.exchange(
        &mut host,
        &MobileRequest::post(
            "/travel/book",
            vec![
                ("flight".into(), "100".into()),
                ("passenger".into(), "neg".into()),
            ],
        ),
    );
    assert_eq!(
        imode.filtered_pages.get(),
        0,
        "plain pages are already compact"
    );
}
