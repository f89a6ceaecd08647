//! Failure-injection integration tests: the paper's constraints (battery,
//! coverage, memory, loss bursts, crashes) made to bite, and the system's
//! responses verified.

use mcommerce::core::apps::{Application, PaymentsApp};
use mcommerce::core::{CommerceSystem, McSystem, SystemSpec, WiredPath, WirelessConfig};
use mcommerce::hostsite::db::{Database, Value};
use mcommerce::hostsite::HostComputer;
use mcommerce::middleware::MobileRequest;
use mcommerce::simnet::SimDuration;
use mcommerce::station::DeviceProfile;
use mcommerce::wireless::WlanStandard;

fn payment_system(device: DeviceProfile, wireless: WirelessConfig, seed: u64) -> McSystem {
    let app = PaymentsApp::new();
    let mut host = HostComputer::new(Database::new(), seed);
    app.install(&mut host);
    SystemSpec::new()
        .device(device)
        .wireless(wireless)
        .wired(WiredPath::wan())
        .seed(seed)
        .build(host)
}

#[test]
fn battery_exhaustion_stops_service_and_recharge_restores_it() {
    let mut device = DeviceProfile::palm_i705();
    device.battery_j = 0.05;
    let mut system = payment_system(
        device,
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 20.0,
        },
        21,
    );
    let mut failures = 0;
    for _ in 0..500 {
        let r = system.execute(&MobileRequest::get("/shop"));
        if !r.success {
            assert!(r.failure.as_deref().unwrap().contains("battery"));
            failures += 1;
            break;
        }
    }
    assert!(failures > 0, "tiny battery must eventually die");
    // Dead battery fails instantly now.
    let r = system.execute(&MobileRequest::get("/shop"));
    assert!(!r.success);
    // Recharge brings the station back.
    system.station.battery.recharge();
    let r = system.execute(&MobileRequest::get("/shop"));
    assert!(r.success, "{:?}", r.failure);
}

#[test]
fn walking_out_of_coverage_fails_transactions_and_returning_recovers() {
    let mut system = payment_system(
        DeviceProfile::ipaq_h3870(),
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 20.0,
        },
        22,
    );
    assert!(system.execute(&MobileRequest::get("/shop")).success);

    // Walk past the 100 m edge of 802.11b coverage.
    system.set_wireless(WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m: 250.0,
    });
    let r = system.execute(&MobileRequest::get("/shop"));
    assert!(!r.success);
    assert!(r.failure.as_deref().unwrap().contains("no coverage"));

    // Walk back in.
    system.set_wireless(WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m: 60.0,
    });
    assert!(system.execute(&MobileRequest::get("/shop")).success);
}

#[test]
fn oversized_content_fails_on_small_devices_but_not_large() {
    // A page too big for the Palm's content budget (8 KB).
    let build = |device: DeviceProfile| {
        let mut host = HostComputer::new(Database::new(), 23);
        let paragraphs: Vec<mcommerce::markup::Node> = (0..300)
            .map(|i| {
                mcommerce::markup::html::p(&format!(
                    "Row {i} of an enormous report page with plenty of text in it"
                ))
                .into()
            })
            .collect();
        let page = mcommerce::markup::html::page("Big", paragraphs);
        host.web.static_page("/big", page.to_markup());
        SystemSpec::new()
            .device(device)
            .wireless(WirelessConfig::Wlan {
                standard: WlanStandard::Dot11b,
                distance_m: 10.0,
            })
            .wired(WiredPath::wan())
            .seed(24)
            .build(host)
    };
    let mut palm = build(DeviceProfile::palm_i705());
    let r = palm.execute(&MobileRequest::get("/big"));
    assert!(!r.success);
    assert!(
        r.failure.as_deref().unwrap().contains("render failed"),
        "{:?}",
        r.failure
    );

    let mut toshiba = build(DeviceProfile::toshiba_e740());
    let r = toshiba.execute(&MobileRequest::get("/big"));
    assert!(r.success, "{:?}", r.failure);
}

#[test]
fn host_database_crash_recovery_preserves_committed_purchases() {
    // Run purchases, "crash" the host, recover the database from its
    // journal, and verify committed state (stock) survived exactly.
    let app = PaymentsApp::new();
    let mut host = HostComputer::new(Database::new(), 25);
    app.install(&mut host);
    let mut system = SystemSpec::new()
        .device(DeviceProfile::ipaq_h3870())
        .wireless(WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 20.0,
        })
        .wired(WiredPath::wan())
        .seed(26)
        .build(host);
    for nonce in 0..5 {
        let r = system.execute(&MobileRequest::post(
            "/shop/buy",
            vec![
                ("sku".into(), "2".into()),
                ("nonce".into(), nonce.to_string()),
            ],
        ));
        assert!(r.success, "{:?}", r.failure);
    }
    let stock_before = system
        .host
        .web
        .db()
        .get("products", &2.into())
        .unwrap()
        .unwrap()[3]
        .clone();
    assert_eq!(stock_before, Value::Int(55)); // 60 seeded − 5 sold

    // Crash: rebuild a fresh database purely from the journal.
    let journal = system.host.web.db().journal().to_vec();
    let recovered = Database::recover(&journal).expect("journal replays cleanly");
    assert_eq!(
        recovered.get("products", &2.into()).unwrap().unwrap()[3],
        Value::Int(55),
        "committed purchases survive the crash"
    );
    assert_eq!(recovered.len("products").unwrap(), 4);
}

#[test]
fn deep_fringe_coverage_degrades_latency_but_arq_keeps_success_up() {
    // At 95 m the 802.11b link runs at 1 Mbps with BER near 1e-4; ARQ
    // fragments and retransmits, so transactions succeed but cost more.
    let mut near = payment_system(
        DeviceProfile::ipaq_h3870(),
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 10.0,
        },
        27,
    );
    let mut far = payment_system(
        DeviceProfile::ipaq_h3870(),
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 95.0,
        },
        27,
    );
    let mut near_air = SimDuration::ZERO;
    let mut far_air = SimDuration::ZERO;
    let mut far_retx = 0u32;
    for i in 0..10 {
        let r1 = near.execute(&MobileRequest::get("/shop"));
        let r2 = far.execute(&MobileRequest::get("/shop"));
        assert!(r1.success && r2.success, "iteration {i}");
        near_air += r1.breakdown.wireless;
        far_air += r2.breakdown.wireless;
        far_retx += r2.retransmissions;
    }
    // 1 Mbps + heavy BER at the fringe vs 11 Mbps clean near the AP.
    assert!(
        far_air > near_air * 3,
        "fringe air {far_air} vs near {near_air}"
    );
    assert!(far_retx > 0, "fringe ARQ must be working");
}

#[test]
fn out_of_stock_failures_propagate_as_transaction_failures() {
    let mut system = payment_system(
        DeviceProfile::ipaq_h3870(),
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 15.0,
        },
        28,
    );
    // SKU 1 has 40 units; the 41st purchase must fail cleanly.
    for nonce in 0..40 {
        let r = system.execute(&MobileRequest::post(
            "/shop/buy",
            vec![
                ("sku".into(), "1".into()),
                ("nonce".into(), nonce.to_string()),
            ],
        ));
        assert!(r.success, "purchase {nonce}: {:?}", r.failure);
    }
    let r = system.execute(&MobileRequest::post(
        "/shop/buy",
        vec![("sku".into(), "1".into()), ("nonce".into(), "4040".into())],
    ));
    assert!(!r.success);
    assert_eq!(
        system
            .host
            .web
            .db()
            .get("products", &1.into())
            .unwrap()
            .unwrap()[3],
        Value::Int(0),
        "stock never goes negative"
    );
}
