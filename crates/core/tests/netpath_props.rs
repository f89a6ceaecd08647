//! Property tests over the hop cost models in `netpath` and robustness of
//! the end-to-end system against arbitrary request paths.

use proptest::prelude::*;

use mcommerce_core::netpath::{WiredPath, WirelessConfig};
use mcommerce_core::{CommerceSystem, SystemSpec};
use simnet::rng::rng_for;
use simnet::SimDuration;
use wireless::{CellularStandard, WlanStandard};

fn any_wireless() -> impl Strategy<Value = WirelessConfig> {
    prop_oneof![
        (
            prop_oneof![
                Just(WlanStandard::Bluetooth),
                Just(WlanStandard::Dot11b),
                Just(WlanStandard::Dot11a),
                Just(WlanStandard::HyperLan2),
                Just(WlanStandard::Dot11g),
            ],
            0.0f64..320.0
        )
            .prop_map(|(standard, distance_m)| WirelessConfig::Wlan {
                standard,
                distance_m
            }),
        prop_oneof![
            Just(CellularStandard::Gsm),
            Just(CellularStandard::Cdma),
            Just(CellularStandard::Gprs),
            Just(CellularStandard::Edge),
            Just(CellularStandard::Wcdma),
        ]
        .prop_map(|standard| WirelessConfig::Cellular { standard }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Physics: a transfer can never beat the link's serialisation rate,
    /// and byte accounting always covers payload plus framing.
    #[test]
    fn transfers_respect_link_physics(
        config in any_wireless(),
        bytes in 1usize..200_000,
        seed in 0u64..500,
    ) {
        let Some(link) = config.air_link() else { return Ok(()); };
        let mut rng = rng_for(seed, "prop.netpath");
        let t = link.transfer(bytes, &mut rng);
        // Elapsed covers at least the airtime of everything put on the
        // medium (access delays come on top).
        let floor = SimDuration::transmission(t.bytes_on_medium as usize, link.rate_bps());
        prop_assert!(t.elapsed >= floor, "elapsed {} < airtime floor {}", t.elapsed, floor);
        if !t.failed {
            // Every payload byte crossed, plus per-fragment overhead.
            let fragment = link.fragment_payload();
            let fragments = bytes.div_ceil(fragment) as u64;
            prop_assert!(
                t.bytes_on_medium >= bytes as u64 + fragments * link.frame_overhead() as u64 - link.frame_overhead() as u64,
                "on-medium {} too small for {} bytes in {} fragments",
                t.bytes_on_medium, bytes, fragments
            );
        }
    }

    /// Determinism: the same seed reproduces the transfer bit-for-bit;
    /// and on clean channels, more bytes never arrive faster.
    #[test]
    fn transfers_are_deterministic_and_monotone(
        bytes in 1usize..100_000,
        extra in 1usize..50_000,
        seed in 0u64..500,
    ) {
        let link = WirelessConfig::Wlan { standard: WlanStandard::Dot11b, distance_m: 10.0 }
            .air_link()
            .unwrap();
        let a = link.transfer(bytes, &mut rng_for(seed, "prop.det"));
        let b = link.transfer(bytes, &mut rng_for(seed, "prop.det"));
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.bytes_on_medium, b.bytes_on_medium);

        // Clean-channel monotonicity (BER at 10 m is 1e-6; use the
        // deterministic floor comparison instead of sampled elapsed).
        let more = link.transfer(bytes + extra, &mut rng_for(seed, "prop.det"));
        prop_assert!(more.bytes_on_medium > a.bytes_on_medium);
    }

    /// Wired paths are linear: transfer(a) + transfer(b) ≥ transfer(a+b)
    /// minus one latency charge (they share it when batched).
    #[test]
    fn wired_paths_are_additive(a in 1usize..1_000_000, b in 1usize..1_000_000) {
        let wan = WiredPath::wan();
        let whole = wan.transfer(a + b);
        let split = wan.transfer(a) + wan.transfer(b);
        prop_assert!(split >= whole);
        let slack = split - whole;
        prop_assert!(slack <= wan.latency + SimDuration::from_nanos(2), "slack {slack}");
    }

    /// Robustness: arbitrary request paths (valid or garbage) never panic
    /// the six-component system; failures carry a reason.
    #[test]
    fn arbitrary_paths_never_panic_the_system(
        path in "[a-zA-Z0-9/?=&._ -]{0,60}",
        config in any_wireless(),
    ) {
        use hostsite::db::Database;
        use hostsite::HostComputer;
        use mcommerce_core::apps::{Application, PaymentsApp};
        use middleware::MobileRequest;
        use station::DeviceProfile;

        let app = PaymentsApp::new();
        let mut host = HostComputer::new(Database::new(), 50);
        app.install(&mut host);
        let mut system = SystemSpec::new()
            .device(DeviceProfile::ipaq_h3870())
            .wireless(config)
            .wired(WiredPath::wan())
            .seed(51)
            .build(host);
        let report = system.execute(&MobileRequest::get(&format!("/{path}")));
        if !report.success {
            prop_assert!(report.failure.is_some(), "failures must carry a reason");
        }
        prop_assert!(report.energy_j >= 0.0);
    }
}
