//! Executable checks of §1.1's five requirements for a mobile commerce
//! system.
//!
//! 1. end users can perform transactions "easily, in a timely manner, and
//!    ubiquitously";
//! 2. "products to be personalized or customized upon request";
//! 3. "fully support a wide range of mobile commerce applications";
//! 4. "maximum interoperability" across technologies;
//! 5. "program/data independence … the change of system components does
//!    not affect the existing programs/data".
//!
//! Each check assembles real systems, runs real workloads, and returns a
//! [`RequirementReport`] with evidence — these double as the acceptance
//! tests for the whole model and as the data behind the `independence`
//! experiment.

use hostsite::db::Database;
use hostsite::HostComputer;
use middleware::MobileRequest;
use station::DeviceProfile;
use wireless::{CellularStandard, WlanStandard};

use crate::apps::{all_apps, Application, PaymentsApp};
use crate::netpath::{WiredPath, WirelessConfig};
use crate::system::{CommerceSystem, MiddlewareKind, SystemSpec};
use crate::workload::run_workload;

/// The verdict on one requirement.
#[derive(Debug, Clone)]
pub struct RequirementReport {
    /// Requirement number (1–5, per §1.1).
    pub number: u8,
    /// The paper's phrasing, abbreviated.
    pub requirement: &'static str,
    /// Whether the system satisfied it.
    pub satisfied: bool,
    /// Human-readable evidence.
    pub evidence: String,
}

fn fresh_host(seed: u64, apps: &[Box<dyn Application>]) -> HostComputer {
    let mut host = HostComputer::new(Database::new(), seed);
    for app in apps {
        app.install(&mut host);
    }
    host
}

fn wifi(distance_m: f64) -> WirelessConfig {
    WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m,
    }
}

/// Requirement 1 — transactions complete ubiquitously (several positions
/// and networks) and in a timely manner (p90 under a budget).
pub(crate) fn check_ubiquity(latency_budget_secs: f64) -> RequirementReport {
    let app = PaymentsApp::new();
    let apps: Vec<Box<dyn Application>> = vec![Box::new(PaymentsApp::new())];
    let mut evidence = Vec::new();
    let mut satisfied = true;
    let configs = [
        wifi(10.0),
        wifi(80.0),
        WirelessConfig::Cellular {
            standard: CellularStandard::Gprs,
        },
        WirelessConfig::Cellular {
            standard: CellularStandard::Wcdma,
        },
    ];
    for (i, config) in configs.iter().enumerate() {
        let mut system = SystemSpec::new()
            .middleware(MiddlewareKind::Wap)
            .device(DeviceProfile::ipaq_h3870())
            .wireless(*config)
            .wired(WiredPath::wan())
            .seed(200 + i as u64)
            .build(fresh_host(100 + i as u64, &apps));
        let summary = run_workload(&mut system, &app, 10, 300 + i as u64);
        let ok = summary.success_rate() == 1.0 && summary.latency_p90 <= latency_budget_secs;
        satisfied &= ok;
        evidence.push(format!(
            "{}: success {:.0}%, p90 {:.2}s",
            config.name(),
            summary.success_rate() * 100.0,
            summary.latency_p90
        ));
    }
    RequirementReport {
        number: 1,
        requirement: "transactions are easy, timely, ubiquitous",
        satisfied,
        evidence: evidence.join("; "),
    }
}

/// Requirement 2 — personalization: the same URL yields different content
/// per user once the host has seen them (sessions/cookies).
pub(crate) fn check_personalization() -> RequirementReport {
    let mut host = HostComputer::new(Database::new(), 7);
    host.web.route_get(
        "/home",
        |req: &hostsite::HttpRequest, ctx: &mut hostsite::ServerCtx<'_>| {
            let name = req.param("name").unwrap_or("");
            if !name.is_empty() {
                ctx.session.insert("name".into(), name.to_owned());
            }
            let mut page = markup::html::PageWriter::new("Home");
            match ctx.session.get("name") {
                Some(n) => page.p(format_args!("welcome back, {n}")),
                None => page.p("welcome, guest"),
            };
            hostsite::HttpResponse::ok(page.finish())
        },
    );
    let mut system = SystemSpec::new()
        .middleware(MiddlewareKind::IMode)
        .device(DeviceProfile::nokia_9290())
        .wireless(wifi(15.0))
        .wired(WiredPath::wan())
        .seed(17)
        .build(host);
    system.execute(&MobileRequest::get("/home?name=ada"));
    let report = system.execute(&MobileRequest::get("/home"));
    let page = report.page_text().unwrap_or_default().to_owned();
    let satisfied = page.contains("welcome back, ada");
    RequirementReport {
        number: 2,
        requirement: "products/content personalised upon request",
        satisfied,
        evidence: format!("second visit rendered: {page:?}"),
    }
}

/// Requirement 3 — application breadth: all eight Table 1 categories run
/// to completion on one system.
pub(crate) fn check_application_breadth() -> RequirementReport {
    let apps = all_apps();
    let mut system = SystemSpec::new()
        .middleware(MiddlewareKind::Wap)
        .device(DeviceProfile::toshiba_e740())
        .wireless(wifi(20.0))
        .wired(WiredPath::wan())
        .seed(23)
        .build(fresh_host(21, &apps));
    let mut evidence = Vec::new();
    let mut satisfied = true;
    for app in &apps {
        let summary = run_workload(&mut system, app.as_ref(), 4, 29);
        let ok = summary.success_rate() > 0.95;
        satisfied &= ok;
        evidence.push(format!(
            "{}: {:.0}%",
            app.category(),
            summary.success_rate() * 100.0
        ));
    }
    RequirementReport {
        number: 3,
        requirement: "supports a wide range of MC applications",
        satisfied,
        evidence: evidence.join("; "),
    }
}

/// Requirement 4 — interoperability: every middleware × device × network
/// combination completes the same workload.
pub(crate) fn check_interoperability() -> RequirementReport {
    let app = PaymentsApp::new();
    let mut evidence = Vec::new();
    let mut satisfied = true;
    let mut combo = 0u64;
    for kind in [MiddlewareKind::Wap, MiddlewareKind::IMode] {
        for device in [DeviceProfile::palm_i705(), DeviceProfile::ipaq_h3870()] {
            for config in [
                wifi(20.0),
                WirelessConfig::Cellular {
                    standard: CellularStandard::Edge,
                },
            ] {
                combo += 1;
                let apps: Vec<Box<dyn Application>> = vec![Box::new(PaymentsApp::new())];
                let mut system = SystemSpec::new()
                    .middleware(kind)
                    .device(device.clone())
                    .wireless(config)
                    .wired(WiredPath::wan())
                    .seed(500 + combo)
                    .build(fresh_host(400 + combo, &apps));
                let summary = run_workload(&mut system, &app, 3, 600 + combo);
                let ok = summary.success_rate() == 1.0;
                satisfied &= ok;
                evidence.push(format!(
                    "{} × {} × {}: {}",
                    kind,
                    device.name,
                    config.name(),
                    if ok { "ok" } else { "FAIL" }
                ));
            }
        }
    }
    RequirementReport {
        number: 4,
        requirement: "maximum interoperability across technologies",
        satisfied,
        evidence: evidence.join("; "),
    }
}

/// Requirement 5 — program/data independence: swapping middleware and
/// wireless network mid-run leaves existing programs and data working.
pub(crate) fn check_independence() -> RequirementReport {
    let app = PaymentsApp::new();
    let apps: Vec<Box<dyn Application>> = vec![Box::new(PaymentsApp::new())];
    let mut system = SystemSpec::new()
        .middleware(MiddlewareKind::Wap)
        .device(DeviceProfile::sony_clie_nr70v())
        .wireless(wifi(20.0))
        .wired(WiredPath::wan())
        .seed(37)
        .build(fresh_host(31, &apps));

    // Phase 1: buy through WAP over Wi-Fi.
    let before = run_workload(&mut system, &app, 3, 41);
    let stock_after_phase1 = system
        .host
        .web
        .db()
        .get("products", &1.into())
        .ok()
        .flatten()
        .map(|r| r[3].to_string());

    // Swap both the middleware and the network components.
    system.set_middleware(MiddlewareKind::IMode.build());
    system.set_wireless(WirelessConfig::Cellular {
        standard: CellularStandard::Wcdma,
    });

    // Phase 2: the same application and data keep working.
    let after = run_workload(&mut system, &app, 3, 43);
    let stock_final = system
        .host
        .web
        .db()
        .get("products", &1.into())
        .ok()
        .flatten()
        .map(|r| r[3].to_string());

    let satisfied = before.success_rate() == 1.0 && after.success_rate() == 1.0;
    RequirementReport {
        number: 5,
        requirement: "program/data independence under component change",
        satisfied,
        evidence: format!(
            "WAP/Wi-Fi phase: {:.0}%; after swap to i-mode/WCDMA: {:.0}%; stock continuity {} -> {}",
            before.success_rate() * 100.0,
            after.success_rate() * 100.0,
            stock_after_phase1.unwrap_or_default(),
            stock_final.unwrap_or_default(),
        ),
    }
}

/// Runs all five checks.
pub fn check_all() -> Vec<RequirementReport> {
    vec![
        check_ubiquity(30.0),
        check_personalization(),
        check_application_breadth(),
        check_interoperability(),
        check_independence(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirement_1_ubiquity_holds_with_a_generous_budget() {
        let report = check_ubiquity(30.0);
        assert!(report.satisfied, "{}", report.evidence);
    }

    #[test]
    fn requirement_2_personalization_holds() {
        let report = check_personalization();
        assert!(report.satisfied, "{}", report.evidence);
    }

    #[test]
    fn requirement_3_breadth_holds() {
        let report = check_application_breadth();
        assert!(report.satisfied, "{}", report.evidence);
    }

    #[test]
    fn requirement_4_interoperability_holds() {
        let report = check_interoperability();
        assert!(report.satisfied, "{}", report.evidence);
    }

    #[test]
    fn requirement_5_independence_holds() {
        let report = check_independence();
        assert!(report.satisfied, "{}", report.evidence);
    }

    #[test]
    fn an_unreasonable_latency_budget_fails_requirement_1() {
        // Sanity: the check is not vacuously true.
        let report = check_ubiquity(0.000_001);
        assert!(!report.satisfied);
    }
}
