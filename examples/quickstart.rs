//! Quickstart: describe the paper's six-component mobile commerce system
//! as a [`Scenario`], run one transaction through it, then scale the same
//! description to a whole fleet of users.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mcommerce::core::{Category, CommerceSystem, FleetRunner, MiddlewareKind, Scenario};
use mcommerce::middleware::MobileRequest;
use mcommerce::station::DeviceProfile;

fn main() {
    // One declarative description covers all six components: the
    // application (i), the station (ii), the middleware (iii), the
    // wireless (iv) and wired (v) networks, and the host computer (vi)
    // is provisioned from it with the application installed.
    let scenario = Scenario::new("quickstart")
        .app(Category::Commerce)
        .device(DeviceProfile::palm_i705())
        .middleware(MiddlewareKind::Wap)
        .seed(42);

    let mut system = scenario.system_for_user(0);
    println!("scenario: {}", scenario.label());
    println!("system:   {}", system.label());

    // Browse the shop…
    let report = system.execute(&MobileRequest::get("/shop"));
    println!(
        "\nGET /shop -> success={} in {:.1} ms",
        report.success,
        report.total().as_secs_f64() * 1e3
    );
    if let Some(outcome) = &report.outcome {
        println!("rendered on the handheld ({} \"{}\"):", outcome.status, outcome.title);
        for line in outcome.page_text.lines().take(8) {
            println!("  | {line}");
        }
    }

    // …and buy something.
    let report = system.execute(&MobileRequest::post(
        "/shop/buy",
        vec![("sku".into(), "3".into()), ("nonce".into(), "1001".into())],
    ));
    println!(
        "\nPOST /shop/buy -> success={} in {:.1} ms",
        report.success,
        report.total().as_secs_f64() * 1e3
    );
    if let Some(outcome) = &report.outcome {
        for line in outcome.page_text.lines() {
            println!("  | {line}");
        }
    }

    // Where did the time go? The six components, itemised.
    let b = report.breakdown;
    println!("\nper-component latency breakdown:");
    for (component, share) in [
        ("station (parse/render)", b.station),
        ("wireless network", b.wireless),
        ("middleware (WAP)", b.middleware),
        ("wired network", b.wired),
        ("host computer", b.host),
    ] {
        println!("  {component:<22} : {share:>10}");
    }
    println!(
        "\nover the air: {} B up, {} B down; battery used: {:.3} mJ; battery left: {:.1}%",
        report.air_bytes_up,
        report.air_bytes_down,
        report.energy_j * 1e3,
        system.station.battery.level() * 100.0
    );

    // The same description, scaled to a market: 200 independent users,
    // sharded across the machine's cores, merged deterministically.
    // (Only virtual-clock metrics are printed here so the output stays
    // byte-identical run to run; wall-clock txns/s lives in the F3
    // experiment, which measures host throughput on purpose.)
    let market = FleetRunner::new(scenario.users(200).sessions_per_user(2))
        .run()
        .report;
    let w = &market.summary.workload;
    println!(
        "\nfleet of {} users on {} thread(s): {} transactions, {:.0}% ok,\n\
         mean latency {:.0} ms, {} B over the air",
        market.summary.users,
        market.threads,
        market.summary.transactions(),
        w.success_rate() * 100.0,
        w.latency_mean * 1e3,
        w.counters.air_bytes
    );
}
