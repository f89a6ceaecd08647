//! Secure checkout: §8's "mobile security and payment" end to end.
//!
//! Runs the same purchase twice — plaintext and WTLS-secured — and shows
//! what security costs on the air and in the battery; then demonstrates
//! the payment protocol's defences (tampering, replay, forged receipts)
//! at the protocol level; finally scales the secured checkout to a fleet
//! through the same [`Scenario`] description.
//!
//! ```text
//! cargo run --example secure_checkout
//! ```

use mcommerce::core::{Category, FleetRunner, RetryPolicy, Scenario, WirelessConfig};
use mcommerce::middleware::MobileRequest;
use mcommerce::security::{Mac, PaymentGateway, PaymentRequest};
use mcommerce::simnet::rng::rng_for_indexed;
use mcommerce::station::DeviceProfile;
use mcommerce::wireless::CellularStandard;

/// User think time between browsing and buying, seconds of sim time.
const THINK_SECS: f64 = 2.0;

fn scenario(secure: bool) -> Scenario {
    Scenario::new("secure checkout")
        .app(Category::Commerce)
        .device(DeviceProfile::nokia_9290())
        .wireless(WirelessConfig::Cellular {
            standard: CellularStandard::Gprs,
        })
        .secure(secure)
        .think_time(THINK_SECS)
        .retry(RetryPolicy::standard())
        .seed(72)
}

fn checkout(secure: bool) -> (f64, u64, f64) {
    let mut system = scenario(secure).system_for_user(0);
    let retry = RetryPolicy::standard();
    let mut rng = rng_for_indexed(72, "checkout.retry", secure as u64);
    // Browse, think, then buy — retries armed, although a fault-free run
    // settles every transaction on the first attempt.
    let browse = system.execute_with_retry(&MobileRequest::get("/shop"), &retry, &mut rng);
    system.idle(THINK_SECS);
    let buy = system.execute_with_retry(
        &MobileRequest::post(
            "/shop/buy",
            vec![("sku".into(), "1".into()), ("nonce".into(), "42".into())],
        ),
        &retry,
        &mut rng,
    );
    assert_eq!(browse.attempts, 1, "fault-free browse settles first try");
    assert_eq!(buy.attempts, 1, "fault-free buy settles first try");
    assert!(
        browse.success && buy.success,
        "{:?} {:?}",
        browse.failure,
        buy.failure
    );
    (
        (browse.total() + buy.total()).as_secs_f64(),
        browse.air_bytes_up + browse.air_bytes_down + buy.air_bytes_up + buy.air_bytes_down,
        browse.energy_j + buy.energy_j,
    )
}

fn main() {
    println!("== the cost of security over GPRS (browse + buy) ==\n");
    let (plain_s, plain_b, plain_j) = checkout(false);
    let (sec_s, sec_b, sec_j) = checkout(true);
    println!(
        "plaintext    : {:7.1} ms, {:5} B on air, {:6.2} mJ",
        plain_s * 1e3,
        plain_b,
        plain_j * 1e3
    );
    println!(
        "WTLS secured : {:7.1} ms, {:5} B on air, {:6.2} mJ",
        sec_s * 1e3,
        sec_b,
        sec_j * 1e3
    );
    println!(
        "overhead     : {:+6.1}% latency, {:+} B, {:+.1}% battery\n",
        (sec_s / plain_s - 1.0) * 100.0,
        sec_b as i64 - plain_b as i64,
        (sec_j / plain_j - 1.0) * 100.0
    );

    println!("== the payment protocol's defences ==\n");
    let client_mac = Mac::new(b"shared-with-station");
    let mut gateway = PaymentGateway::new(client_mac, Mac::new(b"gateway-private"));
    gateway.open_account("traveller", 10_000);

    // 1. An honest purchase settles.
    let req = PaymentRequest::signed(&client_mac, 1, 2_500, "traveller", 1001);
    gateway.authorize(&req).expect("honest request authorizes");
    let receipt = gateway.capture(1).expect("capture settles");
    println!(
        "honest purchase  : authorized, receipt auth code {}",
        receipt.auth_code
    );
    assert!(receipt.verify(gateway.receipt_mac()));

    // 2. A man-in-the-middle lowers the price — integrity catches it.
    let mut tampered = PaymentRequest::signed(&client_mac, 2, 2_500, "traveller", 1002);
    tampered.amount_cents = 1;
    println!(
        "tampered amount  : {}",
        gateway.authorize(&tampered).unwrap_err()
    );

    // 3. An eavesdropper replays the original request.
    let replay = PaymentRequest::signed(&client_mac, 3, 2_500, "traveller", 1001);
    println!(
        "replayed nonce   : {}",
        gateway.authorize(&replay).unwrap_err()
    );

    // 4. A forged receipt fails verification.
    let mut forged = receipt.clone();
    forged.amount_cents = 25;
    println!(
        "forged receipt   : verifies = {}",
        forged.verify(gateway.receipt_mac())
    );

    println!("\naudit trail:");
    for event in gateway.audit() {
        println!("  {event:?}");
    }
    println!(
        "\nbalance after everything: {} cents (10000 - 2500)",
        gateway.balance("traveller").unwrap()
    );
    assert_eq!(gateway.balance("traveller"), Some(7_500));

    // The same secured checkout, scaled through the Scenario description
    // itself: the think-time and retry knobs above drive every fleet
    // session, deterministically sharded across the machine's cores.
    println!("\n== the secured checkout at fleet scale ==\n");
    let market = FleetRunner::new(scenario(true).users(40).sessions_per_user(2))
        .run()
        .report;
    let w = &market.summary.workload;
    println!(
        "{} users on {} thread(s): {} transactions, {:.1}% ok, mean {:.0} ms, {} retries",
        market.summary.users,
        market.threads,
        market.summary.transactions(),
        w.success_rate() * 100.0,
        w.latency_mean * 1e3,
        w.counters.retries
    );
    assert!(
        w.success_rate() > 0.99,
        "fault-free secured fleet must settle cleanly"
    );
}
