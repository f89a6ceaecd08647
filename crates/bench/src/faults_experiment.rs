//! F6 — fault injection and recovery: availability and tail latency
//! under a deterministic fault storm, with and without the retry policy.
//!
//! The paper's MC system adds two components the EC baseline does not
//! have — the wireless network and the mobile middleware — and both
//! fail in ways a wired desktop never sees (§5.2's error-prone
//! channels, handoffs and disconnections). This experiment prices that
//! fragility and what the resilience layer buys back:
//!
//! 1. **Fault-intensity sweep.** The same fixed-seed fleet runs under
//!    [`FaultPlan::storm`] at increasing intensity, once bare and once
//!    hardened (retry policy + textual-middleware fallback). CI gates on
//!    the hardened fleet strictly dominating the bare one whenever the
//!    storm injects anything.
//! 2. **EC reference.** The identical workload on the four-component
//!    wired baseline — no wireless, gateway or transcoder to fault.
//! 3. **Zero-fault identity.** A fleet carrying an *empty* plan and the
//!    no-retry policy is asserted byte-identical to a plan-free fleet at
//!    a different thread count: the fault machinery is provably free
//!    when unused.
//! 4. **Dead-peer transport abort.** At packet granularity, the fault
//!    driver kills the wireless leg mid-transfer and the TCP sender must
//!    abort after [`transport::MAX_CONSECUTIVE_RTOS`] — not retransmit
//!    at `MAX_RTO` forever (the `Snd.backoff` write-only regression).
//!
//! Results are written as the `BENCH_faults.json` artefact.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use faults::{driver, FaultKind, FaultPlan, RetryPolicy};
use mcommerce_core::apps::for_category;
use mcommerce_core::workload::run_workload;
use mcommerce_core::{fleet, Category, EcSystem, FleetRunner, MiddlewareKind, Scenario, WiredPath};
use netstack::node::Network;
use netstack::{Ip, Subnet};
use simnet::link::LinkParams;
use simnet::trace::Trace;
use simnet::{SimDuration, SimTime, Simulator};
use transport::{SocketAddr, State, Tcp};

use hostsite::db::Database;
use hostsite::HostComputer;
use obs::json::Value::{self, Fixed};
use obs::object;

use crate::gate::{Gate, Numbers};

const FIXED: Ip = Ip::new(10, 0, 0, 1);
const BS: Ip = Ip::new(10, 0, 0, 254);
const MOBILE: Ip = Ip::new(172, 16, 0, 5);

/// Sim-time span every storm covers; the scenario's think time spreads
/// each user's sessions across the same span.
const STORM_HORIZON: SimDuration = SimDuration::from_secs(30);

/// Seed of the storm generator (fixed: every run sees the same faults).
const STORM_SEED: u64 = 4242;

/// One row of the fault-intensity sweep: the same fleet bare vs hardened.
#[derive(Debug, Clone)]
pub(crate) struct FaultSweepRow {
    /// Storm intensity multiplier (0 = no faults injected).
    pub(crate) intensity: f64,
    /// Success rate of the fleet without any recovery policy.
    pub(crate) bare_availability: f64,
    /// p99 transaction latency without recovery, seconds.
    pub(crate) bare_p99_s: f64,
    /// Success rate with retry + fallback middleware.
    pub(crate) retry_availability: f64,
    /// p99 transaction latency with recovery, seconds (retries fold the
    /// failed attempts' latency into the settled transaction).
    pub(crate) retry_p99_s: f64,
    /// Retry attempts the hardened fleet spent.
    pub(crate) retries: u64,
}

impl fmt::Display for FaultSweepRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "intensity {:>4.1}: bare {:>6.2}% avail (p99 {:>7.1} ms) | hardened {:>6.2}% avail (p99 {:>7.1} ms, {} retries)",
            self.intensity,
            self.bare_availability * 100.0,
            self.bare_p99_s * 1e3,
            self.retry_availability * 100.0,
            self.retry_p99_s * 1e3,
            self.retries,
        )
    }
}

/// Outcome of the packet-granularity dead-peer demonstration.
#[derive(Debug, Clone)]
pub(crate) struct DeadPeerOutcome {
    /// Whether the sender reached [`State::Aborted`] (the fixed bug
    /// would leave it retransmitting forever).
    pub(crate) aborted: bool,
    /// Sim time at which the abort fired, seconds.
    pub(crate) abort_secs: f64,
    /// RTOs the sender took before giving up.
    pub(crate) sender_rtos: u64,
    /// The error surfaced to the application layer.
    pub(crate) reason: String,
}

/// The complete F6 result set.
#[derive(Debug, Clone)]
pub struct FaultsNumbers {
    /// Users in the sweep fleet.
    pub(crate) users: u64,
    /// Sessions per user.
    pub(crate) sessions_per_user: u64,
    /// The intensity sweep, bare vs hardened.
    pub(crate) sweep: Vec<FaultSweepRow>,
    /// EC baseline availability over the same workload volume.
    pub(crate) ec_availability: f64,
    /// EC baseline p99 latency, seconds.
    pub(crate) ec_p99_s: f64,
    /// Whether an empty plan + no-retry policy fleet came out
    /// byte-identical to a plan-free fleet at a different thread count.
    pub(crate) zero_fault_identical: bool,
    /// Trace events naming injected faults or retry backoffs in the
    /// traced storm fleet.
    pub(crate) fault_trace_events: u64,
    /// Flight-recorder dumps (failed transactions) in the traced fleet.
    pub(crate) fault_dumps: u64,
    /// The dead-peer transport abort demonstration.
    pub(crate) dead_peer: DeadPeerOutcome,
}

impl fmt::Display for FaultsNumbers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} users × {} sessions, storm over {} s (seed {})",
            self.users,
            self.sessions_per_user,
            STORM_HORIZON.as_secs_f64(),
            STORM_SEED
        )?;
        for row in &self.sweep {
            writeln!(f, "  {row}")?;
        }
        writeln!(
            f,
            "  EC reference: {:.2}% avail (p99 {:.1} ms) — nothing to fault",
            self.ec_availability * 100.0,
            self.ec_p99_s * 1e3
        )?;
        writeln!(
            f,
            "zero-fault fleet identical to plan-free fleet: {}",
            self.zero_fault_identical
        )?;
        writeln!(
            f,
            "flight recorder: {} fault/retry events, {} failure dumps",
            self.fault_trace_events, self.fault_dumps
        )?;
        write!(
            f,
            "dead peer: aborted={} after {:.1} s and {} RTOs ({})",
            self.dead_peer.aborted,
            self.dead_peer.abort_secs,
            self.dead_peer.sender_rtos,
            self.dead_peer.reason
        )
    }
}

impl Numbers for FaultsNumbers {
    const EXPERIMENT: &'static str = "F6_faults";

    fn to_json(&self) -> Value {
        let sweep = self.sweep.iter().map(|r| {
            object!("intensity": Fixed(r.intensity, 2),
                "bare_availability": Fixed(r.bare_availability, 6), "bare_p99_s": Fixed(r.bare_p99_s, 6),
                "retry_availability": Fixed(r.retry_availability, 6),
                "retry_p99_s": Fixed(r.retry_p99_s, 6), "retries": r.retries)
        });
        let peer = &self.dead_peer;
        object!(
            "experiment": Self::EXPERIMENT,
            "users": self.users,
            "sessions_per_user": self.sessions_per_user,
            "storm_horizon_s": Fixed(STORM_HORIZON.as_secs_f64(), 1),
            "sweep": sweep.collect::<Value>(),
            "ec": object!("availability": Fixed(self.ec_availability, 6), "p99_s": Fixed(self.ec_p99_s, 6)),
            "zero_fault_identical": self.zero_fault_identical,
            "trace": object!("fault_events": self.fault_trace_events, "fault_dumps": self.fault_dumps),
            "dead_peer": object!("aborted": peer.aborted, "abort_secs": Fixed(peer.abort_secs, 3),
                "sender_rtos": peer.sender_rtos),
        )
    }

    fn gates(&self) -> Vec<Gate> {
        let mut gates = vec![
            Gate::holds("zero-fault fleet identical to plan-free fleet", self.zero_fault_identical),
            Gate::holds("TCP sender aborts against a dead peer", self.dead_peer.aborted),
            Gate::above("fault events in the flight recorder", self.fault_trace_events, 0),
        ];
        for r in self.sweep.iter().filter(|r| r.intensity > 0.0) {
            let name = format!("intensity {}: retry availability beats bare", r.intensity);
            gates.push(Gate::above(name, r.retry_availability, r.bare_availability));
        }
        gates
    }
}

/// The fixed-seed fleet the sweep perturbs: commerce sessions spread
/// across the storm horizon by think time.
pub(crate) fn sweep_scenario(quick: bool) -> Scenario {
    Scenario::new("F6")
        .app(Category::Commerce)
        .users(if quick { 24 } else { 96 })
        .sessions_per_user(8)
        .think_time(3.0)
        .seed(401)
}

/// Hardens a scenario: the standard retry policy plus graceful
/// degradation to textual WML when the gateway path fails.
fn harden(scenario: Scenario) -> Scenario {
    scenario
        .retry(RetryPolicy::standard())
        .fallback_middleware(MiddlewareKind::WapTextual)
}

/// Runs the identical workload volume through the EC baseline. Mirrors
/// the fleet's semantics — one fresh host world per user — so finite
/// inventory never depletes across users and the only difference left
/// is the architecture (nothing wireless to fault).
fn ec_reference(scenario: &Scenario) -> (f64, f64) {
    let app = for_category(scenario.app);
    let mut merged: Option<mcommerce_core::WorkloadSummary> = None;
    for user in 0..scenario.users {
        let mut host = HostComputer::new(Database::new(), 1);
        app.install(&mut host);
        let mut ec = EcSystem::new(host, WiredPath::wan());
        let summary = run_workload(
            &mut ec,
            app.as_ref(),
            scenario.sessions_per_user,
            scenario.seed.wrapping_add(user),
        );
        merged = Some(match merged {
            Some(acc) => acc.merge(&summary),
            None => summary,
        });
    }
    let summary = merged.expect("at least one user");
    (
        summary.success_rate(),
        summary.counters.latency_percentile(99.0),
    )
}

/// Packet-granularity dead-peer demonstration: the fault driver blacks
/// out the wireless leg for good mid-transfer; the TCP sender must
/// abort and surface the error instead of retransmitting forever.
pub(crate) fn dead_peer_demo() -> DeadPeerOutcome {
    let mut sim = Simulator::new();
    let trace = Trace::bounded(16);

    let mut net = Network::new();
    let fixed = net.add_node("fixed", FIXED);
    let bs = net.add_node("bs", BS);
    let mobile = net.add_node("mobile", MOBILE);
    Network::connect(
        &fixed,
        FIXED,
        &bs,
        BS,
        LinkParams::reliable(10_000_000, SimDuration::from_millis(100)),
    );
    let (down, up) = Network::connect(
        &bs,
        BS,
        &mobile,
        MOBILE,
        LinkParams::reliable(2_000_000, SimDuration::from_millis(5)),
    );
    fixed.add_route(Subnet::DEFAULT, BS);
    mobile.add_route(Subnet::DEFAULT, BS);

    let tcp_fixed = Tcp::install(Rc::clone(&fixed), trace.clone());
    let _tcp_bs = Tcp::install(Rc::clone(&bs), trace.clone());
    let tcp_mobile = Tcp::install(Rc::clone(&mobile), trace.clone());
    tcp_mobile.listen(80, |_sim, conn| {
        conn.on_data(|_sim, _data: Bytes| {});
    });

    // The mobile leaves coverage for good 100 ms into the transfer: an
    // effectively unbounded wireless outage, armed via the fault driver.
    let plan = FaultPlan::none().window(
        SimDuration::from_millis(100),
        SimDuration::from_secs(3_600),
        FaultKind::WirelessOutage,
    );
    driver::arm(&mut sim, &plan, &down);
    driver::arm(&mut sim, &plan, &up);

    let errors: Rc<RefCell<Vec<String>>> = Rc::default();
    let abort_at: Rc<Cell<f64>> = Rc::new(Cell::new(0.0));
    let sender = tcp_fixed.connect(&mut sim, FIXED, SocketAddr::new(MOBILE, 80));
    {
        let errors = Rc::clone(&errors);
        let abort_at = Rc::clone(&abort_at);
        sender.on_error(move |sim, reason| {
            errors.borrow_mut().push(reason.to_owned());
            abort_at.set(sim.now().as_secs_f64());
        });
    }
    sender.send_bytes(&mut sim, Bytes::from(vec![0x5Au8; 500_000]));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));

    let reason = errors.borrow().first().cloned().unwrap_or_default();
    DeadPeerOutcome {
        aborted: sender.state() == State::Aborted,
        abort_secs: abort_at.get(),
        sender_rtos: sender.stats.rtos.get(),
        reason,
    }
}

/// Runs the full F6 experiment. `quick` shrinks the fleet for CI smoke
/// runs; seeds, storm and sweep grid are identical either way.
pub fn run(quick: bool) -> FaultsNumbers {
    let base = sweep_scenario(quick);
    let threads = fleet::default_threads();

    let mut sweep = Vec::new();
    for &intensity in &[0.0, 0.5, 1.0, 2.0] {
        let storm = FaultPlan::storm(STORM_SEED, STORM_HORIZON, intensity);
        let bare = FleetRunner::new(base.clone().faults(storm.clone()))
            .threads(threads)
            .run()
            .report
            .summary;
        let hardened = FleetRunner::new(harden(base.clone().faults(storm)))
            .threads(threads)
            .run()
            .report
            .summary;
        sweep.push(FaultSweepRow {
            intensity,
            bare_availability: bare.workload.success_rate(),
            bare_p99_s: bare.workload.counters.latency_percentile(99.0),
            retry_availability: hardened.workload.success_rate(),
            retry_p99_s: hardened.workload.counters.latency_percentile(99.0),
            retries: hardened.workload.counters.retries,
        });
    }

    let (ec_availability, ec_p99_s) = ec_reference(&base);

    // Zero-fault identity, cross-checked at different thread counts.
    let plain = FleetRunner::new(base.clone()).threads(2).run().report.summary;
    let armed = FleetRunner::new(
        base.clone()
            .faults(FaultPlan::none())
            .retry(RetryPolicy::none()),
    )
    .threads(4)
    .run()
    .report
    .summary;
    let zero_fault_identical = plain == armed;

    // Injected faults must be visible in the flight recorder.
    let storm = FaultPlan::storm(STORM_SEED, STORM_HORIZON, 1.0);
    let traced_scenario = harden(base.clone().users(base.users.min(8)).faults(storm));
    let trace = FleetRunner::new(traced_scenario)
        .threads(threads)
        .traced(true)
        .run()
        .trace
        .expect("traced run carries a trace");
    let fault_trace_events = trace
        .events
        .iter()
        .filter(|e| {
            e.name.contains("fault:")
                || e.name.contains("outage")
                || e.name.contains("retry_backoff")
                || e.name.contains("recovering")
                || e.name.contains("transcode degraded")
        })
        .count() as u64;

    FaultsNumbers {
        users: base.users,
        sessions_per_user: base.sessions_per_user,
        sweep,
        ec_availability,
        ec_p99_s,
        zero_fault_identical,
        fault_trace_events,
        fault_dumps: trace.dumps.len() as u64,
        dead_peer: dead_peer_demo(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json;
    use crate::gate::failing;

    #[test]
    fn dead_peer_aborts_promptly_with_a_reason() {
        let outcome = dead_peer_demo();
        assert!(outcome.aborted, "sender must abort, not retransmit forever");
        assert!(outcome.sender_rtos >= transport::MAX_CONSECUTIVE_RTOS as u64);
        assert!(outcome.abort_secs < 300.0, "{}", outcome.abort_secs);
        assert!(outcome.reason.contains("retransmission limit"), "{}", outcome.reason);
    }

    #[test]
    fn quick_sweep_shows_retry_dominating_under_faults() {
        let mut numbers = run(true);
        // The gates: retry beats bare at every non-zero intensity, the
        // zero-fault identity holds, faults reach the recorder.
        assert!(failing(&numbers).is_empty(), "{:?}", numbers.gates());
        let calm = &numbers.sweep[0];
        assert_eq!(calm.intensity, 0.0);
        assert_eq!(calm.bare_availability, 1.0, "no faults, no failures");
        assert_eq!(calm.retries, 0, "nothing to retry at intensity 0");
        let json = json::parse(&numbers.to_json().to_string()).expect("artefact parses");
        assert_eq!(json["zero_fault_identical"], Value::Bool(true), "{json}");

        numbers.sweep[1].retry_availability = numbers.sweep[1].bare_availability;
        assert_eq!(failing(&numbers), ["intensity 0.5: retry availability beats bare"]);
    }
}
