//! Packet-granularity fault driving: arms a [`Simulator`] timer wheel to
//! swap loss models onto live [`Link`]s at a plan's window boundaries.
//!
//! The frame-granularity world (`McSystem`) evaluates plans against its
//! own transaction clock; the packet-granularity world (the §5.2 TCP
//! experiments) instead schedules real events. [`arm`] translates the
//! wireless windows of a [`FaultPlan`]:
//!
//! * [`FaultKind::WirelessOutage`] → the link drops everything
//!   (`Bernoulli { p: 1.0 }`) until the window closes,
//! * [`FaultKind::LossBurst`] → a [Gilbert–Elliott burst
//!   channel][LossModel::Gilbert] whose bad-state drop probability is
//!   the per-frame corruption probability the burst's BER implies,
//!
//! restoring the link's original parameters when each window ends. The
//! mid-simulation `set_params` swap relies on links auto-seeding their
//! loss RNG when none was attached.

use std::rc::Rc;

use simnet::link::{Link, LinkParams, LossModel, Wire};
use simnet::{SimTime, Simulator};

use crate::plan::{FaultKind, FaultPlan};

/// Drop probability in the Gilbert bad state for a burst of the given
/// BER, evaluated for a full-MTU frame: `1 - (1 - ber)^(8 · 1500)`.
fn bad_state_loss(ber: f64) -> f64 {
    1.0 - (1.0 - ber).powi(8 * 1500)
}

/// Schedules every wireless window of `plan` against `link`.
///
/// Windows are interpreted on the simulator's clock starting at the
/// current time. Non-wireless faults (gateway, host, station) have no
/// packet-level meaning and are ignored here. Overlapping wireless
/// windows on the same link are not supported — each window restores the
/// baseline parameters captured when `arm` was called.
pub fn arm<M: Wire + 'static>(sim: &mut Simulator, plan: &FaultPlan, link: &Rc<Link<M>>) {
    let baseline: LinkParams = link.params();
    let origin = sim.now();
    for window in plan.windows() {
        let faulted = match window.kind {
            FaultKind::WirelessOutage => LossModel::Bernoulli { p: 1.0 },
            FaultKind::LossBurst { ber } => LossModel::Gilbert {
                p_enter_bad: 0.25,
                p_exit_bad: 0.25,
                loss_in_bad: bad_state_loss(ber).clamp(0.0, 1.0),
            },
            _ => continue,
        };
        let start = origin.saturating_add(simnet::SimDuration::from_nanos(window.start_ns));
        let end: SimTime = origin.saturating_add(simnet::SimDuration::from_nanos(window.end_ns()));
        {
            let link = Rc::clone(link);
            let mut params = baseline.clone();
            params.loss = faulted;
            sim.schedule_at(start, move |_| link.set_params(params.clone()));
        }
        {
            let link = Rc::clone(link);
            let params = baseline.clone();
            sim.schedule_at(end, move |_| link.set_params(params.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;
    use std::cell::RefCell;

    #[test]
    fn outage_window_drops_exactly_its_span() {
        let mut sim = Simulator::new();
        let link: Rc<Link<Vec<u8>>> =
            Link::new(LinkParams::reliable(1_000_000_000, SimDuration::ZERO));
        let got: Rc<RefCell<Vec<u64>>> = Rc::default();
        {
            let got = Rc::clone(&got);
            link.set_receiver(move |sim, _msg| got.borrow_mut().push(sim.now().as_millis()));
        }
        let plan = FaultPlan::none().window(
            SimDuration::from_millis(100),
            SimDuration::from_millis(200),
            FaultKind::WirelessOutage,
        );
        arm(&mut sim, &plan, &link);
        // One message every 50 ms for a second.
        for i in 0..20u64 {
            let link = Rc::clone(&link);
            sim.schedule_at(SimTime::from_millis(i * 50), move |sim| {
                link.send(sim, vec![0u8; 10]);
            });
        }
        sim.run();
        let got = got.borrow();
        // Sends at 100..300 ms vanish; everything else arrives.
        assert!(got.iter().all(|&t| !(100..300).contains(&t)), "{got:?}");
        assert_eq!(got.len(), 16, "{got:?}");
        assert_eq!(link.dropped_loss.get(), 4);
    }

    #[test]
    fn burst_window_loses_packets_only_inside_the_window() {
        let mut sim = Simulator::new();
        let link: Rc<Link<Vec<u8>>> =
            Link::new(LinkParams::reliable(1_000_000_000, SimDuration::ZERO));
        link.set_receiver(|_sim, _msg| {});
        let plan = FaultPlan::none().window(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            FaultKind::LossBurst { ber: 3e-4 },
        );
        arm(&mut sim, &plan, &link);
        let before = Rc::clone(&link);
        for i in 0..500u64 {
            let link = Rc::clone(&link);
            // 500 packets inside the window, none outside.
            sim.schedule_at(
                SimTime::from_millis(1000 + i * 2),
                move |sim| link.send(sim, vec![0u8; 1500]),
            );
        }
        sim.run();
        // bad_state_loss(3e-4) ≈ 0.97 and the chain spends ~half its time
        // bad, so a large fraction must drop...
        assert!(
            before.dropped_loss.get() > 100,
            "burst dropped only {}",
            before.dropped_loss.get()
        );
        // ...and after the window the link is clean again.
        let clean_before = before.delivered.get();
        for _ in 0..50 {
            before.send(&mut sim, vec![0u8; 1500]);
        }
        sim.run();
        assert_eq!(before.delivered.get(), clean_before + 50);
    }
}
