//! Handoff blackouts.
//!
//! §5.2 of the paper: TCP over mobile networks "performs poorly due to
//! factors such as error-prone wireless channels, **frequent handoffs and
//! disconnections**". A handoff is modelled as a *blackout window*: for its
//! duration the radio link destroys every frame (the station is between
//! cells/APs and associated with neither); when it ends, listeners are
//! notified — which is precisely the "handoff completed" signal that the
//! fast-retransmission scheme of Caceres & Iftode \[2\] keys on.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::link::{Link, LinkParams, LossModel, Wire};
use simnet::stats::Counter;
use simnet::{SimDuration, Simulator};

/// A handoff-completion callback.
type Listener = Rc<dyn Fn(&mut Simulator)>;

/// Drives periodic handoff blackouts on one or more links.
///
/// The controller alternates its links between their normal parameters
/// and a blackout configuration (same rate, loss = certain drop).
/// Observers registered with [`HandoffController::on_complete`] fire at
/// the end of each blackout.
pub struct HandoffController<M> {
    links: RefCell<Vec<Rc<Link<M>>>>,
    normal: RefCell<Vec<LinkParams>>,
    period: SimDuration,
    blackout: SimDuration,
    in_blackout: std::cell::Cell<bool>,
    /// Number of completed handoffs.
    pub(crate) completed: Counter,
    listeners: RefCell<Vec<Listener>>,
}

impl<M> std::fmt::Debug for HandoffController<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandoffController")
            .field("period", &self.period)
            .field("blackout", &self.blackout)
            .field("completed", &self.completed.get())
            .finish()
    }
}

impl<M: Wire + 'static> HandoffController<M> {
    /// Creates a controller that, once [started](Self::start), blacks out
    /// `links` for `blackout` every `period` of simulated time, in
    /// lockstep — typically the two directions of a bidirectional radio
    /// hop, which a real handoff severs together.
    ///
    /// The links must have an RNG attached (blackouts use a stochastic
    /// always-drop model).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < blackout < period` and `links` is non-empty.
    pub fn over_links(
        links: Vec<Rc<Link<M>>>,
        period: SimDuration,
        blackout: SimDuration,
    ) -> Rc<Self> {
        assert!(!links.is_empty(), "need at least one link to control");
        assert!(!blackout.is_zero(), "blackout must be positive");
        assert!(
            blackout < period,
            "blackout must be shorter than the period"
        );
        let normal = links.iter().map(|l| l.params()).collect();
        Rc::new(HandoffController {
            links: RefCell::new(links),
            normal: RefCell::new(normal),
            period,
            blackout,
            in_blackout: std::cell::Cell::new(false),
            completed: Counter::new(),
            listeners: RefCell::new(Vec::new()),
        })
    }

    /// Registers a callback fired when each handoff completes.
    pub fn on_complete(&self, f: impl Fn(&mut Simulator) + 'static) {
        self.listeners.borrow_mut().push(Rc::new(f));
    }

    /// Begins the periodic handoff schedule. The first blackout starts one
    /// full period from now.
    pub fn start(self: &Rc<Self>, sim: &mut Simulator) {
        let ctl = Rc::clone(self);
        sim.schedule_in(self.period, move |sim| ctl.begin_blackout(sim));
    }

    /// Cuts every controlled link and saves its parameters. The caller
    /// schedules the matching [`Self::restore`].
    fn sever(&self, sim: &mut Simulator) {
        let _ = sim;
        let links = self.links.borrow();
        let mut saved = self.normal.borrow_mut();
        for (i, link) in links.iter().enumerate() {
            saved[i] = link.params();
            let mut params = saved[i].clone();
            params.loss = LossModel::Bernoulli { p: 1.0 };
            link.set_params(params);
        }
        self.in_blackout.set(true);
    }

    /// Restores every controlled link and notifies listeners.
    fn restore(self: Rc<Self>, sim: &mut Simulator) {
        for (link, params) in self.links.borrow().iter().zip(self.normal.borrow().iter()) {
            link.set_params(params.clone());
        }
        self.in_blackout.set(false);
        self.completed.incr();
        obs::metrics::incr("wireless.handoffs");
        let listeners: Vec<_> = self.listeners.borrow().clone();
        for l in listeners {
            l(sim);
        }
    }

    fn begin_blackout(self: Rc<Self>, sim: &mut Simulator) {
        if self.in_blackout.get() {
            // A forced handoff is already severing the links; saving their
            // parameters now would capture the blackout as "normal". Skip
            // this cycle and stay on the periodic schedule.
            let ctl = Rc::clone(&self);
            sim.schedule_in(self.period, move |sim| ctl.begin_blackout(sim));
            return;
        }
        // `sever` captures the latest "normal" parameters so
        // distance-driven rate changes made since the last handoff
        // survive restoration.
        self.sever(sim);
        obs::metrics::incr("wireless.handoffs_begun");

        let ctl = Rc::clone(&self);
        sim.schedule_in(self.blackout, move |sim| ctl.end_blackout(sim));
    }

    fn end_blackout(self: Rc<Self>, sim: &mut Simulator) {
        let ctl = Rc::clone(&self);
        self.restore(sim);
        let wait = ctl.period - ctl.blackout;
        sim.schedule_in(wait, move |sim| ctl.begin_blackout(sim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::rng_for;
    use simnet::SimTime;
    use std::cell::RefCell;

    #[allow(clippy::type_complexity)]
    fn lossless_link() -> (Rc<Link<Vec<u8>>>, Rc<RefCell<Vec<u64>>>) {
        let link = Link::with_rng(
            LinkParams::reliable(1_000_000, SimDuration::from_millis(1)),
            rng_for(11, "handoff.test"),
        );
        let got: Rc<RefCell<Vec<u64>>> = Rc::default();
        let sink = Rc::clone(&got);
        link.set_receiver(move |sim, _msg: Vec<u8>| sink.borrow_mut().push(sim.now().as_millis()));
        (link, got)
    }

    #[test]
    fn frames_die_during_blackout_and_flow_after() {
        let mut sim = Simulator::new();
        let (link, got) = lossless_link();
        let ctl = HandoffController::over_links(
            vec![Rc::clone(&link)],
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
        );
        ctl.start(&mut sim);

        // Send a frame every 100 ms (offset 50 ms to dodge boundary ties).
        for i in 0..30u64 {
            let link = Rc::clone(&link);
            sim.schedule_at(SimTime::from_millis(i * 100 + 50), move |sim| {
                link.send(sim, vec![0u8; 100]);
            });
        }
        sim.run_until(SimTime::from_millis(3_300));

        // Blackouts cover [1000,1200) and [2000,2200) within the send span:
        // frames at 1050,1150 and 2050,2150 die (4 of 30).
        assert_eq!(got.borrow().len(), 26);
        assert_eq!(ctl.completed.get(), 3);
        assert_eq!(link.dropped_loss.get(), 4);
    }

    #[test]
    fn completion_listeners_fire_at_blackout_end() {
        let mut sim = Simulator::new();
        let (link, _got) = lossless_link();
        let ctl = HandoffController::over_links(
            vec![link],
            SimDuration::from_secs(1),
            SimDuration::from_millis(100),
        );
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        let t = Rc::clone(&times);
        ctl.on_complete(move |sim| t.borrow_mut().push(sim.now().as_millis()));
        ctl.start(&mut sim);
        sim.run_until(SimTime::from_millis(2_500));
        assert_eq!(*times.borrow(), vec![1_100, 2_100]);
    }

    #[test]
    fn restoration_preserves_params_changed_during_normal_operation() {
        let mut sim = Simulator::new();
        let (link, _got) = lossless_link();
        let ctl = HandoffController::over_links(
            vec![Rc::clone(&link)],
            SimDuration::from_secs(1),
            SimDuration::from_millis(100),
        );
        ctl.start(&mut sim);
        // Halfway through the first normal period, the rate drops.
        {
            let link = Rc::clone(&link);
            sim.schedule_at(SimTime::from_millis(500), move |_| {
                let mut p = link.params();
                p.bandwidth_bps = 500_000;
                link.set_params(p);
            });
        }
        sim.run_until(SimTime::from_millis(1_050));
        assert!(ctl.in_blackout.get());
        sim.run_until(SimTime::from_millis(1_200));
        assert!(!ctl.in_blackout.get());
        assert_eq!(link.params().bandwidth_bps, 500_000);
        assert_eq!(link.params().loss, LossModel::None);
    }

    #[test]
    #[should_panic(expected = "shorter than the period")]
    fn blackout_longer_than_period_panics() {
        let (link, _got) = lossless_link();
        HandoffController::over_links(
            vec![link],
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        );
    }
}
