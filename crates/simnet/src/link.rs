//! Byte-accurate point-to-point link model.
//!
//! A [`Link`] is a unidirectional FIFO bottleneck: messages are serialised
//! at the configured bandwidth, wait behind earlier messages, suffer the
//! configured propagation delay, may be dropped by a drop-tail queue bound
//! or a stochastic [`LossModel`], and are finally handed to a receiver
//! callback inside the simulator. Bidirectional channels are simply two
//! links.
//!
//! `Link` is generic over the message type `M`, which only has to report
//! its size on the wire via [`Wire`]. The IP stack, the radio models and
//! the end-to-end system all reuse this one bottleneck implementation.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::RngExt;

use crate::sim::Simulator;
use crate::stats::Counter;
use crate::time::{SimDuration, SimTime};

/// Anything that can be sent over a [`Link`]: it must know its wire size.
pub trait Wire {
    /// The number of bytes this message occupies on the wire, including any
    /// protocol framing the sender has already added.
    fn wire_size(&self) -> usize;
}

impl Wire for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Wire for bytes::Bytes {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// Stochastic loss applied to each message independently of queue overflow.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// No random loss (queue overflow can still drop).
    None,
    /// Drop each message with fixed probability `p` (0.0 ..= 1.0).
    Bernoulli {
        /// Per-message drop probability.
        p: f64,
    },
    /// Drop derived from a bit-error rate: a message of `n` bytes survives
    /// with probability `(1 - ber)^(8n)` — the standard independent-bit
    /// channel used to model error-prone wireless links.
    BitError {
        /// Probability that any single bit is corrupted.
        ber: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss channel. In the *good* state
    /// messages survive; in the *bad* state they drop with `loss_in_bad`.
    /// Transitions happen per message.
    Gilbert {
        /// P(good → bad) per message.
        p_enter_bad: f64,
        /// P(bad → good) per message.
        p_exit_bad: f64,
        /// Drop probability while in the bad state.
        loss_in_bad: f64,
    },
}

impl LossModel {
    /// True when sampling this model consumes randomness (everything but
    /// [`LossModel::None`]).
    pub(crate) fn is_stochastic(&self) -> bool {
        !matches!(self, LossModel::None)
    }

    fn validate(&self) {
        let ok = |p: f64| (0.0..=1.0).contains(&p);
        let valid = match *self {
            LossModel::None => true,
            LossModel::Bernoulli { p } => ok(p),
            LossModel::BitError { ber } => ok(ber),
            LossModel::Gilbert {
                p_enter_bad,
                p_exit_bad,
                loss_in_bad,
            } => ok(p_enter_bad) && ok(p_exit_bad) && ok(loss_in_bad),
        };
        assert!(
            valid,
            "loss model probabilities must lie in [0, 1]: {self:?}"
        );
    }
}

/// Static configuration of a [`Link`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkParams {
    /// Serialisation rate in bits per second. Must be positive.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum number of messages in the transmitter (queued or being
    /// serialised) before drop-tail sets in.
    pub queue_capacity: usize,
    /// Stochastic loss model applied after queueing.
    pub loss: LossModel,
}

impl LinkParams {
    /// A convenient lossless link.
    pub fn reliable(bandwidth_bps: u64, propagation: SimDuration) -> Self {
        LinkParams {
            bandwidth_bps,
            propagation,
            queue_capacity: 256,
            loss: LossModel::None,
        }
    }

    /// Typical wired Internet path: 10 Mbps bottleneck, 20 ms propagation.
    pub fn wired_wan() -> Self {
        Self::reliable(10_000_000, SimDuration::from_millis(20))
    }
}

/// A delivery callback shared between the link and its scheduled events.
type Receiver<M> = Rc<dyn Fn(&mut Simulator, M)>;

/// Derives the deterministic fallback seed for a link that was given a
/// stochastic loss model but no RNG: a stable FNV-1a fold of the link
/// parameters. Identical parameters always yield the identical stream, so
/// auto-seeded links keep fixed-seed runs reproducible; links that need
/// *independent* streams should still call [`Link::set_rng`] with a
/// [`crate::rng::rng_for`]-derived RNG.
fn auto_seed(params: &LinkParams) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(params.bandwidth_bps);
    fold(params.propagation.as_nanos());
    fold(params.queue_capacity as u64);
    match params.loss {
        LossModel::None => fold(0),
        LossModel::Bernoulli { p } => {
            fold(1);
            fold(p.to_bits());
        }
        LossModel::BitError { ber } => {
            fold(2);
            fold(ber.to_bits());
        }
        LossModel::Gilbert {
            p_enter_bad,
            p_exit_bad,
            loss_in_bad,
        } => {
            fold(3);
            fold(p_enter_bad.to_bits());
            fold(p_exit_bad.to_bits());
            fold(loss_in_bad.to_bits());
        }
    }
    hash
}

fn auto_rng(params: &LinkParams) -> StdRng {
    crate::rng::rng_for(auto_seed(params), "link.autoseed")
}

struct LinkState<M> {
    /// Virtual time at which the transmitter becomes idle.
    tx_free_at: SimTime,
    /// Messages queued (not yet begun serialisation).
    queued: usize,
    gilbert_bad: bool,
    rng: Option<StdRng>,
    receiver: Option<Receiver<M>>,
}

/// A unidirectional bottleneck link carrying messages of type `M`.
///
/// ```
/// use std::rc::Rc;
/// use std::cell::RefCell;
/// use simnet::{Simulator, Link, LinkParams, SimDuration};
///
/// let mut sim = Simulator::new();
/// let link = Link::new(LinkParams::reliable(8_000, SimDuration::from_millis(10)));
/// let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
/// let sink = Rc::clone(&got);
/// link.set_receiver(move |_sim, msg| sink.borrow_mut().push(msg));
/// link.send(&mut sim, vec![0u8; 1000]); // 1000 B at 8 kbps = 1 s + 10 ms
/// sim.run();
/// assert_eq!(got.borrow().len(), 1);
/// assert_eq!(sim.now().as_millis(), 1010);
/// ```
pub struct Link<M> {
    params: RefCell<LinkParams>,
    state: RefCell<LinkState<M>>,
    /// Messages handed to [`Link::send`].
    pub(crate) offered: Counter,
    /// Messages delivered to the receiver.
    pub delivered: Counter,
    /// Messages dropped by queue overflow.
    pub(crate) dropped_queue: Counter,
    /// Messages dropped by the stochastic loss model.
    pub dropped_loss: Counter,
    /// Payload bytes delivered.
    pub bytes_delivered: Counter,
}

impl<M> fmt::Debug for Link<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link")
            .field("params", &*self.params.borrow())
            .field("offered", &self.offered.get())
            .field("delivered", &self.delivered.get())
            .finish()
    }
}

impl<M: Wire + 'static> Link<M> {
    /// Creates a link with the given parameters.
    ///
    /// If `params.loss` is stochastic and no RNG is ever attached via
    /// [`Link::set_rng`] / [`Link::with_rng`], the link deterministically
    /// auto-seeds one from a stable hash of its parameters, so a fault
    /// plan swapping a loss model onto a plain link mid-simulation keeps
    /// working — and keeps fixed-seed runs byte-identical. Attach an
    /// explicit RNG when several identically-configured links must see
    /// independent loss streams.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero or a probability is out of range.
    pub fn new(params: LinkParams) -> Rc<Self> {
        assert!(params.bandwidth_bps > 0, "link bandwidth must be positive");
        params.loss.validate();
        let rng = params.loss.is_stochastic().then(|| auto_rng(&params));
        Rc::new(Link {
            params: RefCell::new(params),
            state: RefCell::new(LinkState {
                tx_free_at: SimTime::ZERO,
                queued: 0,
                gilbert_bad: false,
                rng,
                receiver: None,
            }),
            offered: Counter::new(),
            delivered: Counter::new(),
            dropped_queue: Counter::new(),
            dropped_loss: Counter::new(),
            bytes_delivered: Counter::new(),
        })
    }

    /// Creates a link and attaches the RNG driving its loss model.
    pub fn with_rng(params: LinkParams, rng: StdRng) -> Rc<Self> {
        let link = Self::new(params);
        link.set_rng(rng);
        link
    }

    /// Attaches (or replaces) the RNG driving the loss model.
    pub fn set_rng(&self, rng: StdRng) {
        self.state.borrow_mut().rng = Some(rng);
    }

    /// Sets the delivery callback. Replaces any previous receiver.
    pub fn set_receiver(&self, receiver: impl Fn(&mut Simulator, M) + 'static) {
        self.state.borrow_mut().receiver = Some(Rc::new(receiver));
    }

    /// Current link parameters.
    pub fn params(&self) -> LinkParams {
        self.params.borrow().clone()
    }

    /// Replaces the link parameters mid-simulation.
    ///
    /// Used by the radio models to change rate/loss as a station moves.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Link::new`].
    pub fn set_params(&self, params: LinkParams) {
        assert!(params.bandwidth_bps > 0, "link bandwidth must be positive");
        params.loss.validate();
        if params.loss.is_stochastic() {
            // A link that has never needed randomness may be handed a
            // stochastic model mid-simulation (fault plans do exactly
            // this); auto-seed rather than letting the next send fail.
            let mut state = self.state.borrow_mut();
            if state.rng.is_none() {
                state.rng = Some(auto_rng(&params));
            }
        }
        *self.params.borrow_mut() = params;
    }

    /// Offers `msg` to the link at the current simulated time.
    ///
    /// The message is dropped (with the appropriate counter bumped) on queue
    /// overflow or stochastic loss; otherwise the receiver callback fires
    /// after queueing + serialisation + propagation.
    pub fn send(self: &Rc<Self>, sim: &mut Simulator, msg: M) {
        self.offered.incr();
        let size = msg.wire_size();
        let params = self.params.borrow().clone();

        {
            let state = self.state.borrow();
            if state.queued >= params.queue_capacity {
                drop(state);
                self.dropped_queue.incr();
                crate::metrics::incr("link.dropped_queue");
                return;
            }
        }

        if self.sample_loss(&params, size) {
            self.dropped_loss.incr();
            crate::metrics::incr("link.dropped_loss");
            return;
        }

        let ser = SimDuration::transmission(size, params.bandwidth_bps);
        let (deliver_at, depart_at) = {
            let mut state = self.state.borrow_mut();
            let start = state.tx_free_at.max(sim.now());
            let depart = start + ser;
            state.tx_free_at = depart;
            state.queued += 1;
            (depart + params.propagation, depart)
        };

        let link = Rc::clone(self);
        sim.schedule_at(depart_at, move |_| {
            link.state.borrow_mut().queued -= 1;
        });

        let link = Rc::clone(self);
        sim.schedule_at(deliver_at, move |sim| {
            let receiver = link.state.borrow().receiver.clone();
            let Some(receiver) = receiver else {
                return; // no receiver attached: message evaporates
            };
            link.delivered.incr();
            link.bytes_delivered.add(size as u64);
            crate::metrics::incr("link.delivered");
            receiver(sim, msg);
        });
    }

    /// Samples the stochastic loss model for a message of `size` bytes.
    /// Returns `true` when the message should be dropped.
    fn sample_loss(&self, params: &LinkParams, size: usize) -> bool {
        if matches!(params.loss, LossModel::None) {
            return false;
        }
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        // Belt and braces: `new`/`set_params` already auto-seed, but a
        // caller mutating loss through some future path must never panic
        // mid-simulation over a missing RNG.
        let rng = state.rng.get_or_insert_with(|| auto_rng(params));
        match params.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.random_bool(p),
            LossModel::BitError { ber } => {
                // A message of n bytes survives iff all 8n bits survive:
                // P(survive) = (1 - ber)^(8n).
                let survive = (1.0 - ber).powi((size as i32).saturating_mul(8).max(1));
                !rng.random_bool(survive.clamp(0.0, 1.0))
            }
            LossModel::Gilbert {
                p_enter_bad,
                p_exit_bad,
                loss_in_bad,
            } => {
                if state.gilbert_bad {
                    if rng.random_bool(p_exit_bad) {
                        state.gilbert_bad = false;
                    }
                } else if rng.random_bool(p_enter_bad) {
                    state.gilbert_bad = true;
                }
                state.gilbert_bad && rng.random_bool(loss_in_bad)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;
    use std::cell::RefCell;

    #[allow(clippy::type_complexity)]
    fn collect_link(params: LinkParams) -> (Rc<Link<Vec<u8>>>, Rc<RefCell<Vec<(u64, usize)>>>) {
        let link = Link::new(params);
        let got: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        let sink = Rc::clone(&got);
        link.set_receiver(move |sim, msg: Vec<u8>| {
            sink.borrow_mut().push((sim.now().as_micros(), msg.len()));
        });
        (link, got)
    }

    #[test]
    fn delivery_time_is_queue_plus_ser_plus_prop() {
        let mut sim = Simulator::new();
        // 1 Mbps, 5 ms propagation: 1250-byte message = 10 ms serialisation.
        let (link, got) =
            collect_link(LinkParams::reliable(1_000_000, SimDuration::from_millis(5)));
        link.send(&mut sim, vec![0u8; 1250]);
        link.send(&mut sim, vec![0u8; 1250]); // queues behind the first
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 15_000); // 10 ms ser + 5 ms prop
        assert_eq!(got[1].0, 25_000); // waits 10 ms, then 10 + 5
    }

    #[test]
    fn pipeline_overlaps_serialisation_and_propagation() {
        let mut sim = Simulator::new();
        // Long propagation: second message departs before first arrives.
        let (link, got) = collect_link(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(50),
        ));
        link.send(&mut sim, vec![0u8; 1250]); // 1 ms ser
        link.send(&mut sim, vec![0u8; 1250]);
        sim.run();
        let got = got.borrow();
        assert_eq!(got[0].0, 51_000);
        assert_eq!(got[1].0, 52_000);
    }

    #[test]
    fn queue_overflow_drops_tail() {
        let mut sim = Simulator::new();
        let mut params = LinkParams::reliable(8_000, SimDuration::ZERO); // 1 B/ms
        params.queue_capacity = 2;
        let (link, got) = collect_link(params);
        for _ in 0..5 {
            link.send(&mut sim, vec![0u8; 100]);
        }
        sim.run();
        // capacity 2 + the nothing-special first message still count queued
        // until their departure events fire, so 2 of 5 are dropped at least.
        assert_eq!(link.offered.get(), 5);
        assert_eq!(link.dropped_queue.get() + got.borrow().len() as u64, 5);
        assert!(link.dropped_queue.get() >= 2);
    }

    #[test]
    fn bernoulli_loss_rate_is_respected() {
        let mut sim = Simulator::new();
        let mut params = LinkParams::reliable(1_000_000_000, SimDuration::ZERO);
        params.loss = LossModel::Bernoulli { p: 0.3 };
        params.queue_capacity = 100_000;
        let (link, got) = collect_link(params);
        link.set_rng(rng_for(1, "test.bernoulli"));
        for _ in 0..10_000 {
            link.send(&mut sim, vec![0u8; 10]);
        }
        sim.run();
        let delivered = got.borrow().len() as f64;
        let rate = 1.0 - delivered / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn bit_error_loss_scales_with_size() {
        let mut sim = Simulator::new();
        let mut params = LinkParams::reliable(1_000_000_000, SimDuration::ZERO);
        params.loss = LossModel::BitError { ber: 1e-4 };
        params.queue_capacity = 100_000;
        let (link_small, got_small) = collect_link(params.clone());
        let (link_big, got_big) = collect_link(params);
        link_small.set_rng(rng_for(2, "test.ber.small"));
        link_big.set_rng(rng_for(2, "test.ber.big"));
        for _ in 0..3000 {
            link_small.send(&mut sim, vec![0u8; 50]);
            link_big.send(&mut sim, vec![0u8; 1500]);
        }
        sim.run();
        // 50 B ⇒ survive ≈ 0.96; 1500 B ⇒ survive ≈ 0.30
        let s = got_small.borrow().len() as f64 / 3000.0;
        let b = got_big.borrow().len() as f64 / 3000.0;
        assert!(s > 0.92, "small-frame survival {s}");
        assert!(b < 0.40, "large-frame survival {b}");
        assert!(s > b + 0.4);
    }

    #[test]
    fn gilbert_losses_come_in_bursts() {
        let mut sim = Simulator::new();
        let mut params = LinkParams::reliable(1_000_000_000, SimDuration::ZERO);
        params.loss = LossModel::Gilbert {
            p_enter_bad: 0.01,
            p_exit_bad: 0.2,
            loss_in_bad: 0.9,
        };
        params.queue_capacity = 100_000;
        let (link, got) = collect_link(params);
        link.set_rng(rng_for(3, "test.gilbert"));
        let n = 20_000;
        for i in 0..n {
            link.send(&mut sim, vec![i as u8; 10]);
        }
        sim.run();
        let delivered = got.borrow().len();
        let lost = n - delivered;
        // Stationary bad-state probability ≈ 0.01/(0.01+0.2) ≈ 4.8%, so loss
        // ≈ 4.3%; and losses must cluster (more than isolated-drop entropy).
        let rate = lost as f64 / n as f64;
        assert!(rate > 0.01 && rate < 0.10, "gilbert loss rate {rate}");
    }

    #[test]
    fn set_params_changes_future_sends() {
        let mut sim = Simulator::new();
        let (link, got) = collect_link(LinkParams::reliable(1_000_000, SimDuration::ZERO));
        link.send(&mut sim, vec![0u8; 1250]); // 10 ms at 1 Mbps
        sim.run();
        link.set_params(LinkParams::reliable(10_000_000, SimDuration::ZERO));
        link.send(&mut sim, vec![0u8; 1250]); // 1 ms at 10 Mbps
        sim.run();
        let got = got.borrow();
        assert_eq!(got[0].0, 10_000);
        assert_eq!(got[1].0, 11_000);
    }

    #[test]
    fn stochastic_loss_without_rng_auto_seeds_deterministically() {
        // Regression: this used to panic via `expect`. Two links with
        // identical parameters and no explicit RNG must now (a) work and
        // (b) produce the identical loss pattern.
        let run = || {
            let mut sim = Simulator::new();
            let mut params = LinkParams::reliable(1_000_000_000, SimDuration::ZERO);
            params.loss = LossModel::Bernoulli { p: 0.5 };
            params.queue_capacity = 10_000;
            let (link, got) = collect_link(params);
            for _ in 0..1000 {
                link.send(&mut sim, vec![0u8; 10]);
            }
            sim.run();
            let delivered = got.borrow().len();
            (delivered, link.dropped_loss.get())
        };
        let (a_delivered, a_lost) = run();
        let (b_delivered, b_lost) = run();
        assert_eq!(a_delivered, b_delivered);
        assert_eq!(a_lost, b_lost);
        assert!(a_delivered > 0 && a_lost > 0, "p=0.5 must drop some");
    }

    #[test]
    fn set_params_swap_to_stochastic_auto_seeds() {
        // The fault-plan case: a reliable link is handed a burst-loss
        // model mid-simulation without anyone attaching an RNG.
        let mut sim = Simulator::new();
        let (link, got) = collect_link(LinkParams::reliable(1_000_000_000, SimDuration::ZERO));
        link.send(&mut sim, vec![0u8; 10]);
        sim.run();
        let mut params = link.params();
        params.loss = LossModel::Gilbert {
            p_enter_bad: 0.3,
            p_exit_bad: 0.1,
            loss_in_bad: 1.0,
        };
        params.queue_capacity = 10_000;
        link.set_params(params);
        for _ in 0..500 {
            link.send(&mut sim, vec![0u8; 10]);
        }
        sim.run();
        assert!(link.dropped_loss.get() > 0, "burst model never dropped");
        assert!(got.borrow().len() > 1, "burst model dropped everything");
    }

    #[test]
    fn counters_track_bytes() {
        let mut sim = Simulator::new();
        let (link, _got) = collect_link(LinkParams::reliable(1_000_000, SimDuration::ZERO));
        link.send(&mut sim, vec![0u8; 100]);
        link.send(&mut sim, vec![0u8; 200]);
        sim.run();
        assert_eq!(link.bytes_delivered.get(), 300);
        assert_eq!(link.delivered.get(), 2);
    }
}
