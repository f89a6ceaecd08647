//! A radio channel whose quality follows the station's position.
//!
//! [`RadioLink`] couples a [`simnet::Link`] to a [`WlanStandard`]: as the
//! station's distance from the access point changes, the link's bandwidth
//! steps down the standard's auto-rate tiers and its bit-error rate rises,
//! exactly as [`WlanStandard::rate_at`] / [`WlanStandard::ber_at`]
//! prescribe. Out of range, the channel becomes useless (BER 0.5) rather
//! than cleanly absent — matching how a fading radio actually fails.

use std::rc::Rc;

use simnet::link::{Link, LinkParams, LossModel, Wire};
use simnet::rng::rng_for;
use simnet::Simulator;

use crate::wlan::WlanStandard;

/// A frame on the air: payload plus MAC/PHY overhead.
#[derive(Debug, Clone)]
pub(crate) struct Framed<M> {
    /// The carried message.
    pub(crate) inner: M,
    overhead: usize,
}

impl<M: Wire> Wire for Framed<M> {
    fn wire_size(&self) -> usize {
        self.inner.wire_size() + self.overhead
    }
}

/// A distance-aware wireless channel for messages of type `M`.
///
/// ```
/// use simnet::Simulator;
/// use wireless::{RadioLink, WlanStandard};
///
/// let mut sim = Simulator::new();
/// let radio: std::rc::Rc<RadioLink<Vec<u8>>> =
///     RadioLink::new(WlanStandard::Dot11b, 10.0, 42);
/// assert_eq!(radio.current_rate_bps(), 11_000_000);
/// radio.set_distance(95.0); // near the coverage edge
/// assert_eq!(radio.current_rate_bps(), 1_000_000);
/// # let _ = &mut sim;
/// ```
pub struct RadioLink<M> {
    link: Rc<Link<Framed<M>>>,
    standard: WlanStandard,
    distance_m: std::cell::Cell<f64>,
}

impl<M: Wire + 'static> std::fmt::Debug for RadioLink<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadioLink")
            .field("standard", &self.standard.name())
            .field("distance_m", &self.distance_m.get())
            .field("rate_bps", &self.link.params().bandwidth_bps)
            .finish()
    }
}

impl<M: Wire + 'static> RadioLink<M> {
    /// Creates a channel on `standard` with the station `distance_m` metres
    /// from the access point. `seed` drives the loss process.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative.
    pub fn new(standard: WlanStandard, distance_m: f64, seed: u64) -> Rc<Self> {
        assert!(distance_m >= 0.0, "distance must be non-negative");
        let params = Self::params_for(standard, distance_m);
        let link = Link::with_rng(params, rng_for(seed, "radio.loss"));
        Rc::new(RadioLink {
            link,
            standard,
            distance_m: std::cell::Cell::new(distance_m),
        })
    }

    fn params_for(standard: WlanStandard, distance_m: f64) -> LinkParams {
        standard.link_params_at(distance_m).unwrap_or_else(|| {
            // Out of range: the radio still transmits at its lowest tier but
            // the channel destroys essentially every frame.
            LinkParams {
                bandwidth_bps: *standard.rate_tiers().last().expect("tiers nonempty"),
                propagation: standard.access_delay(),
                queue_capacity: 64,
                loss: LossModel::BitError { ber: 0.5 },
            }
        })
    }

    /// Whether the station is inside the standard's coverage.
    pub fn in_range(&self) -> bool {
        self.standard.rate_at(self.distance_m.get()).is_some()
    }

    /// The PHY rate currently in effect (lowest tier when out of range).
    pub fn current_rate_bps(&self) -> u64 {
        self.link.params().bandwidth_bps
    }

    /// Moves the station, updating rate and error model.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative.
    pub fn set_distance(&self, distance_m: f64) {
        assert!(distance_m >= 0.0, "distance must be non-negative");
        self.distance_m.set(distance_m);
        self.link
            .set_params(Self::params_for(self.standard, distance_m));
    }

    /// Sets the frame receiver (payloads are unwrapped from their frames).
    pub fn set_receiver(&self, receiver: impl Fn(&mut Simulator, M) + 'static) {
        self.link
            .set_receiver(move |sim, framed: Framed<M>| receiver(sim, framed.inner));
    }

    /// Transmits `msg`, charging the standard's per-frame overhead.
    pub fn send(self: &Rc<Self>, sim: &mut Simulator, msg: M) {
        let framed = Framed {
            inner: msg,
            overhead: self.standard.frame_overhead_bytes(),
        };
        self.link.send(sim, framed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[allow(clippy::type_complexity)]
    fn radio_with_sink(
        standard: WlanStandard,
        distance: f64,
    ) -> (Rc<RadioLink<Vec<u8>>>, Rc<RefCell<Vec<usize>>>) {
        let radio = RadioLink::new(standard, distance, 7);
        let got: Rc<RefCell<Vec<usize>>> = Rc::default();
        let sink = Rc::clone(&got);
        radio.set_receiver(move |_sim, msg: Vec<u8>| sink.borrow_mut().push(msg.len()));
        (radio, got)
    }

    #[test]
    fn close_station_gets_full_rate_and_delivery() {
        let mut sim = Simulator::new();
        let (radio, got) = radio_with_sink(WlanStandard::Dot11b, 5.0);
        assert_eq!(radio.current_rate_bps(), 11_000_000);
        for _ in 0..50 {
            radio.send(&mut sim, vec![0u8; 500]);
        }
        sim.run();
        // BER 1e-6 on ~4000-bit frames: ≥ 95% delivery expected.
        assert!(got.borrow().len() >= 48, "delivered {}", got.borrow().len());
        // Payload is unwrapped from framing.
        assert!(got.borrow().iter().all(|&n| n == 500));
    }

    #[test]
    fn out_of_range_station_gets_nothing() {
        let mut sim = Simulator::new();
        let (radio, got) = radio_with_sink(WlanStandard::Bluetooth, 50.0);
        assert!(!radio.in_range());
        for _ in 0..50 {
            radio.send(&mut sim, vec![0u8; 200]);
        }
        sim.run();
        assert_eq!(got.borrow().len(), 0);
    }

    #[test]
    fn moving_changes_rate_dynamically() {
        let (radio, _got) = radio_with_sink(WlanStandard::Dot11g, 10.0);
        assert_eq!(radio.current_rate_bps(), 54_000_000);
        radio.set_distance(149.0);
        assert_eq!(radio.current_rate_bps(), 6_000_000);
        assert!((radio.distance_m.get() - 149.0).abs() < f64::EPSILON);
        radio.set_distance(10.0);
        assert_eq!(radio.current_rate_bps(), 54_000_000);
    }

    #[test]
    fn framing_overhead_is_charged_on_the_wire() {
        let mut sim = Simulator::new();
        let (radio, _got) = radio_with_sink(WlanStandard::Dot11b, 5.0);
        radio.send(&mut sim, vec![0u8; 500]);
        sim.run();
        assert_eq!(
            radio.link.bytes_delivered.get(),
            500 + WlanStandard::Dot11b.frame_overhead_bytes() as u64
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulator::new();
            let (radio, got) = radio_with_sink(WlanStandard::Dot11b, 90.0);
            for _ in 0..200 {
                radio.send(&mut sim, vec![0u8; 700]);
            }
            sim.run();
            let delivered = got.borrow().len();
            delivered
        };
        assert_eq!(run(), run());
    }
}
