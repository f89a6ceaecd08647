//! Hop cost models for end-to-end transactions.
//!
//! The protocol crates (`transport`, `netstack`) exercise the network at
//! packet granularity; the end-to-end system runs *thousands* of
//! transactions per experiment, so each hop is modelled at frame
//! granularity with the same primitives (serialisation at the standard's
//! rate, per-frame loss from the standard's BER, link-layer ARQ
//! retransmissions) — stochastic and byte-accurate, but O(frames) per
//! transfer instead of O(events).

use rand::rngs::StdRng;
use rand::RngExt;

use simnet::SimDuration;
use wireless::energy::EnergyModel;
use wireless::{CellularStandard, WlanStandard};

/// Maximum over-the-air frame payload in bytes.
pub(crate) const AIR_MTU: usize = 1_500;

/// Link-layer retransmission limit per frame (802.11-style ARQ).
pub(crate) const ARQ_RETRY_LIMIT: u32 = 7;

/// Which wireless network carries the air hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WirelessConfig {
    /// A WLAN standard with the station at a given distance from the AP.
    Wlan {
        /// The standard (Table 4).
        standard: WlanStandard,
        /// Station-to-AP distance in metres.
        distance_m: f64,
    },
    /// A cellular standard (Table 5).
    Cellular {
        /// The standard.
        standard: CellularStandard,
    },
}

impl WirelessConfig {
    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            WirelessConfig::Wlan {
                standard,
                distance_m,
            } => {
                format!("{standard} @ {distance_m} m")
            }
            WirelessConfig::Cellular { standard } => standard.to_string(),
        }
    }

    /// Builds the air link, or `None` when the configuration cannot carry
    /// data (out of WLAN range, or analog 1G cellular).
    pub fn air_link(&self) -> Option<AirLink> {
        match *self {
            WirelessConfig::Wlan {
                standard,
                distance_m,
            } => {
                let rate = standard.rate_at(distance_m)?;
                Some(AirLink::new(
                    rate,
                    standard.access_delay(),
                    standard.ber_at(distance_m),
                    standard.frame_overhead_bytes(),
                    SimDuration::ZERO,
                    EnergyModel::wlan(standard),
                ))
            }
            WirelessConfig::Cellular { standard } => {
                let rate = standard.data_rate_bps()?;
                Some(AirLink::new(
                    rate,
                    standard.ran_latency(),
                    standard.ber(),
                    24,
                    standard.session_setup(),
                    EnergyModel::cellular(standard),
                ))
            }
        }
    }
}

/// Result of pushing a payload across a hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopTransfer {
    /// Time from first bit to last delivered bit.
    pub elapsed: SimDuration,
    /// Bytes that crossed the medium, including framing and
    /// retransmissions.
    pub bytes_on_medium: u64,
    /// Frames retransmitted by ARQ.
    pub retransmissions: u32,
    /// True when a frame exhausted its retry budget (transfer failed).
    pub failed: bool,
}

/// The wireless hop: rate, access delay, BER-driven ARQ, session setup.
///
/// The rate, the BER and the framing overhead fix the link's fragment
/// size and the price of a full fragment (its delivery probability and
/// airtime), so the link prices them once, when it is built, and again
/// only when `AirLink::raise_ber` changes the BER.
#[derive(Debug, Clone, Copy)]
pub struct AirLink {
    /// MAC access / RAN latency charged per frame exchange.
    pub(crate) access_delay: SimDuration,
    /// One-time session setup (circuit dialling / packet activation).
    pub(crate) session_setup: SimDuration,
    /// Energy prices for this radio.
    pub(crate) energy: EnergyModel,
    rate_bps: u64,
    ber: f64,
    frame_overhead: usize,
    /// [`AirLink::fragment_payload`], priced from the fields above.
    fragment: usize,
    /// A full fragment's delivery probability and one attempt's airtime.
    full: (f64, SimDuration),
}

impl AirLink {
    /// A link at `rate_bps` with residual bit-error rate `ber` and
    /// `frame_overhead` bytes of framing per frame, its fragment size
    /// and full-fragment price worked out once.
    fn new(
        rate_bps: u64,
        access_delay: SimDuration,
        ber: f64,
        frame_overhead: usize,
        session_setup: SimDuration,
        energy: EnergyModel,
    ) -> Self {
        let mut link = AirLink {
            access_delay,
            session_setup,
            energy,
            rate_bps,
            ber,
            frame_overhead,
            fragment: AIR_MTU,
            full: (1.0, SimDuration::ZERO),
        };
        link.price();
        link
    }

    /// Works out the fragment size and a full fragment's price from the
    /// rate, the BER and the framing overhead.
    fn price(&mut self) {
        self.fragment = if self.ber <= 0.0 {
            AIR_MTU
        } else {
            // Solve (1-ber)^(8·(payload+overhead)) = 0.9 for payload.
            let total_bytes = (0.9f64.ln() / (1.0 - self.ber).ln()) / 8.0;
            ((total_bytes as usize).saturating_sub(self.frame_overhead)).clamp(64, AIR_MTU)
        };
        self.full = self.frame_price(self.fragment);
    }

    /// PHY rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Framing overhead per frame, bytes.
    pub fn frame_overhead(&self) -> usize {
        self.frame_overhead
    }

    /// Raises the residual bit-error rate to `ber` if that is higher (a
    /// loss burst), and re-prices the link only then.
    pub(crate) fn raise_ber(&mut self, ber: f64) {
        if ber > self.ber {
            self.ber = ber;
            self.price();
        }
    }

    /// Per-frame delivery probability for a frame of `bytes` payload.
    fn frame_success_probability(&self, bytes: usize) -> f64 {
        (1.0 - self.ber).powi(((bytes + self.frame_overhead) * 8) as i32)
    }

    /// A frame of `bytes` payload: its delivery probability and one
    /// attempt's airtime.
    fn frame_price(&self, bytes: usize) -> (f64, SimDuration) {
        (
            self.frame_success_probability(bytes).clamp(0.0, 1.0),
            SimDuration::transmission(bytes + self.frame_overhead, self.rate_bps),
        )
    }

    /// The fragment payload size the link uses: on clean channels the full
    /// MTU; on error-prone channels, fragments sized so each survives with
    /// probability ≥ 0.9 (802.11-style fragmentation-threshold adaptation,
    /// floored at 64 bytes).
    pub fn fragment_payload(&self) -> usize {
        self.fragment
    }

    /// Transfers `bytes` across the air: frames are pipelined (the MAC
    /// access delay is charged once per transfer), every ARQ
    /// retransmission costs its airtime again plus one access delay, and
    /// a frame exhausting `ARQ_RETRY_LIMIT` fails the transfer.
    pub fn transfer(&self, bytes: usize, rng: &mut StdRng) -> HopTransfer {
        if bytes == 0 {
            return HopTransfer {
                elapsed: self.access_delay,
                bytes_on_medium: 0,
                retransmissions: 0,
                failed: false,
            };
        }
        let fragment = self.fragment;
        let mut elapsed = self.access_delay;
        let mut on_medium = 0u64;
        let mut retransmissions = 0u32;
        let mut remaining = bytes;
        while remaining > 0 {
            let frame = remaining.min(fragment);
            // Every frame but the last carries a full fragment, priced
            // with the link; only a shorter last frame is priced here.
            let (p, airtime) = if frame == fragment {
                self.full
            } else {
                self.frame_price(frame)
            };
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                elapsed += airtime;
                if attempts > 1 {
                    // Recovery costs a fresh channel access.
                    elapsed += self.access_delay;
                }
                on_medium += (frame + self.frame_overhead) as u64;
                if rng.random_bool(p) {
                    break;
                }
                if attempts > ARQ_RETRY_LIMIT {
                    return HopTransfer {
                        elapsed,
                        bytes_on_medium: on_medium,
                        retransmissions: retransmissions + attempts - 1,
                        failed: true,
                    };
                }
            }
            retransmissions += attempts - 1;
            remaining -= frame;
        }
        HopTransfer {
            elapsed,
            bytes_on_medium: on_medium,
            retransmissions,
            failed: false,
        }
    }

    /// Energy to move `transfer` in the transmit direction.
    pub(crate) fn tx_energy(&self, transfer: &HopTransfer) -> f64 {
        self.energy.tx_cost(transfer.bytes_on_medium)
    }

    /// Energy to move `transfer` in the receive direction.
    pub(crate) fn rx_energy(&self, transfer: &HopTransfer) -> f64 {
        self.energy.rx_cost(transfer.bytes_on_medium)
    }
}

/// The wired path between middleware/client and the host computer.
#[derive(Debug, Clone, Copy)]
pub struct WiredPath {
    /// Bottleneck bandwidth in bits per second.
    pub(crate) rate_bps: u64,
    /// One-way latency.
    pub latency: SimDuration,
}

impl WiredPath {
    /// A LAN-grade path (100 Mbps, 2 ms).
    pub fn lan() -> Self {
        WiredPath {
            rate_bps: 100_000_000,
            latency: SimDuration::from_millis(2),
        }
    }

    /// An Internet-grade path (10 Mbps bottleneck, 20 ms).
    pub fn wan() -> Self {
        WiredPath {
            rate_bps: 10_000_000,
            latency: SimDuration::from_millis(20),
        }
    }

    /// Time to move `bytes` one way (lossless).
    pub fn transfer(&self, bytes: usize) -> SimDuration {
        SimDuration::transmission(bytes, self.rate_bps) + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simnet::rng::rng_for;

    /// The fragment size worked out from the link's BER on every call.
    fn per_frame_fragment(link: &AirLink) -> usize {
        if link.ber <= 0.0 {
            return AIR_MTU;
        }
        let total_bytes = (0.9f64.ln() / (1.0 - link.ber).ln()) / 8.0;
        ((total_bytes as usize).saturating_sub(link.frame_overhead)).clamp(64, AIR_MTU)
    }

    /// [`AirLink::transfer`] pricing every frame on its own: the oracle
    /// for pricing the fragment size and a full fragment once per link.
    fn per_frame_transfer(link: &AirLink, bytes: usize, rng: &mut StdRng) -> HopTransfer {
        if bytes == 0 {
            return HopTransfer {
                elapsed: link.access_delay,
                bytes_on_medium: 0,
                retransmissions: 0,
                failed: false,
            };
        }
        let fragment = per_frame_fragment(link);
        let mut elapsed = link.access_delay;
        let mut on_medium = 0u64;
        let mut retransmissions = 0u32;
        let mut remaining = bytes;
        while remaining > 0 {
            let frame = remaining.min(fragment);
            let p = link.frame_success_probability(frame).clamp(0.0, 1.0);
            let airtime = SimDuration::transmission(frame + link.frame_overhead, link.rate_bps);
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                elapsed += airtime;
                if attempts > 1 {
                    elapsed += link.access_delay;
                }
                on_medium += (frame + link.frame_overhead) as u64;
                if rng.random_bool(p) {
                    break;
                }
                if attempts > ARQ_RETRY_LIMIT {
                    return HopTransfer {
                        elapsed,
                        bytes_on_medium: on_medium,
                        retransmissions: retransmissions + attempts - 1,
                        failed: true,
                    };
                }
            }
            retransmissions += attempts - 1;
            remaining -= frame;
        }
        HopTransfer {
            elapsed,
            bytes_on_medium: on_medium,
            retransmissions,
            failed: false,
        }
    }

    proptest! {
        #[test]
        fn pricing_once_per_link_equals_pricing_every_frame(
            bytes in 0usize..60_000,
            ber in prop_oneof![Just(0.0), (-8.0f64..-3.0).prop_map(|e| 10f64.powf(e))],
            rate_bps in 9_600u64..54_000_000,
            frame_overhead in 0usize..64,
            burst in prop_oneof![Just(None), (-8.0f64..-3.0).prop_map(|e| Some(10f64.powf(e)))],
            seed in any::<u64>(),
        ) {
            let gprs = WirelessConfig::Cellular {
                standard: CellularStandard::Gprs,
            }
            .air_link()
            .unwrap();
            let mut link = AirLink::new(
                rate_bps,
                gprs.access_delay,
                ber,
                frame_overhead,
                gprs.session_setup,
                gprs.energy,
            );
            // A loss burst re-prices the link only if it raises the BER.
            if let Some(burst) = burst {
                link.raise_ber(burst);
                prop_assert_eq!(link.ber, ber.max(burst));
            }
            let mut rng = rng_for(seed, "t");
            let mut oracle_rng = rng_for(seed, "t");
            prop_assert_eq!(
                link.transfer(bytes, &mut rng),
                per_frame_transfer(&link, bytes, &mut oracle_rng)
            );
            // Both consumed the same draws.
            prop_assert_eq!(rng.random::<u64>(), oracle_rng.random::<u64>());
        }
    }

    #[test]
    fn clean_wlan_transfer_matches_arithmetic() {
        let link = WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 10.0,
        }
        .air_link()
        .unwrap();
        let mut rng = rng_for(1, "t");
        let t = link.transfer(1_466, &mut rng); // one full frame payload
        assert!(!t.failed);
        assert_eq!(t.retransmissions, 0);
        assert_eq!(t.bytes_on_medium, 1_500);
        // 1500 B at 11 Mbps ≈ 1.09 ms plus 0.4 ms access delay.
        let expected = SimDuration::transmission(1_500, 11_000_000) + link.access_delay;
        assert_eq!(t.elapsed, expected);
    }

    #[test]
    fn lossy_edge_of_coverage_forces_retransmissions() {
        let link = WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 100.0,
        }
        .air_link()
        .unwrap();
        let mut rng = rng_for(2, "t");
        // At BER 1e-4 a 1500-byte frame survives with p ≈ 0.30: pushing
        // 100 KB must retransmit heavily.
        let t = link.transfer(100_000, &mut rng);
        assert!(
            !t.failed,
            "ARQ with fragmentation should still get it through"
        );
        assert!(
            t.retransmissions > 50,
            "retransmissions {}",
            t.retransmissions
        );
        // Fragmentation overhead + retransmissions inflate on-air bytes.
        assert!(t.bytes_on_medium > 135_000, "bytes {}", t.bytes_on_medium);
        // Fragments shrank well below the MTU to survive the BER.
        assert!(link.fragment_payload() < 200);
    }

    #[test]
    fn out_of_range_and_analog_standards_have_no_link() {
        assert!(WirelessConfig::Wlan {
            standard: WlanStandard::Bluetooth,
            distance_m: 50.0
        }
        .air_link()
        .is_none());
        assert!(WirelessConfig::Cellular {
            standard: CellularStandard::Amps
        }
        .air_link()
        .is_none());
    }

    #[test]
    fn cellular_setup_and_latency_dominate_small_transfers() {
        let gsm = WirelessConfig::Cellular {
            standard: CellularStandard::Gsm,
        }
        .air_link()
        .unwrap();
        let wifi = WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 10.0,
        }
        .air_link()
        .unwrap();
        assert!(gsm.session_setup > SimDuration::from_secs(1));
        assert_eq!(wifi.session_setup, SimDuration::ZERO);
        let mut rng = rng_for(3, "t");
        let t_gsm = gsm.transfer(500, &mut rng);
        let t_wifi = wifi.transfer(500, &mut rng);
        assert!(t_gsm.elapsed > t_wifi.elapsed * 10);
    }

    #[test]
    fn faster_standards_move_bulk_faster() {
        let mut rng = rng_for(4, "t");
        let slow = WirelessConfig::Cellular {
            standard: CellularStandard::Gprs,
        }
        .air_link()
        .unwrap()
        .transfer(200_000, &mut rng);
        let fast = WirelessConfig::Cellular {
            standard: CellularStandard::Wcdma,
        }
        .air_link()
        .unwrap()
        .transfer(200_000, &mut rng);
        assert!(slow.elapsed > fast.elapsed * 5);
    }

    #[test]
    fn energy_scales_with_bytes_on_medium() {
        let link = WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 10.0,
        }
        .air_link()
        .unwrap();
        let mut rng = rng_for(5, "t");
        let small = link.transfer(1_000, &mut rng);
        let big = link.transfer(100_000, &mut rng);
        assert!(link.tx_energy(&big) > 50.0 * link.tx_energy(&small));
        assert!(link.tx_energy(&small) > link.rx_energy(&small));
    }

    #[test]
    fn wired_paths_are_deterministic() {
        let wan = WiredPath::wan();
        let t = wan.transfer(10_000);
        assert_eq!(
            t,
            SimDuration::transmission(10_000, 10_000_000) + SimDuration::from_millis(20)
        );
        assert!(WiredPath::lan().transfer(10_000) < t);
    }

    #[test]
    fn zero_byte_transfer_costs_one_access() {
        let link = WirelessConfig::Wlan {
            standard: WlanStandard::Dot11g,
            distance_m: 5.0,
        }
        .air_link()
        .unwrap();
        let mut rng = rng_for(6, "t");
        let t = link.transfer(0, &mut rng);
        assert_eq!(t.elapsed, link.access_delay);
        assert_eq!(t.bytes_on_medium, 0);
    }
}
