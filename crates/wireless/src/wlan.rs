//! Wireless LAN standards — the executable form of the paper's Table 4.
//!
//! | Standard | Max rate (Mbps) | Typical range (m) | Modulation / band (GHz) |
//! |---|---|---|---|
//! | Bluetooth | 1 | 5–10 | GFSK / 2.4 |
//! | 802.11b (Wi-Fi) | 11 | 50–100 | HR-DSSS / 2.4 |
//! | 802.11a | 54 | 50–100 | OFDM / 5 |
//! | HyperLAN2 | 54 | 50–300 | OFDM / 5 |
//! | 802.11g | 54 | 50–150 | OFDM / 2.4 |
//!
//! Each standard exposes the table's static facts plus two derived curves
//! that make the facts *load-bearing* in simulation: the auto-rate fallback
//! curve [`WlanStandard::rate_at`] and the distance-dependent bit-error
//! rate [`WlanStandard::ber_at`].

use simnet::{LinkParams, LossModel, SimDuration};

/// A wireless LAN standard from Table 4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WlanStandard {
    /// Bluetooth: 1 Mbps, 5–10 m, GFSK, 2.4 GHz — personal area networks.
    Bluetooth,
    /// IEEE 802.11b "Wi-Fi": 11 Mbps, 50–100 m, HR-DSSS, 2.4 GHz.
    Dot11b,
    /// IEEE 802.11a: 54 Mbps, 50–100 m, OFDM, 5 GHz.
    Dot11a,
    /// ETSI HyperLAN2: 54 Mbps, 50–300 m, OFDM, 5 GHz.
    HyperLan2,
    /// IEEE 802.11g: 54 Mbps, 50–150 m, OFDM, 2.4 GHz.
    Dot11g,
}

impl std::fmt::Display for WlanStandard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl WlanStandard {
    /// All Table 4 standards, in the table's row order.
    pub const ALL: [WlanStandard; 5] = [
        WlanStandard::Bluetooth,
        WlanStandard::Dot11b,
        WlanStandard::Dot11a,
        WlanStandard::HyperLan2,
        WlanStandard::Dot11g,
    ];

    /// The standard's conventional name.
    pub fn name(self) -> &'static str {
        match self {
            WlanStandard::Bluetooth => "Bluetooth",
            WlanStandard::Dot11b => "802.11b (Wi-Fi)",
            WlanStandard::Dot11a => "802.11a",
            WlanStandard::HyperLan2 => "HyperLAN2",
            WlanStandard::Dot11g => "802.11g",
        }
    }

    /// Maximum (channel) data rate in bits per second — Table 4 column 2.
    pub fn max_rate_bps(self) -> u64 {
        match self {
            WlanStandard::Bluetooth => 1_000_000,
            WlanStandard::Dot11b => 11_000_000,
            WlanStandard::Dot11a | WlanStandard::HyperLan2 | WlanStandard::Dot11g => 54_000_000,
        }
    }

    /// Typical transmission range in metres, `(near, far)` — Table 4 col 3.
    ///
    /// `near` is the distance up to which the full rate holds; `far` is the
    /// edge of usable coverage.
    pub(crate) fn range_m(self) -> (f64, f64) {
        match self {
            WlanStandard::Bluetooth => (5.0, 10.0),
            WlanStandard::Dot11b => (50.0, 100.0),
            WlanStandard::Dot11a => (50.0, 100.0),
            WlanStandard::HyperLan2 => (50.0, 300.0),
            WlanStandard::Dot11g => (50.0, 150.0),
        }
    }

    /// The standard's auto-rate fallback tiers, fastest first, in bps.
    ///
    /// Real radios step down through discrete modulation rates as signal
    /// quality degrades; these are the published tier sets.
    pub(crate) fn rate_tiers(self) -> &'static [u64] {
        match self {
            WlanStandard::Bluetooth => &[1_000_000, 723_000, 433_000],
            WlanStandard::Dot11b => &[11_000_000, 5_500_000, 2_000_000, 1_000_000],
            WlanStandard::Dot11a | WlanStandard::HyperLan2 => {
                &[54_000_000, 36_000_000, 24_000_000, 12_000_000, 6_000_000]
            }
            WlanStandard::Dot11g => &[54_000_000, 36_000_000, 24_000_000, 12_000_000, 6_000_000],
        }
    }

    /// Achievable PHY rate at `distance_m` metres from the access point,
    /// or `None` when out of range.
    ///
    /// Full rate holds out to the near edge of the typical range; beyond
    /// it the radio steps down through `WlanStandard::rate_tiers`
    /// linearly in distance until coverage ends at the far edge.
    ///
    /// ```
    /// use wireless::WlanStandard;
    /// let b = WlanStandard::Dot11b;
    /// assert_eq!(b.rate_at(10.0), Some(11_000_000));
    /// assert_eq!(b.rate_at(99.0), Some(1_000_000));
    /// assert_eq!(b.rate_at(150.0), None);
    /// ```
    pub fn rate_at(self, distance_m: f64) -> Option<u64> {
        assert!(distance_m >= 0.0, "distance must be non-negative");
        let (near, far) = self.range_m();
        if distance_m > far {
            return None;
        }
        let tiers = self.rate_tiers();
        if distance_m <= near {
            return Some(tiers[0]);
        }
        // Map (near, far] onto tier indices 1..len.
        let frac = (distance_m - near) / (far - near); // (0, 1]
        let step = 1 + ((tiers.len() - 1) as f64 * frac).ceil() as usize - 1;
        Some(tiers[step.min(tiers.len() - 1)])
    }

    /// Bit-error rate at `distance_m` metres.
    ///
    /// A floor of `1e-6` (typical post-FEC wireless residual error — three
    /// orders of magnitude worse than wire, which is why §5.2 says TCP
    /// "performs poorly" here) rising exponentially to `1e-4` at the
    /// coverage edge; `0.5` (useless) beyond it.
    pub fn ber_at(self, distance_m: f64) -> f64 {
        assert!(distance_m >= 0.0, "distance must be non-negative");
        let (near, far) = self.range_m();
        if distance_m > far {
            return 0.5;
        }
        if distance_m <= near {
            return 1e-6;
        }
        let frac = (distance_m - near) / (far - near);
        // log-linear between 1e-6 and 1e-4
        10f64.powf(-6.0 + 2.0 * frac)
    }

    /// Per-frame MAC+PHY overhead in bytes (preamble, MAC header, FCS and
    /// the expected cost of contention, amortised per frame).
    pub fn frame_overhead_bytes(self) -> usize {
        match self {
            WlanStandard::Bluetooth => 17,
            _ => 34,
        }
    }

    /// One-way propagation + MAC access delay for a frame.
    ///
    /// Propagation at WLAN scale is sub-microsecond; what the MAC adds is
    /// DIFS/backoff on the order of hundreds of microseconds.
    pub fn access_delay(self) -> SimDuration {
        match self {
            WlanStandard::Bluetooth => SimDuration::from_micros(1_250), // TDD slot pair
            WlanStandard::Dot11b => SimDuration::from_micros(400),
            WlanStandard::Dot11a | WlanStandard::HyperLan2 => SimDuration::from_micros(100),
            WlanStandard::Dot11g => SimDuration::from_micros(150),
        }
    }

    /// Builds [`LinkParams`] for a station at `distance_m` from the AP, or
    /// `None` when out of range.
    ///
    /// The returned link carries the standard's achievable rate at that
    /// distance, its MAC access delay, and a [`LossModel::BitError`]
    /// channel at the distance-dependent BER.
    pub(crate) fn link_params_at(self, distance_m: f64) -> Option<LinkParams> {
        let rate = self.rate_at(distance_m)?;
        Some(LinkParams {
            bandwidth_bps: rate,
            propagation: self.access_delay(),
            queue_capacity: 64,
            loss: LossModel::BitError {
                ber: self.ber_at(distance_m),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_static_facts() {
        use WlanStandard::*;
        // Max data rate column.
        assert_eq!(Bluetooth.max_rate_bps(), 1_000_000);
        assert_eq!(Dot11b.max_rate_bps(), 11_000_000);
        assert_eq!(Dot11a.max_rate_bps(), 54_000_000);
        assert_eq!(HyperLan2.max_rate_bps(), 54_000_000);
        assert_eq!(Dot11g.max_rate_bps(), 54_000_000);
        // Range column.
        assert_eq!(Bluetooth.range_m(), (5.0, 10.0));
        assert_eq!(Dot11b.range_m(), (50.0, 100.0));
        assert_eq!(HyperLan2.range_m(), (50.0, 300.0));
        assert_eq!(Dot11g.range_m(), (50.0, 150.0));
    }

    #[test]
    fn full_rate_within_near_range() {
        for std in WlanStandard::ALL {
            let (near, _) = std.range_m();
            assert_eq!(std.rate_at(0.0), Some(std.max_rate_bps()));
            assert_eq!(std.rate_at(near), Some(std.max_rate_bps()), "{std}");
        }
    }

    #[test]
    fn rate_degrades_monotonically_with_distance() {
        for std in WlanStandard::ALL {
            let (_, far) = std.range_m();
            let mut last = u64::MAX;
            let mut d = 0.0;
            while d <= far {
                let r = std.rate_at(d).unwrap_or(0);
                assert!(r <= last, "{std} rate increased at {d} m");
                last = r;
                d += 1.0;
            }
            assert_eq!(std.rate_at(far + 1.0), None);
        }
    }

    #[test]
    fn edge_of_coverage_hits_lowest_tier() {
        for std in WlanStandard::ALL {
            let (_, far) = std.range_m();
            let tiers = std.rate_tiers();
            assert_eq!(std.rate_at(far), Some(*tiers.last().unwrap()), "{std}");
        }
    }

    #[test]
    fn ber_rises_with_distance() {
        let s = WlanStandard::Dot11b;
        assert_eq!(s.ber_at(10.0), 1e-6);
        let mid = s.ber_at(75.0);
        let edge = s.ber_at(100.0);
        assert!(mid > 1e-6 && mid < edge);
        assert!((edge - 1e-4).abs() < 1e-9);
        assert_eq!(s.ber_at(200.0), 0.5);
    }

    #[test]
    fn link_params_follow_distance() {
        let p = WlanStandard::Dot11g.link_params_at(10.0).unwrap();
        assert_eq!(p.bandwidth_bps, 54_000_000);
        assert!(matches!(p.loss, LossModel::BitError { ber } if ber == 1e-6));
        assert!(WlanStandard::Dot11g.link_params_at(151.0).is_none());
    }

    #[test]
    fn bluetooth_is_pan_scale() {
        // §6.1: "Bluetooth technology supports very limited coverage range
        // and throughput … only suitable for personal area networks."
        let bt = WlanStandard::Bluetooth;
        for other in [
            WlanStandard::Dot11b,
            WlanStandard::Dot11a,
            WlanStandard::Dot11g,
        ] {
            assert!(bt.max_rate_bps() < other.max_rate_bps() / 10);
            assert!(bt.range_m().1 <= other.range_m().1 / 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_distance_panics() {
        WlanStandard::Dot11b.rate_at(-1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(WlanStandard::Dot11b.to_string(), "802.11b (Wi-Fi)");
    }
}
