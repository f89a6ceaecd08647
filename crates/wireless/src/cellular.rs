//! Cellular wireless networks — the executable form of the paper's Table 5.
//!
//! | Generation | Radio | Switching | Standards |
//! |---|---|---|---|
//! | 1G | analog voice, digital control | circuit | AMPS, TACS |
//! | 2G | digital | circuit | GSM, TDMA |
//! | 2G | digital | packet | CDMA |
//! | 2.5G | digital | packet | GPRS, EDGE |
//! | 3G | digital | packet | CDMA2000, WCDMA |
//!
//! §6.2 adds the quantitative hooks: GPRS "can support data rates of only
//! about 100 kbps", EDGE "is capable of supporting 384 kbps", W-CDMA
//! supports "384 Kbps or faster" (§5.1 on DoCoMo's FOMA), 3G brings QoS,
//! and 1G analog systems "will not play a significant role in mobile
//! commerce" — modelled here as offering no data service at all. The
//! summary (§8) notes cellular systems cover kilometres but at "much lower
//! bandwidth (less than 1 Mbps)" than WLANs for the pre-3G generations.

use simnet::SimDuration;

/// Cellular generation — Table 5 column 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Generation {
    /// First generation: analog voice with digital control channels.
    G1,
    /// Second generation: digital voice, circuit- or packet-switched data.
    G2,
    /// 2.5G: packet data overlays on 2G radio (GPRS, EDGE).
    G2_5,
    /// Third generation: packet-switched with QoS capability.
    G3,
}

impl std::fmt::Display for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Generation::G1 => "1G",
            Generation::G2 => "2G",
            Generation::G2_5 => "2.5G",
            Generation::G3 => "3G",
        };
        f.write_str(s)
    }
}

/// Switching technique — Table 5 column 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Switching {
    /// A dedicated channel is set up per call; data sessions pay call-setup
    /// latency and hold the channel whether or not bytes flow.
    Circuit,
    /// Always-on, per-packet statistical multiplexing (what makes i-mode's
    /// "always-on" service possible — §5.1).
    Packet,
}

impl std::fmt::Display for Switching {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Switching::Circuit => "circuit-switched",
            Switching::Packet => "packet-switched",
        })
    }
}

/// A cellular standard from Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellularStandard {
    /// Advanced Mobile Phone System — 1G analog (North America).
    Amps,
    /// Total Access Communication System — 1G analog (Europe).
    Tacs,
    /// Global System for Mobile communications — 2G circuit-switched.
    Gsm,
    /// IS-136 TDMA — 2G circuit-switched (U.S. operators).
    Tdma,
    /// IS-95 CDMA — 2G (U.S. operators), packet-switched per Table 5.
    Cdma,
    /// General Packet Radio Service — 2.5G packet overlay on GSM.
    Gprs,
    /// Enhanced Data rates for Global Evolution — 2.5G, 384 kbps.
    Edge,
    /// CDMA2000 — 3G (Qualcomm), backward-compatible with IS-95.
    Cdma2000,
    /// Wideband CDMA / UMTS — 3G (Ericsson / European Union).
    Wcdma,
}

impl std::fmt::Display for CellularStandard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl CellularStandard {
    /// All Table 5 standards, generation order.
    pub const ALL: [CellularStandard; 9] = [
        CellularStandard::Amps,
        CellularStandard::Tacs,
        CellularStandard::Gsm,
        CellularStandard::Tdma,
        CellularStandard::Cdma,
        CellularStandard::Gprs,
        CellularStandard::Edge,
        CellularStandard::Cdma2000,
        CellularStandard::Wcdma,
    ];

    /// Conventional name.
    pub fn name(self) -> &'static str {
        match self {
            CellularStandard::Amps => "AMPS",
            CellularStandard::Tacs => "TACS",
            CellularStandard::Gsm => "GSM",
            CellularStandard::Tdma => "TDMA (IS-136)",
            CellularStandard::Cdma => "CDMA (IS-95)",
            CellularStandard::Gprs => "GPRS",
            CellularStandard::Edge => "EDGE",
            CellularStandard::Cdma2000 => "CDMA2000",
            CellularStandard::Wcdma => "WCDMA",
        }
    }

    /// Generation — Table 5 column 1.
    pub fn generation(self) -> Generation {
        match self {
            CellularStandard::Amps | CellularStandard::Tacs => Generation::G1,
            CellularStandard::Gsm | CellularStandard::Tdma | CellularStandard::Cdma => {
                Generation::G2
            }
            CellularStandard::Gprs | CellularStandard::Edge => Generation::G2_5,
            CellularStandard::Cdma2000 | CellularStandard::Wcdma => Generation::G3,
        }
    }

    /// Switching technique — Table 5 column 3.
    pub fn switching(self) -> Switching {
        match self {
            CellularStandard::Amps
            | CellularStandard::Tacs
            | CellularStandard::Gsm
            | CellularStandard::Tdma => Switching::Circuit,
            CellularStandard::Cdma
            | CellularStandard::Gprs
            | CellularStandard::Edge
            | CellularStandard::Cdma2000
            | CellularStandard::Wcdma => Switching::Packet,
        }
    }

    /// Peak user data rate in bits per second; `None` for analog 1G, which
    /// offers no data service usable by mobile commerce.
    pub fn data_rate_bps(self) -> Option<u64> {
        match self {
            CellularStandard::Amps | CellularStandard::Tacs => None,
            CellularStandard::Gsm => Some(9_600),
            CellularStandard::Tdma => Some(9_600),
            CellularStandard::Cdma => Some(14_400),
            CellularStandard::Gprs => Some(100_000), // "about 100 kbps" (§6.2)
            CellularStandard::Edge => Some(384_000), // "capable of supporting 384 kbps"
            CellularStandard::Cdma2000 => Some(2_000_000),
            CellularStandard::Wcdma => Some(2_000_000), // "384Kbps or faster" (§5.1)
        }
    }

    /// Call/session-setup latency charged before the first byte can flow.
    ///
    /// Circuit-switched standards pay a multi-second call setup per data
    /// session; packet-switched standards are always-on and pay only an
    /// activation handshake.
    pub fn session_setup(self) -> SimDuration {
        match self.switching() {
            Switching::Circuit => SimDuration::from_millis(4_500),
            Switching::Packet => match self.generation() {
                Generation::G3 => SimDuration::from_millis(250),
                _ => SimDuration::from_millis(700),
            },
        }
    }

    /// One-way latency of the radio access network.
    ///
    /// Cellular RANs add tens to hundreds of milliseconds — far above the
    /// WLAN numbers — dropping with each generation.
    pub fn ran_latency(self) -> SimDuration {
        match self.generation() {
            Generation::G1 => SimDuration::from_millis(400),
            Generation::G2 => SimDuration::from_millis(300),
            Generation::G2_5 => SimDuration::from_millis(150),
            Generation::G3 => SimDuration::from_millis(80),
        }
    }

    /// Residual bit-error rate of the coded channel.
    pub fn ber(self) -> f64 {
        match self.generation() {
            Generation::G1 => 1e-3,
            Generation::G2 => 1e-5,
            Generation::G2_5 => 1e-5,
            Generation::G3 => 1e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_generations() {
        use CellularStandard::*;
        assert_eq!(Amps.generation(), Generation::G1);
        assert_eq!(Tacs.generation(), Generation::G1);
        assert_eq!(Gsm.generation(), Generation::G2);
        assert_eq!(Tdma.generation(), Generation::G2);
        assert_eq!(Cdma.generation(), Generation::G2);
        assert_eq!(Gprs.generation(), Generation::G2_5);
        assert_eq!(Edge.generation(), Generation::G2_5);
        assert_eq!(Cdma2000.generation(), Generation::G3);
        assert_eq!(Wcdma.generation(), Generation::G3);
    }

    #[test]
    fn table5_switching() {
        use CellularStandard::*;
        assert_eq!(Amps.switching(), Switching::Circuit);
        assert_eq!(Gsm.switching(), Switching::Circuit);
        assert_eq!(Tdma.switching(), Switching::Circuit);
        assert_eq!(Cdma.switching(), Switching::Packet);
        assert_eq!(Gprs.switching(), Switching::Packet);
        assert_eq!(Wcdma.switching(), Switching::Packet);
    }

    #[test]
    fn analog_1g_has_no_data_service() {
        assert_eq!(CellularStandard::Amps.data_rate_bps(), None);
        assert_eq!(CellularStandard::Tacs.data_rate_bps(), None);
    }

    #[test]
    fn paper_quoted_rates() {
        // §6.2: GPRS ≈ 100 kbps; EDGE 384 kbps; §5.1: W-CDMA ≥ 384 kbps.
        assert_eq!(CellularStandard::Gprs.data_rate_bps(), Some(100_000));
        assert_eq!(CellularStandard::Edge.data_rate_bps(), Some(384_000));
        assert!(CellularStandard::Wcdma.data_rate_bps().unwrap() >= 384_000);
    }

    #[test]
    fn rates_improve_with_generation() {
        let rate = |s: CellularStandard| s.data_rate_bps().unwrap_or(0);
        assert!(rate(CellularStandard::Gsm) < rate(CellularStandard::Gprs));
        assert!(rate(CellularStandard::Gprs) < rate(CellularStandard::Edge));
        assert!(rate(CellularStandard::Edge) < rate(CellularStandard::Wcdma));
    }

    #[test]
    fn pre_3g_is_below_1mbps() {
        // §8: cellular "less than 1 Mbps" vs Wi-Fi's 11 Mbps (pre-3G view).
        for s in CellularStandard::ALL {
            if s.generation() < Generation::G3 {
                assert!(s.data_rate_bps().unwrap_or(0) < 1_000_000, "{s}");
            }
        }
    }

    #[test]
    fn circuit_setup_dwarfs_packet_setup() {
        let circuit = CellularStandard::Gsm.session_setup();
        let packet25 = CellularStandard::Gprs.session_setup();
        let packet3g = CellularStandard::Wcdma.session_setup();
        assert!(circuit.as_millis() > 5 * packet25.as_millis());
        assert!(packet25 > packet3g);
    }

    #[test]
    fn cellular_range_dwarfs_wlan_but_latency_is_worse() {
        use crate::wlan::WlanStandard;
        let gsm = CellularStandard::Gsm;
        assert!(gsm.ran_latency() > WlanStandard::Dot11b.access_delay() * 100);
    }

    #[test]
    fn display_names() {
        assert_eq!(CellularStandard::Gprs.to_string(), "GPRS");
        assert_eq!(Generation::G2_5.to_string(), "2.5G");
        assert_eq!(Switching::Packet.to_string(), "packet-switched");
    }
}
