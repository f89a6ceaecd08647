//! Radio energy accounting.
//!
//! §8 of the paper: mobile stations are "limited by … low battery power".
//! This module prices every transmitted and received byte in joules so the
//! station model (`station` crate) can run a battery down and experiments
//! can report energy per transaction. Figures are representative of
//! early-2000s radios (order-of-magnitude faithful; relative ordering
//! between standards is what the experiments rely on).

use crate::cellular::CellularStandard;
use crate::wlan::WlanStandard;

/// Joule costs of using a radio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to transmit one byte.
    pub(crate) tx_j_per_byte: f64,
    /// Energy to receive one byte.
    pub(crate) rx_j_per_byte: f64,
    /// Idle listening power in watts.
    pub(crate) idle_w: f64,
}

impl EnergyModel {
    /// Energy model for a WLAN standard.
    ///
    /// Bluetooth is the low-power PAN radio; 5 GHz OFDM radios burn more
    /// than the 2.4 GHz family but move bits faster, so their per-byte
    /// cost ends up lowest.
    pub fn wlan(standard: WlanStandard) -> Self {
        match standard {
            WlanStandard::Bluetooth => EnergyModel {
                tx_j_per_byte: 1.0e-6,
                rx_j_per_byte: 0.5e-6,
                idle_w: 0.01,
            },
            WlanStandard::Dot11b => EnergyModel {
                tx_j_per_byte: 2.0e-6,
                rx_j_per_byte: 1.4e-6,
                idle_w: 0.8,
            },
            WlanStandard::Dot11a | WlanStandard::HyperLan2 => EnergyModel {
                tx_j_per_byte: 0.6e-6,
                rx_j_per_byte: 0.45e-6,
                idle_w: 1.0,
            },
            WlanStandard::Dot11g => EnergyModel {
                tx_j_per_byte: 0.7e-6,
                rx_j_per_byte: 0.5e-6,
                idle_w: 0.9,
            },
        }
    }

    /// Energy model for a cellular standard.
    ///
    /// Cellular radios transmit at far higher power (reaching a tower
    /// kilometres away) and at far lower bit rates, so per-byte costs are
    /// orders of magnitude above WLAN.
    pub fn cellular(standard: CellularStandard) -> Self {
        use crate::cellular::Generation::*;
        match standard.generation() {
            G1 => EnergyModel {
                tx_j_per_byte: 2.0e-3,
                rx_j_per_byte: 1.0e-3,
                idle_w: 0.5,
            },
            G2 => EnergyModel {
                tx_j_per_byte: 8.0e-4,
                rx_j_per_byte: 3.0e-4,
                idle_w: 0.25,
            },
            G2_5 => EnergyModel {
                tx_j_per_byte: 3.0e-4,
                rx_j_per_byte: 1.0e-4,
                idle_w: 0.3,
            },
            G3 => EnergyModel {
                tx_j_per_byte: 5.0e-5,
                rx_j_per_byte: 2.0e-5,
                idle_w: 0.4,
            },
        }
    }

    /// Joules to transmit `bytes` bytes.
    pub fn tx_cost(&self, bytes: u64) -> f64 {
        self.tx_j_per_byte * bytes as f64
    }

    /// Joules to receive `bytes` bytes.
    pub fn rx_cost(&self, bytes: u64) -> f64 {
        self.rx_j_per_byte * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bluetooth_is_the_low_power_radio() {
        let bt = EnergyModel::wlan(WlanStandard::Bluetooth);
        for other in [
            WlanStandard::Dot11b,
            WlanStandard::Dot11a,
            WlanStandard::Dot11g,
        ] {
            let m = EnergyModel::wlan(other);
            assert!(bt.idle_w < m.idle_w / 10.0, "{other}");
        }
    }

    #[test]
    fn cellular_bytes_cost_more_than_wlan_bytes() {
        let wifi = EnergyModel::wlan(WlanStandard::Dot11b);
        let gprs = EnergyModel::cellular(CellularStandard::Gprs);
        assert!(gprs.tx_j_per_byte > 10.0 * wifi.tx_j_per_byte);
    }

    #[test]
    fn newer_generations_are_more_efficient_per_byte() {
        let g2 = EnergyModel::cellular(CellularStandard::Gsm);
        let g25 = EnergyModel::cellular(CellularStandard::Gprs);
        let g3 = EnergyModel::cellular(CellularStandard::Wcdma);
        assert!(g2.tx_j_per_byte > g25.tx_j_per_byte);
        assert!(g25.tx_j_per_byte > g3.tx_j_per_byte);
    }

    #[test]
    fn costs_scale_linearly() {
        let m = EnergyModel::wlan(WlanStandard::Dot11b);
        assert!((m.tx_cost(1000) - 2.0e-3).abs() < 1e-12);
        assert!((m.rx_cost(1000) - 1.4e-3).abs() < 1e-12);
    }

    #[test]
    fn tx_always_costs_at_least_rx() {
        for s in WlanStandard::ALL {
            let m = EnergyModel::wlan(s);
            assert!(m.tx_j_per_byte >= m.rx_j_per_byte, "{s}");
        }
        for s in CellularStandard::ALL {
            let m = EnergyModel::cellular(s);
            assert!(m.tx_j_per_byte >= m.rx_j_per_byte, "{s}");
        }
    }
}
