//! Mobile operating systems — §4.1.
//!
//! "The operating systems, the core of mobile stations, are dominated by
//! just three major brands: Palm OS, Pocket PC, and Symbian OS." The
//! paper's qualitative claims become model parameters here: Palm OS's
//! "plain vanilla design has resulted in a long battery life,
//! approximately twice that of its rivals"; Windows CE/Pocket PC was
//! "battery-hungry"; Symbian's EPOC32 "supports preemptive multitasking".

/// A mobile-station operating system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MobileOs {
    /// Palm OS — minimal design, exceptional battery life (§4.1).
    PalmOs,
    /// Microsoft Pocket PC — more computing power, more power draw (§4.1).
    PocketPc,
    /// Symbian OS (EPOC32) — 32-bit, preemptive multitasking (§4.1).
    SymbianOs,
}

impl std::fmt::Display for MobileOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MobileOs::PalmOs => "Palm OS",
            MobileOs::PocketPc => "MS Pocket PC",
            MobileOs::SymbianOs => "Symbian OS",
        })
    }
}

impl MobileOs {
    /// Multiplier on baseline idle power draw. Palm's vanilla design gives
    /// it roughly half its rivals' draw (≈ twice the battery life, §4.1).
    pub(crate) fn idle_power_factor(self) -> f64 {
        match self {
            MobileOs::PalmOs => 0.5,
            MobileOs::PocketPc => 1.2,
            MobileOs::SymbianOs => 1.0,
        }
    }

    /// Per-request OS overhead factor on CPU work (heavier system
    /// software costs more cycles for the same page).
    pub fn cpu_overhead_factor(self) -> f64 {
        match self {
            MobileOs::PalmOs => 1.0,
            MobileOs::PocketPc => 1.3,
            MobileOs::SymbianOs => 1.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palm_battery_advantage_is_roughly_2x() {
        // §4.1: Palm battery life ≈ twice its rivals'.
        let palm = MobileOs::PalmOs.idle_power_factor();
        for rival in [MobileOs::PocketPc, MobileOs::SymbianOs] {
            let ratio = rival.idle_power_factor() / palm;
            assert!((2.0..=2.5).contains(&ratio), "{rival}: {ratio}");
        }
    }

    #[test]
    fn pocket_pc_is_the_heaviest() {
        assert!(MobileOs::PocketPc.cpu_overhead_factor() > MobileOs::PalmOs.cpu_overhead_factor());
    }

    #[test]
    fn display_names() {
        assert_eq!(MobileOs::PalmOs.to_string(), "Palm OS");
        assert_eq!(MobileOs::PocketPc.to_string(), "MS Pocket PC");
    }
}
