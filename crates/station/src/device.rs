//! Device profiles — the executable form of the paper's Table 2.
//!
//! | Vendor & Device | OS | Processor | RAM/ROM |
//! |---|---|---|---|
//! | Compaq iPAQ H3870 | MS Pocket PC 2002 | 206 MHz StrongARM | 64 MB / 32 MB |
//! | Nokia 9290 Communicator | Symbian OS | 32-bit ARM9 RISC | 16 MB / 8 MB |
//! | Palm i705 | Palm OS 4.1 | 33 MHz Dragonball VZ | 8 MB / 4 MB |
//! | SONY Clie PEG-NR70V | Palm OS 4.1 | 66 MHz Dragonball Super VZ | 16 MB / 8 MB |
//! | Toshiba E740 | MS Pocket PC 2002 | 400 MHz PXA250 | 64 MB / 32 MB |
//!
//! The specs feed derived cost functions (parse/render time per byte and
//! per element, content memory budget) so that running the same workload
//! on different rows of the table produces measurably different results —
//! which is what the Table 2 experiment reports.

use simnet::SimDuration;

use crate::os::MobileOs;

/// A mobile station's hardware/OS profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, e.g. `"Compaq iPAQ H3870"`.
    pub name: &'static str,
    /// Operating system.
    pub os: MobileOs,
    /// Processor description from Table 2.
    pub(crate) processor: &'static str,
    /// Clock speed in MHz.
    pub cpu_mhz: u32,
    /// Installed RAM in megabytes.
    pub(crate) ram_mb: u32,
    /// Installed ROM in megabytes.
    pub(crate) rom_mb: u32,
    /// Screen resolution `(width, height)` in pixels.
    pub(crate) screen: (u32, u32),
    /// Colour display?
    pub(crate) color: bool,
    /// Battery capacity in joules.
    pub battery_j: f64,
}

impl DeviceProfile {
    /// Compaq iPAQ H3870 — Pocket PC 2002, 206 MHz StrongARM, 64/32 MB.
    pub fn ipaq_h3870() -> Self {
        DeviceProfile {
            name: "Compaq iPAQ H3870",
            os: MobileOs::PocketPc,
            processor: "206 MHz Intel StrongARM 32-bit RISC",
            cpu_mhz: 206,
            ram_mb: 64,
            rom_mb: 32,
            screen: (240, 320),
            color: true,
            battery_j: 18_000.0,
        }
    }

    /// Nokia 9290 Communicator — Symbian OS, 32-bit ARM9, 16/8 MB.
    pub fn nokia_9290() -> Self {
        DeviceProfile {
            name: "Nokia 9290 Communicator",
            os: MobileOs::SymbianOs,
            processor: "32-bit ARM9 RISC",
            cpu_mhz: 52,
            ram_mb: 16,
            rom_mb: 8,
            screen: (640, 200),
            color: true,
            battery_j: 16_000.0,
        }
    }

    /// Palm i705 — Palm OS 4.1, 33 MHz Dragonball VZ, 8/4 MB.
    pub fn palm_i705() -> Self {
        DeviceProfile {
            name: "Palm i705",
            os: MobileOs::PalmOs,
            processor: "33 MHz Motorola Dragonball VZ",
            cpu_mhz: 33,
            ram_mb: 8,
            rom_mb: 4,
            screen: (160, 160),
            color: false,
            battery_j: 12_000.0,
        }
    }

    /// SONY Clie PEG-NR70V — Palm OS 4.1, 66 MHz Dragonball Super VZ, 16/8 MB.
    pub fn sony_clie_nr70v() -> Self {
        DeviceProfile {
            name: "SONY Clie PEG-NR70V",
            os: MobileOs::PalmOs,
            processor: "66 MHz Motorola Dragonball Super VZ",
            cpu_mhz: 66,
            ram_mb: 16,
            rom_mb: 8,
            screen: (320, 480),
            color: true,
            battery_j: 14_000.0,
        }
    }

    /// Toshiba E740 — Pocket PC 2002, 400 MHz PXA250, 64/32 MB.
    pub fn toshiba_e740() -> Self {
        DeviceProfile {
            name: "Toshiba E740",
            os: MobileOs::PocketPc,
            processor: "400 MHz Intel PXA250",
            cpu_mhz: 400,
            ram_mb: 64,
            rom_mb: 32,
            screen: (240, 320),
            color: true,
            battery_j: 18_000.0,
        }
    }

    /// All five Table 2 devices, in the table's row order.
    pub fn table2() -> Vec<DeviceProfile> {
        vec![
            Self::ipaq_h3870(),
            Self::nokia_9290(),
            Self::palm_i705(),
            Self::sony_clie_nr70v(),
            Self::toshiba_e740(),
        ]
    }

    /// Time to parse `bytes` of markup on this device.
    ///
    /// Model: a 100 MHz device parses ~1 MB/s; scales inversely with the
    /// clock and directly with OS overhead.
    pub fn parse_cost(&self, bytes: usize) -> SimDuration {
        let secs = bytes as f64 / (1_000_000.0 * self.cpu_mhz as f64 / 100.0)
            * self.os.cpu_overhead_factor();
        SimDuration::from_secs_f64(secs)
    }

    /// Time to lay out and paint `elements` elements of `text_bytes` text.
    ///
    /// Model: a 100 MHz device lays out ~2000 elements/s and paints
    /// ~500 KB/s of glyphs; colour screens paint ~30% slower (more bits
    /// per pixel pushed); OS overhead applies.
    pub(crate) fn render_cost(&self, elements: usize, text_bytes: usize) -> SimDuration {
        let speed = self.cpu_mhz as f64 / 100.0;
        let layout = elements as f64 / (2_000.0 * speed);
        let paint = text_bytes as f64 / (500_000.0 * speed) * if self.color { 1.3 } else { 1.0 };
        SimDuration::from_secs_f64((layout + paint) * self.os.cpu_overhead_factor())
    }

    /// Idle power draw in watts: a common baseline scaled by the OS's
    /// idle factor (§4.1 — Palm's "plain vanilla design" draws roughly
    /// half what its rivals do, giving it twice the battery life).
    pub fn idle_power_w(&self) -> f64 {
        0.08 * self.os.idle_power_factor()
    }

    /// The largest single content payload (deck/page) the device will
    /// load: a small fixed share of RAM, as real microbrowsers enforced.
    pub fn content_budget_bytes(&self) -> usize {
        (self.ram_mb as usize * 1024 * 1024) / 1024 // ≈ 0.1% of RAM
    }

    /// Characters per screen line, assuming a 6-pixel cell font.
    pub(crate) fn chars_per_line(&self) -> usize {
        (self.screen.0 as usize / 6).max(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_the_paper() {
        let devices = DeviceProfile::table2();
        assert_eq!(devices.len(), 5);
        let ipaq = &devices[0];
        assert_eq!(ipaq.os, MobileOs::PocketPc);
        assert_eq!(ipaq.cpu_mhz, 206);
        assert_eq!((ipaq.ram_mb, ipaq.rom_mb), (64, 32));
        let palm = &devices[2];
        assert_eq!(palm.os, MobileOs::PalmOs);
        assert_eq!(palm.cpu_mhz, 33);
        assert_eq!((palm.ram_mb, palm.rom_mb), (8, 4));
        let toshiba = &devices[4];
        assert_eq!(toshiba.cpu_mhz, 400);
        assert!(toshiba.processor.contains("PXA250"));
    }

    #[test]
    fn faster_cpus_parse_and_render_faster() {
        let slow = DeviceProfile::palm_i705();
        let fast = DeviceProfile::toshiba_e740();
        assert!(slow.parse_cost(10_000) > fast.parse_cost(10_000));
        assert!(slow.render_cost(100, 5_000) > fast.render_cost(100, 5_000));
        // The 400 MHz PXA outpaces the 33 MHz Dragonball by ~an order of
        // magnitude even though Pocket PC's overhead factor is higher.
        let ratio =
            slow.parse_cost(10_000).as_nanos() as f64 / fast.parse_cost(10_000).as_nanos() as f64;
        assert!(ratio > 8.0, "ratio {ratio}");
    }

    #[test]
    fn memory_budget_tracks_ram() {
        assert!(
            DeviceProfile::palm_i705().content_budget_bytes()
                < DeviceProfile::ipaq_h3870().content_budget_bytes()
        );
        assert_eq!(DeviceProfile::palm_i705().content_budget_bytes(), 8 * 1024);
    }

    #[test]
    fn screen_geometry_drives_line_layout() {
        let palm = DeviceProfile::palm_i705();
        assert_eq!(palm.chars_per_line(), 26);
        let nokia = DeviceProfile::nokia_9290();
        assert!(nokia.chars_per_line() > palm.chars_per_line()); // wide screen
    }

    #[test]
    fn palm_devices_idle_at_half_the_power_of_pocket_pc() {
        let palm = DeviceProfile::palm_i705().idle_power_w();
        let ppc = DeviceProfile::ipaq_h3870().idle_power_w();
        let ratio = ppc / palm;
        assert!((2.0..=2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mono_screens_paint_faster_than_color_at_same_clock() {
        let mut mono = DeviceProfile::palm_i705();
        mono.color = false;
        let mut color = DeviceProfile::palm_i705();
        color.color = true;
        assert!(mono.render_cost(50, 20_000) < color.render_cost(50, 20_000));
    }
}
