//! Ablation experiments: design choices DESIGN.md calls out, each turned
//! off in isolation to measure what it buys.
//!
//! * **A1 — WBXML binary encoding**: WAP with and without the tokenised
//!   over-the-air encoding (what the gateway's compression is worth).
//! * **A2 — WTLS transport security**: the §8 security layer's cost in
//!   bytes, latency and battery.
//! * **A3 — embedded store vs flat file**: §7's claim that "the flat file
//!   system … may not be able to adequately handle and manipulate data".
//! * **A4 — deck pagination budget**: the gateway's card-size budget
//!   against the device spectrum (why content adaptation must know the
//!   device).

use std::fmt;

use hostsite::db::Database;
use hostsite::HostComputer;
use markup::transcode::WmlOptions;
use mcommerce_core::apps::{Application, PaymentsApp, TravelApp};
use mcommerce_core::workload::{run_until_battery_dies, run_workload};
use mcommerce_core::{CommerceSystem, MiddlewareKind, SystemSpec, WiredPath, WirelessConfig};
use middleware::{MobileRequest, WapGateway};
use station::{DeviceProfile, EmbeddedStore, FlatFileStore};
use wireless::{CellularStandard, WlanStandard};

fn wifi(distance_m: f64) -> WirelessConfig {
    WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m,
    }
}

/// A labelled scalar-comparison row shared by the ablations.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub(crate) label: String,
    /// Mean latency, seconds.
    pub(crate) latency_secs: f64,
    /// Mean over-the-air bytes per step.
    pub(crate) air_bytes: f64,
    /// Mean energy per step, joules.
    pub(crate) energy_j: f64,
}

impl fmt::Display for AblationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {:>9.1} ms {:>8.0} B {:>9.3} mJ",
            self.label,
            self.latency_secs * 1e3,
            self.air_bytes,
            self.energy_j * 1e3
        )
    }
}

/// A1 — WBXML on/off, on a slow link where air bytes matter.
pub fn wbxml_ablation(sessions: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (label, binary) in [
        ("WAP with WBXML (default)", true),
        ("WAP with textual WML", false),
    ] {
        let app = TravelApp;
        let mut host = HostComputer::new(Database::new(), 81);
        app.install(&mut host);
        let kind = if binary {
            MiddlewareKind::Wap
        } else {
            MiddlewareKind::WapTextual
        };
        let mut system = SystemSpec::new()
            .middleware(kind)
            .device(DeviceProfile::nokia_9290())
            .wireless(WirelessConfig::Cellular {
                standard: CellularStandard::Gprs,
            })
            .wired(WiredPath::wan())
            .seed(82)
            .build(host);
        let summary = run_workload(&mut system, &app, sessions, 83);
        assert_eq!(summary.succeeded, summary.attempted, "{label}");
        rows.push(AblationRow {
            label: label.to_owned(),
            latency_secs: summary.latency_mean,
            air_bytes: summary.air_bytes_mean,
            energy_j: summary.energy_mean_j,
        });
    }
    rows
}

/// A2 — WTLS security on/off, per network.
pub fn security_ablation(sessions: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for network in [
        wifi(20.0),
        WirelessConfig::Cellular {
            standard: CellularStandard::Gprs,
        },
    ] {
        for secure in [false, true] {
            let app = PaymentsApp::new();
            let mut host = HostComputer::new(Database::new(), 84);
            app.install(&mut host);
            let mut system = SystemSpec::new()
                .middleware(MiddlewareKind::Wap)
                .device(DeviceProfile::ipaq_h3870())
                .wireless(network)
                .wired(WiredPath::wan())
                .seed(85)
                .secure(secure)
                .build(host);
            let summary = run_workload(&mut system, &app, sessions, 86);
            assert_eq!(summary.succeeded, summary.attempted);
            rows.push(AblationRow {
                label: format!(
                    "{} — {}",
                    network.name(),
                    if secure { "WTLS secured" } else { "plaintext" }
                ),
                latency_secs: summary.latency_mean,
                air_bytes: summary.air_bytes_mean,
                energy_j: summary.energy_mean_j,
            });
        }
    }
    rows
}

/// One storage-ablation measurement.
#[derive(Debug, Clone)]
pub struct StorageRow {
    /// Store kind.
    pub(crate) label: String,
    /// Records in the store when measured.
    pub(crate) records: usize,
    /// Records touched to look up the *oldest* key.
    pub(crate) touches_oldest: usize,
    /// Records touched to conclude a key is *missing*.
    pub(crate) touches_missing: usize,
}

impl fmt::Display for StorageRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} n={:>5}: oldest lookup touches {:>5}, missing key touches {:>5}",
            self.label, self.records, self.touches_oldest, self.touches_missing
        )
    }
}

/// A3 — embedded store vs flat file: access cost as the store grows.
pub fn storage_ablation() -> Vec<StorageRow> {
    let mut rows = Vec::new();
    for n in [100usize, 1_000, 10_000] {
        let mut flat = FlatFileStore::new();
        let mut embedded = EmbeddedStore::new(1 << 22);
        for i in 0..n {
            flat.put(&format!("key-{i}"), "v");
            embedded.put(&format!("key-{i}"), "v");
        }
        let (_, flat_old) = flat.get("key-0");
        let (_, flat_miss) = flat.get("absent");
        let (_, emb_old) = embedded.get("key-0");
        let (_, emb_miss) = embedded.get("absent");
        rows.push(StorageRow {
            label: "flat file".into(),
            records: n,
            touches_oldest: flat_old.records_touched,
            touches_missing: flat_miss.records_touched,
        });
        rows.push(StorageRow {
            label: "embedded store".into(),
            records: n,
            touches_oldest: emb_old.records_touched,
            touches_missing: emb_miss.records_touched,
        });
    }
    rows
}

/// One deck-adaptation measurement.
#[derive(Debug, Clone)]
pub struct PaginationRow {
    /// Deck-size cap the gateway adapted to (`None` = no adaptation).
    pub(crate) deck_cap_bytes: Option<usize>,
    /// Whether the Palm i705 (8 KB content budget) could load the deck.
    pub(crate) palm_loads: bool,
    /// Total bytes over the air for the page.
    pub(crate) air_bytes: u64,
}

impl fmt::Display for PaginationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.deck_cap_bytes {
            Some(cap) => write!(
                f,
                "deck cap {:>6} B: palm loads = {:<5}, air bytes {:>6}",
                cap, self.palm_loads, self.air_bytes
            ),
            None => write!(
                f,
                "no deck adaptation: palm loads = {:<5}, air bytes {:>6}",
                self.palm_loads, self.air_bytes
            ),
        }
    }
}

/// A4 — deck adaptation sweep: a long lesson page against the smallest
/// device. Without a deck cap the gateway ships the whole translated
/// deck, which the Palm's 8 KB budget rejects; with device-aware
/// adaptation the page loads (truncated).
pub fn pagination_ablation() -> Vec<PaginationRow> {
    [Some(2_000usize), Some(4_000), Some(7_500), None]
        .into_iter()
        .map(|cap| {
            let mut host = HostComputer::new(Database::new(), 87);
            let paragraphs: Vec<markup::Node> = (0..120)
                .map(|i| {
                    markup::html::p(&format!(
                        "Lesson paragraph {i}: content adaptation must respect device limits"
                    ))
                    .into()
                })
                .collect();
            host.web.static_page(
                "/lesson",
                markup::html::page("Lesson", paragraphs).to_markup(),
            );
            let options = WmlOptions {
                max_deck_bytes: cap,
                ..Default::default()
            };
            let mut system = SystemSpec::new()
                .device(DeviceProfile::palm_i705())
                .wireless(wifi(15.0))
                .wired(WiredPath::wan())
                .seed(88)
                .build(host);
            system.set_middleware(Box::new(WapGateway::new(options)));
            let report = system.execute(&MobileRequest::get("/lesson"));
            PaginationRow {
                deck_cap_bytes: cap,
                palm_loads: report.success,
                air_bytes: report.air_bytes_down,
            }
        })
        .collect()
}

/// One battery-lifetime measurement.
#[derive(Debug, Clone)]
pub struct BatteryRow {
    /// Device name.
    pub(crate) device: String,
    /// Operating system.
    pub(crate) os: String,
    /// Battery capacity in joules.
    pub(crate) capacity_j: f64,
    /// Hours of mixed use (browsing with think time) until the battery died.
    pub(crate) hours: f64,
    /// Sessions completed before death.
    pub(crate) sessions: u64,
}

impl fmt::Display for BatteryRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:<14} {:>6.0} J battery: {:>5.1} h of use ({} sessions)",
            self.device, self.os, self.capacity_j, self.hours, self.sessions
        )
    }
}

/// A5 — battery life per device/OS: the same browse-and-buy usage pattern
/// (20 s think time per step) runs until each battery dies. §4.1's claim
/// — Palm OS battery life "approximately twice that of its rivals" — must
/// show up as hours of use.
pub fn battery_ablation() -> Vec<BatteryRow> {
    DeviceProfile::table2()
        .into_iter()
        .map(|device| {
            let app = PaymentsApp::new();
            let mut host = HostComputer::new(Database::new(), 89);
            app.install(&mut host);
            // Same battery for everyone so the OS/CPU efficiency is the
            // only variable (real capacities differ; §4.1's claim is about
            // the OS design, so we isolate it).
            let mut profile = device.clone();
            profile.battery_j = 2_000.0;
            let capacity = profile.battery_j;
            let mut system = SystemSpec::new()
                .middleware(MiddlewareKind::Wap)
                .device(profile)
                .wireless(wifi(20.0))
                .wired(WiredPath::wan())
                .seed(90)
                .build(host);
            let (sessions, hours) = run_until_battery_dies(&mut system, &app, 20.0, 100_000, 91);
            BatteryRow {
                device: device.name.to_owned(),
                os: device.os.to_string(),
                capacity_j: capacity,
                hours,
                sessions,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wbxml_saves_air_bytes_and_latency_on_slow_links() {
        let rows = wbxml_ablation(4);
        let binary = &rows[0];
        let text = &rows[1];
        assert!(
            binary.air_bytes + 30.0 < text.air_bytes,
            "{} vs {}",
            binary.air_bytes,
            text.air_bytes
        );
        assert!(binary.latency_secs <= text.latency_secs);
        assert!(binary.energy_j < text.energy_j);
    }

    #[test]
    fn security_costs_are_visible_but_bounded() {
        let rows = security_ablation(4);
        for pair in rows.chunks(2) {
            let (plain, secure) = (&pair[0], &pair[1]);
            assert!(secure.air_bytes > plain.air_bytes);
            assert!(secure.energy_j > plain.energy_j);
            // The overhead is a tax, not a cliff: < 40% extra latency.
            assert!(
                secure.latency_secs < plain.latency_secs * 1.4,
                "{} vs {}",
                secure.latency_secs,
                plain.latency_secs
            );
        }
    }

    #[test]
    fn flat_file_scales_linearly_embedded_stays_constant() {
        let rows = storage_ablation();
        let flat_10k = rows
            .iter()
            .find(|r| r.label == "flat file" && r.records == 10_000)
            .unwrap();
        let emb_10k = rows
            .iter()
            .find(|r| r.label == "embedded store" && r.records == 10_000)
            .unwrap();
        assert_eq!(flat_10k.touches_oldest, 10_000);
        assert_eq!(emb_10k.touches_oldest, 1);
        assert_eq!(flat_10k.touches_missing, 10_000);
    }

    #[test]
    fn palm_os_battery_life_is_roughly_twice_pocket_pc() {
        // §4.1, measured: same battery, same usage pattern.
        let rows = battery_ablation();
        let hours = |name: &str| rows.iter().find(|r| r.device.contains(name)).unwrap().hours;
        let palm = hours("Palm i705");
        let ipaq = hours("iPAQ");
        let ratio = palm / ipaq;
        assert!(
            (1.7..=2.6).contains(&ratio),
            "Palm/iPAQ lifetime ratio {ratio}"
        );
        // Symbian sits between them.
        let nokia = hours("Nokia");
        assert!(
            nokia > ipaq && nokia < palm,
            "nokia {nokia} vs ipaq {ipaq}, palm {palm}"
        );
    }

    #[test]
    fn deck_adaptation_makes_small_devices_work() {
        let rows = pagination_ablation();
        let adapted = rows
            .iter()
            .find(|r| r.deck_cap_bytes == Some(4_000))
            .unwrap();
        let unadapted = rows.iter().find(|r| r.deck_cap_bytes.is_none()).unwrap();
        assert!(adapted.palm_loads, "adapted decks fit the Palm");
        assert!(
            !unadapted.palm_loads,
            "the full deck exceeds its 8 KB budget"
        );
        assert!(adapted.air_bytes < unadapted.air_bytes);
    }
}
