//! System-level experiments: the figures and tables of the paper.

use std::fmt;

use hostsite::db::Database;
use hostsite::HostComputer;
use mcommerce_core::apps::{all_apps, for_category};
use mcommerce_core::requirements::{check_all, RequirementReport};
use mcommerce_core::workload::run_workload;
use mcommerce_core::{
    Category, CommerceSystem, EcSystem, FleetRunner, MiddlewareKind, Scenario, SystemSpec,
    WiredPath, WirelessConfig, WorkloadSummary,
};
use middleware::MobileRequest;
use simnet::rng::rng_for;
use station::DeviceProfile;
use wireless::{CellularStandard, WlanStandard};

fn wifi(distance_m: f64) -> WirelessConfig {
    WirelessConfig::Wlan {
        standard: WlanStandard::Dot11b,
        distance_m,
    }
}

// ---------------------------------------------------------------------
// F1 / F2 — Figures 1 and 2
// ---------------------------------------------------------------------

/// One system's mean per-component latency profile.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// System label.
    pub(crate) label: String,
    /// Mean total latency, seconds.
    pub(crate) total_secs: f64,
    /// Mean per-component shares (component → fraction of latency).
    pub(crate) shares: Vec<(String, f64)>,
}

impl fmt::Display for SystemProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<40} {:>8.1} ms |", self.label, self.total_secs * 1e3)?;
        for (name, share) in &self.shares {
            write!(f, " {name} {:>4.1}%", share * 100.0)?;
        }
        Ok(())
    }
}

/// Figures 1 and 2: the same Commerce workload through the EC system
/// (four components) and the MC system (six components). The MC profile
/// must show the two extra components carrying real latency.
pub fn fig1_fig2(transactions: u64) -> (SystemProfile, SystemProfile) {
    let profile = |label: String, summary: &WorkloadSummary| SystemProfile {
        label,
        total_secs: summary.latency_mean,
        shares: summary
            .component_shares
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
    };

    // EC baseline (Figure 1): same application, none of the mobile
    // components. The fleet engine only builds MC systems, so the
    // four-component baseline is assembled directly.
    let app = for_category(Category::Commerce);
    let mut host = HostComputer::new(Database::new(), 1);
    app.install(&mut host);
    let mut ec = EcSystem::new(host, WiredPath::wan());
    let ec_summary = run_workload(&mut ec, app.as_ref(), transactions, 5);

    // MC (Figure 2): the same workload as a fleet of single-session users.
    let scenario = Scenario::new("Figure 2")
        .app(Category::Commerce)
        .users(transactions)
        .seed(7);
    let mc = FleetRunner::new(scenario).run().report;

    (
        profile("EC (Figure 1: 4 components)".into(), &ec_summary),
        profile("MC (Figure 2: 6 components)".into(), &mc.summary.workload),
    )
}

// ---------------------------------------------------------------------
// T1 — Table 1
// ---------------------------------------------------------------------

/// One Table 1 row, measured.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Category name (Table 1 column 1).
    pub(crate) category: String,
    /// Clients (Table 1 column 3).
    pub(crate) clients: String,
    /// Success rate over the workload.
    pub(crate) success_rate: f64,
    /// Mean step latency, seconds.
    pub(crate) latency_secs: f64,
    /// Mean bytes over the air per step.
    pub(crate) air_bytes: f64,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<36} {:>5.0}% {:>9.1} ms {:>8.0} B | {}",
            self.category,
            self.success_rate * 100.0,
            self.latency_secs * 1e3,
            self.air_bytes,
            self.clients
        )
    }
}

/// Table 1: every application category run on one MC system.
pub fn table1(sessions: u64) -> Vec<Table1Row> {
    let apps = all_apps();
    let mut host = HostComputer::new(Database::new(), 31);
    for app in &apps {
        app.install(&mut host);
    }
    let mut system = SystemSpec::new()
        .middleware(MiddlewareKind::Wap)
        .device(DeviceProfile::ipaq_h3870())
        .wireless(wifi(25.0))
        .wired(WiredPath::wan())
        .seed(32)
        .build(host);
    apps.iter()
        .map(|app| {
            let summary = run_workload(&mut system, app.as_ref(), sessions, 33);
            Table1Row {
                category: app.category().name().to_owned(),
                clients: app.category().clients().to_owned(),
                success_rate: summary.success_rate(),
                latency_secs: summary.latency_mean,
                air_bytes: summary.air_bytes_mean,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T2 — Table 2
// ---------------------------------------------------------------------

/// One Table 2 row, measured.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Device name.
    pub(crate) device: String,
    /// Operating system.
    pub(crate) os: String,
    /// Mean transaction latency, seconds (device CPU included).
    pub(crate) latency_secs: f64,
    /// Mean station-CPU share of latency.
    pub(crate) station_share: f64,
    /// Mean energy per transaction, joules.
    pub(crate) energy_j: f64,
    /// Content budget in bytes (drives which decks load at all).
    pub(crate) content_budget: usize,
}

impl fmt::Display for Table2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:<14} {:>9.1} ms {:>6.1}% cpu {:>8.2} mJ {:>7} B budget",
            self.device,
            self.os,
            self.latency_secs * 1e3,
            self.station_share * 100.0,
            self.energy_j * 1e3,
            self.content_budget
        )
    }
}

/// Table 2: the same travel-booking workload on each of the five devices.
/// Slower CPUs and heavier OSes must show up as higher latency.
pub fn table2(sessions: u64) -> Vec<Table2Row> {
    DeviceProfile::table2()
        .into_iter()
        .map(|device| {
            let scenario = Scenario::new("Table 2")
                .app(Category::Travel)
                .device(device.clone())
                .sessions_per_user(sessions)
                .seed(43);
            let summary = FleetRunner::new(scenario).run().report.summary.workload;
            Table2Row {
                device: device.name.to_owned(),
                os: device.os.to_string(),
                latency_secs: summary.latency_mean,
                station_share: summary
                    .component_shares
                    .get("station")
                    .copied()
                    .unwrap_or(0.0),
                energy_j: summary.energy_mean_j,
                content_budget: device.content_budget_bytes(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T3 — Table 3
// ---------------------------------------------------------------------

/// One middleware × network measurement.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Middleware name.
    pub(crate) middleware: String,
    /// Network name.
    pub(crate) network: String,
    /// Mean latency, seconds.
    pub(crate) latency_secs: f64,
    /// Mean over-the-air bytes per step.
    pub(crate) air_bytes: f64,
    /// Mean middleware-CPU share.
    pub(crate) middleware_share: f64,
    /// Mean energy, joules.
    pub(crate) energy_j: f64,
}

impl fmt::Display for Table3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} on {:<22} {:>9.1} ms {:>8.0} B {:>6.2}% mw-cpu {:>8.2} mJ",
            self.middleware,
            self.network,
            self.latency_secs * 1e3,
            self.air_bytes,
            self.middleware_share * 100.0,
            self.energy_j * 1e3
        )
    }
}

/// Table 3: WAP vs i-mode, same content, across three wireless networks.
pub fn table3(sessions: u64) -> Vec<Table3Row> {
    let networks = [
        wifi(25.0),
        WirelessConfig::Cellular {
            standard: CellularStandard::Gprs,
        },
        WirelessConfig::Cellular {
            standard: CellularStandard::Wcdma,
        },
    ];
    let mut rows = Vec::new();
    for network in networks {
        for kind in [MiddlewareKind::Wap, MiddlewareKind::IMode] {
            // One user running the whole session budget, so the one-time
            // WSP session setup amortises across the workload exactly as
            // it would for a real returning customer.
            let scenario = Scenario::new("Table 3")
                .app(Category::Commerce)
                .middleware(kind)
                .device(DeviceProfile::nokia_9290())
                .wireless(network)
                .sessions_per_user(sessions)
                .seed(53);
            let summary = FleetRunner::new(scenario).run().report.summary.workload;
            rows.push(Table3Row {
                middleware: kind.name().to_owned(),
                network: network.name(),
                latency_secs: summary.latency_mean,
                air_bytes: summary.air_bytes_mean,
                middleware_share: summary
                    .component_shares
                    .get("middleware")
                    .copied()
                    .unwrap_or(0.0),
                energy_j: summary.energy_mean_j,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// T4 — Table 4
// ---------------------------------------------------------------------

/// Goodput of one WLAN standard at one distance.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Standard name.
    pub standard: String,
    /// Nominal maximum rate (the Table 4 figure), bps.
    pub nominal_bps: u64,
    /// Distance in metres.
    pub distance_m: f64,
    /// Measured goodput, bps (0 = out of range).
    pub goodput_bps: f64,
    /// Link-layer retransmissions per transfer.
    pub retransmissions: u32,
}

impl fmt::Display for Table4Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} @ {:>5.0} m: {:>8.2} Mbps goodput (nominal {:>2} Mbps), {} retx",
            self.standard,
            self.distance_m,
            self.goodput_bps / 1e6,
            self.nominal_bps / 1_000_000,
            self.retransmissions
        )
    }
}

/// Table 4: bulk transfer over each WLAN standard at a sweep of
/// distances; goodput follows the standard's rate tiers and dies at the
/// range edge.
pub fn table4(bytes_per_transfer: usize) -> Vec<Table4Row> {
    let distances = [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0];
    let mut rows = Vec::new();
    for standard in WlanStandard::ALL {
        for &distance_m in &distances {
            let config = WirelessConfig::Wlan {
                standard,
                distance_m,
            };
            let (goodput, retx) = match config.air_link() {
                None => (0.0, 0),
                Some(link) => {
                    let mut rng = rng_for(61, "t4");
                    let transfer = link.transfer(bytes_per_transfer, &mut rng);
                    if transfer.failed {
                        (0.0, transfer.retransmissions)
                    } else {
                        (
                            bytes_per_transfer as f64 * 8.0 / transfer.elapsed.as_secs_f64(),
                            transfer.retransmissions,
                        )
                    }
                }
            };
            rows.push(Table4Row {
                standard: standard.name().to_owned(),
                nominal_bps: standard.max_rate_bps(),
                distance_m,
                goodput_bps: goodput,
                retransmissions: retx,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// T5 — Table 5
// ---------------------------------------------------------------------

/// One cellular standard's measured behaviour.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Standard name.
    pub(crate) standard: String,
    /// Generation label.
    pub(crate) generation: String,
    /// Switching technique.
    pub(crate) switching: String,
    /// Whether mobile commerce is feasible at all (1G analog is not).
    pub(crate) feasible: bool,
    /// First-transaction latency (includes session setup), seconds.
    pub(crate) first_txn_secs: f64,
    /// Steady-state transaction latency, seconds.
    pub(crate) steady_txn_secs: f64,
}

impl fmt::Display for Table5Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.feasible {
            write!(
                f,
                "{:<16} {:<5} {:<16} first {:>8.2} s, steady {:>7.3} s",
                self.standard,
                self.generation,
                self.switching,
                self.first_txn_secs,
                self.steady_txn_secs
            )
        } else {
            write!(
                f,
                "{:<16} {:<5} {:<16} no data service — infeasible for MC",
                self.standard, self.generation, self.switching
            )
        }
    }
}

/// Table 5: the same payment transaction on every cellular generation.
pub fn table5() -> Vec<Table5Row> {
    CellularStandard::ALL
        .iter()
        .map(|&standard| {
            let config = WirelessConfig::Cellular { standard };
            let feasible = config.air_link().is_some();
            let (first, steady) = if feasible {
                // Table 5 needs individual transactions, not aggregates,
                // so it takes a single provisioned system from the same
                // Scenario description the fleet engine uses.
                let scenario = Scenario::new("Table 5")
                    .app(Category::Commerce)
                    .device(DeviceProfile::nokia_9290())
                    .wireless(config)
                    .seed(72);
                let mut system = scenario.system_for_user(0);
                let first = system.execute(&MobileRequest::get("/shop"));
                let mut steady = Vec::new();
                for _ in 0..10 {
                    let report = system.execute(&MobileRequest::get("/shop"));
                    steady.push(report.total().as_secs_f64());
                }
                (
                    first.total().as_secs_f64(),
                    steady.iter().sum::<f64>() / steady.len() as f64,
                )
            } else {
                (0.0, 0.0)
            };
            Table5Row {
                standard: standard.name().to_owned(),
                generation: standard.generation().to_string(),
                switching: standard.switching().to_string(),
                feasible,
                first_txn_secs: first,
                steady_txn_secs: steady,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F3 — fleet scale
// ---------------------------------------------------------------------

/// Throughput of the fleet engine at one (users, threads) point.
#[derive(Debug, Clone)]
pub struct FleetScaleRow {
    /// Simulated users in the fleet.
    pub(crate) users: u64,
    /// OS threads the fleet was sharded across (after clamping).
    pub(crate) threads: usize,
    /// Transactions executed across the fleet.
    pub(crate) transactions: u64,
    /// Wall-clock seconds the run took.
    pub(crate) wall_secs: f64,
    /// Transactions simulated per wall-clock second.
    pub(crate) tps: f64,
}

impl fmt::Display for FleetScaleRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>6} users × {:>2} thread(s): {:>7} txns in {:>8.3} s = {:>10.0} txns/s",
            self.users, self.threads, self.transactions, self.wall_secs, self.tps
        )
    }
}

/// Fleet scale: the same Commerce scenario swept across fleet sizes and
/// shard counts. The merged [`mcommerce_core::FleetSummary`] is bit-for-bit
/// identical at every thread count (the fleet engine's determinism
/// contract — asserted here on every sweep point); only the wall clock
/// changes with parallelism.
pub fn fleet_scale(users_sweep: &[u64], threads_sweep: &[usize]) -> Vec<FleetScaleRow> {
    let mut rows = Vec::new();
    for &users in users_sweep {
        let scenario = Scenario::new("F3")
            .app(Category::Commerce)
            .users(users)
            .seed(97);
        let mut reference = None;
        for &threads in threads_sweep {
            if threads as u64 > users && threads > 1 {
                continue; // would clamp to a duplicate of an earlier row
            }
            let report = FleetRunner::new(scenario.clone()).threads(threads).run().report;
            let summary = report.summary.clone();
            if let Some(reference) = &reference {
                assert_eq!(
                    reference, &summary,
                    "fleet merge must not depend on thread count"
                );
            } else {
                reference = Some(summary);
            }
            rows.push(FleetScaleRow {
                users,
                threads: report.threads,
                transactions: report.summary.transactions(),
                wall_secs: report.wall_secs,
                tps: report.throughput_tps(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// X2 — §1.1 requirements
// ---------------------------------------------------------------------

/// The five requirement checks of §1.1, executed.
pub fn independence() -> Vec<RequirementReport> {
    check_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_fig2_shapes_hold() {
        let (ec, mc) = fig1_fig2(40);
        // MC costs more than EC…
        assert!(mc.total_secs > ec.total_secs);
        // …and the two added components genuinely contribute in MC…
        let share = |p: &SystemProfile, name: &str| {
            p.shares
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        assert!(share(&mc, "wireless") > 0.0);
        assert!(share(&mc, "middleware") > 0.0);
        // …while EC has neither.
        assert_eq!(share(&ec, "wireless"), 0.0);
        assert_eq!(share(&ec, "middleware"), 0.0);
    }

    #[test]
    fn table1_all_categories_succeed() {
        let rows = table1(3);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                row.success_rate > 0.95,
                "{}: {}",
                row.category,
                row.success_rate
            );
            assert!(row.latency_secs > 0.0);
        }
    }

    #[test]
    fn table2_slower_devices_are_slower() {
        let rows = table2(4);
        assert_eq!(rows.len(), 5);
        let get = |name: &str| rows.iter().find(|r| r.device.contains(name)).unwrap();
        let palm = get("Palm i705");
        let toshiba = get("Toshiba");
        // 33 MHz Dragonball vs 400 MHz PXA250.
        assert!(palm.latency_secs > toshiba.latency_secs);
        assert!(palm.station_share > toshiba.station_share);
        assert!(palm.content_budget < toshiba.content_budget);
    }

    #[test]
    fn table3_tradeoff_holds_on_slow_links() {
        let rows = table3(4);
        let find = |mw: &str, net: &str| {
            rows.iter()
                .find(|r| r.middleware == mw && r.network.contains(net))
                .unwrap()
        };
        // WAP ships fewer bytes over the air than i-mode everywhere.
        for net in ["802.11b", "GPRS", "WCDMA"] {
            assert!(
                find("WAP", net).air_bytes < find("i-mode", net).air_bytes,
                "{net}"
            );
        }
        // On GPRS (slow), fewer air bytes keep WAP competitive despite
        // its one-time WSP session setup (amortised over the workload).
        let wap = find("WAP", "GPRS");
        let imode = find("i-mode", "GPRS");
        assert!(
            wap.latency_secs <= imode.latency_secs * 1.25,
            "wap {} vs imode {}",
            wap.latency_secs,
            imode.latency_secs
        );
        // And WAP's translation CPU share is the visibly larger one.
        assert!(wap.middleware_share > imode.middleware_share);
    }

    #[test]
    fn table4_ordering_and_range_cliffs() {
        let rows = table4(100_000);
        let goodput = |std: &str, d: f64| {
            rows.iter()
                .find(|r| r.standard.contains(std) && r.distance_m == d)
                .unwrap()
                .goodput_bps
        };
        // Close in, the Table 4 rate ordering holds.
        assert!(goodput("Bluetooth", 5.0) < goodput("802.11b", 5.0));
        assert!(goodput("802.11b", 5.0) < goodput("802.11a", 5.0));
        // Range cliffs: Bluetooth dies beyond 10 m, 802.11b beyond 100 m,
        // HyperLAN2 still alive at 300 m.
        assert_eq!(goodput("Bluetooth", 25.0), 0.0);
        assert_eq!(goodput("802.11b", 150.0), 0.0);
        assert!(goodput("HyperLAN2", 300.0) > 0.0);
        // Rate degrades with distance within coverage.
        assert!(goodput("802.11g", 150.0) < goodput("802.11g", 10.0));
    }

    #[test]
    fn fleet_scale_merges_identically_and_speeds_up_with_cores() {
        let rows = fleet_scale(&[64], &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        // Same fleet at every thread count (determinism is asserted
        // inside fleet_scale itself): same transaction total.
        for row in &rows {
            assert_eq!(row.transactions, 128); // 64 users × 2-step session
            assert!(row.tps > 0.0);
        }
        // Speedup is machine-dependent; only demand the >2× win at 4
        // threads when the host actually has 4 cores to give.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 4 {
            let tps = |t: usize| rows.iter().find(|r| r.threads == t).unwrap().tps;
            assert!(
                tps(4) > tps(1) * 2.0,
                "4 threads {} vs 1 thread {}",
                tps(4),
                tps(1)
            );
        }
    }

    #[test]
    fn table5_generations_behave() {
        let rows = table5();
        assert_eq!(rows.len(), 9);
        let find = |name: &str| rows.iter().find(|r| r.standard.contains(name)).unwrap();
        // 1G analog: infeasible.
        assert!(!find("AMPS").feasible);
        assert!(!find("TACS").feasible);
        // Circuit-switched 2G pays multi-second setup on first contact.
        let gsm = find("GSM");
        assert!(gsm.first_txn_secs > gsm.steady_txn_secs + 4.0);
        // Packet 2.5G does not.
        let gprs = find("GPRS");
        assert!(gprs.first_txn_secs < gprs.steady_txn_secs + 1.5);
        // Steady-state latency improves with generation.
        assert!(find("WCDMA").steady_txn_secs < find("GPRS").steady_txn_secs);
        assert!(find("GPRS").steady_txn_secs < find("GSM").steady_txn_secs);
    }
}
