//! X1 — TCP and its mobile variants over an error-prone wireless hop
//! with handoffs, at packet granularity.
//!
//! §5.2's claim, measured: plain TCP "performs poorly due to factors such
//! as error-prone wireless channels, frequent handoffs and
//! disconnections", and the three cited schemes recover the loss —
//! split-connection TCP (Yavatkar & Bhagawat \[16\]), snoop packet
//! caching (Balakrishnan et al. \[1\]) and fast retransmission after
//! handoff (Caceres & Iftode \[2\]).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use netstack::node::Network;
use netstack::{Ip, Subnet};
use simnet::link::{LinkParams, LossModel};
use simnet::rng::rng_for;
use simnet::trace::Trace;
use simnet::{SimDuration, SimTime, Simulator};
use transport::{Connection, SnoopAgent, SocketAddr, SplitProxy, Tcp};
use wireless::HandoffController;

const FIXED: Ip = Ip::new(10, 0, 0, 1);
const BS: Ip = Ip::new(10, 0, 0, 254);
const MOBILE: Ip = Ip::new(172, 16, 0, 5);

/// The transport scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain end-to-end Reno TCP.
    Reno,
    /// Split/indirect TCP at the base station \[16\].
    Split,
    /// Snoop packet caching at the base station \[1\].
    Snoop,
    /// Reno plus fast retransmission on handoff completion \[2\].
    FastHandoff,
}

impl Variant {
    /// All four variants.
    pub const ALL: [Variant; 4] = [
        Variant::Reno,
        Variant::Split,
        Variant::Snoop,
        Variant::FastHandoff,
    ];

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Variant::Reno => "TCP Reno (baseline)",
            Variant::Split => "Split TCP [16]",
            Variant::Snoop => "Snoop caching [1]",
            Variant::FastHandoff => "Fast handoff retx [2]",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one X1 run.
#[derive(Debug, Clone, Copy)]
pub struct TcpxConfig {
    /// Bytes to transfer fixed → mobile.
    pub bytes: usize,
    /// Wireless bit-error rate.
    pub ber: f64,
    /// Handoff period (None = no handoffs).
    pub handoff_period: Option<SimDuration>,
    /// Handoff blackout duration.
    pub blackout: SimDuration,
    /// Simulated-time budget before declaring the run stalled.
    pub time_limit: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TcpxConfig {
    fn default() -> Self {
        TcpxConfig {
            bytes: 400_000,
            ber: 1e-5,
            handoff_period: Some(SimDuration::from_millis(3_000)),
            blackout: SimDuration::from_millis(250),
            time_limit: SimDuration::from_secs(600),
            seed: 99,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct TcpxRow {
    /// Scheme under test.
    pub(crate) variant: Variant,
    /// Wireless BER used.
    pub(crate) ber: f64,
    /// Whether handoffs were active.
    pub(crate) handoffs: bool,
    /// Handoff period in seconds (0 when disabled).
    pub(crate) handoff_period_secs: f64,
    /// Whether the full payload arrived within the time budget.
    pub(crate) completed: bool,
    /// Transfer time, seconds.
    pub(crate) elapsed_secs: f64,
    /// Application goodput, bits per second.
    pub(crate) goodput_bps: f64,
    /// Retransmissions by the *fixed sender* (end-to-end recovery cost).
    pub(crate) sender_retransmits: u64,
    /// RTOs taken by the fixed sender.
    pub(crate) sender_rtos: u64,
    /// Local retransmissions by the base station (snoop only).
    pub(crate) local_retransmits: u64,
}

impl fmt::Display for TcpxRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} ber={:>7.0e} handoff={:<9} {:>8.1} kbps in {:>6.2} s, sender retx {:>4}, RTOs {:>3}, local retx {:>4}{}",
            self.variant.name(),
            self.ber,
            if self.handoffs { format!("per {:.1}s", self.handoff_period_secs) } else { "none".to_owned() },
            self.goodput_bps / 1e3,
            self.elapsed_secs,
            self.sender_retransmits,
            self.sender_rtos,
            self.local_retransmits,
            if self.completed { "" } else { "  [STALLED]" }
        )
    }
}

/// Runs one configuration of the X1 experiment.
pub fn run_one(variant: Variant, config: &TcpxConfig) -> TcpxRow {
    let mut sim = Simulator::new();
    let trace = Trace::bounded(64);

    let mut net = Network::new();
    let fixed = net.add_node("fixed", FIXED);
    let bs = net.add_node("bs", BS);
    let mobile = net.add_node("mobile", MOBILE);

    // The fixed host is far away (100 ms one way): the bandwidth-delay
    // product is large enough that congestion-window collapses at the
    // sender genuinely cost throughput — the regime the cited papers
    // evaluate in.
    Network::connect(
        &fixed,
        FIXED,
        &bs,
        BS,
        LinkParams::reliable(10_000_000, SimDuration::from_millis(100)),
    );
    let mut wparams = LinkParams::reliable(2_000_000, SimDuration::from_millis(5));
    wparams.loss = if config.ber > 0.0 {
        LossModel::BitError { ber: config.ber }
    } else {
        LossModel::None
    };
    wparams.queue_capacity = 256;
    let (down, up) = Network::connect(&bs, BS, &mobile, MOBILE, wparams);
    down.set_rng(rng_for(config.seed, "tcpx.down"));
    up.set_rng(rng_for(config.seed, "tcpx.up"));
    fixed.add_route(Subnet::DEFAULT, BS);
    mobile.add_route(Subnet::DEFAULT, BS);

    let tcp_fixed = Tcp::install(Rc::clone(&fixed), trace.clone());
    let tcp_bs = Tcp::install(Rc::clone(&bs), trace.clone());
    let tcp_mobile = Tcp::install(Rc::clone(&mobile), trace.clone());

    // Receiver bookkeeping: bytes received and when the last one landed.
    let received: Rc<RefCell<(usize, SimTime)>> = Rc::new(RefCell::new((0, SimTime::ZERO)));
    let mobile_conn: Rc<RefCell<Option<Rc<Connection>>>> = Rc::default();
    {
        let received = Rc::clone(&received);
        let mobile_conn = Rc::clone(&mobile_conn);
        tcp_mobile.listen(80, move |_sim, conn| {
            *mobile_conn.borrow_mut() = Some(Rc::clone(&conn));
            let received = Rc::clone(&received);
            conn.on_data(move |sim, data: Bytes| {
                let mut r = received.borrow_mut();
                r.0 += data.len();
                r.1 = sim.now();
            });
        });
    }

    // Variant-specific base-station machinery.
    let snoop = match variant {
        Variant::Snoop => Some(SnoopAgent::install(
            &bs,
            Subnet::new(MOBILE, 24),
            trace.clone(),
        )),
        _ => None,
    };
    if variant == Variant::Split {
        SplitProxy::install(&tcp_bs, BS, 80, SocketAddr::new(MOBILE, 80), trace.clone());
    }

    // Handoff blackouts on both wireless directions.
    let controller = config.handoff_period.map(|period| {
        let ctl = HandoffController::over_links(
            vec![Rc::clone(&down), Rc::clone(&up)],
            period,
            config.blackout,
        );
        ctl.start(&mut sim);
        ctl
    });
    if variant == Variant::FastHandoff {
        if let Some(ctl) = &controller {
            let mobile_conn = Rc::clone(&mobile_conn);
            ctl.on_complete(move |sim| {
                if let Some(conn) = mobile_conn.borrow().as_ref() {
                    conn.handoff_complete(sim);
                }
            });
        }
    }

    // Kick off the transfer.
    let target = match variant {
        Variant::Split => SocketAddr::new(BS, 80),
        _ => SocketAddr::new(MOBILE, 80),
    };
    // One allocation for the whole transfer; TCP slices it per segment.
    let payload = Bytes::from(vec![0xA5u8; config.bytes]);
    let sender = tcp_fixed.connect(&mut sim, FIXED, target);
    sender.send_bytes(&mut sim, payload);

    sim.run_until(SimTime::ZERO + config.time_limit);

    let (got, last_at) = *received.borrow();
    let completed = got >= config.bytes;
    let elapsed = if completed {
        last_at.as_secs_f64()
    } else {
        config.time_limit.as_secs_f64()
    };
    TcpxRow {
        variant,
        ber: config.ber,
        handoffs: config.handoff_period.is_some(),
        handoff_period_secs: config
            .handoff_period
            .map(|p| p.as_secs_f64())
            .unwrap_or(0.0),
        completed,
        elapsed_secs: elapsed,
        goodput_bps: got as f64 * 8.0 / elapsed.max(1e-9),
        sender_retransmits: sender.stats.retransmits.get(),
        sender_rtos: sender.stats.rtos.get(),
        local_retransmits: snoop.map(|s| s.local_retransmits.get()).unwrap_or(0),
    }
}

/// Runs all four variants under `config`.
pub(crate) fn tcp_variants(config: &TcpxConfig) -> Vec<TcpxRow> {
    Variant::ALL.iter().map(|&v| run_one(v, config)).collect()
}

/// The BER sweep: all variants at each bit-error rate (no handoffs), plus
/// the handoff scenario at the base BER.
pub fn full_sweep(bytes: usize) -> Vec<TcpxRow> {
    let mut rows = Vec::new();
    for &ber in &[0.0, 1e-6, 5e-6, 1e-5, 2e-5] {
        let config = TcpxConfig {
            bytes,
            ber,
            handoff_period: None,
            ..Default::default()
        };
        rows.extend(tcp_variants(&config));
    }
    // Moderate handoffs (one every 3 s) …
    let config = TcpxConfig {
        bytes,
        ..Default::default()
    };
    rows.extend(tcp_variants(&config));
    // … and aggressive cell-crossing (every 1.5 s), where plain TCP's
    // backed-off timers can no longer keep up at all.
    let config = TcpxConfig {
        bytes,
        handoff_period: Some(SimDuration::from_millis(1_500)),
        ..Default::default()
    };
    rows.extend(tcp_variants(&config));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ber: f64, handoffs: bool) -> TcpxConfig {
        TcpxConfig {
            bytes: 400_000,
            ber,
            handoff_period: handoffs.then(|| SimDuration::from_millis(3_000)),
            ..Default::default()
        }
    }

    #[test]
    fn clean_channel_all_variants_equal_ish() {
        for variant in Variant::ALL {
            let row = run_one(variant, &cfg(0.0, false));
            assert!(row.completed, "{variant}");
            assert_eq!(row.sender_rtos, 0, "{variant}");
        }
    }

    #[test]
    fn lossy_channel_reno_pays_end_to_end_while_snoop_hides_it() {
        let reno = run_one(Variant::Reno, &cfg(1e-5, false));
        let snoop = run_one(Variant::Snoop, &cfg(1e-5, false));
        assert!(reno.completed && snoop.completed);
        assert!(reno.sender_retransmits > 0, "BER must hurt Reno");
        assert!(
            snoop.sender_retransmits * 2 < reno.sender_retransmits.max(1),
            "snoop {} vs reno {}",
            snoop.sender_retransmits,
            reno.sender_retransmits
        );
        assert!(snoop.local_retransmits > 0);
        assert!(snoop.goodput_bps >= reno.goodput_bps * 0.95);
    }

    #[test]
    fn split_confines_loss_to_the_wireless_leg() {
        let split = run_one(Variant::Split, &cfg(1e-5, false));
        assert!(split.completed);
        // The fixed sender crosses only the lossless wired leg.
        assert_eq!(split.sender_retransmits, 0);
        assert_eq!(split.sender_rtos, 0);
    }

    #[test]
    fn handoffs_hurt_reno_and_fast_retransmit_recovers() {
        // The transfer must span several handoff cycles for §5.2's claim
        // ("frequent handoffs and disconnections") to bite: a 400 KB
        // transfer finishes around the first 3 s blackout and Reno can
        // ride it out on duplicate ACKs alone. At 800 KB the baseline
        // provably loses whole windows to repeated blackouts and falls
        // into RTO exponential backoff — the failure mode [2] fixes —
        // and may not finish within the budget at all.
        let config = TcpxConfig {
            bytes: 800_000,
            ..cfg(1e-6, true)
        };
        let reno = run_one(Variant::Reno, &config);
        let fast = run_one(Variant::FastHandoff, &config);
        assert!(fast.completed, "the [2] scheme must finish");
        assert!(
            fast.goodput_bps > reno.goodput_bps * 2.0,
            "fast {} vs reno {}",
            fast.goodput_bps,
            reno.goodput_bps
        );
        // The whole point of [2]: recover by fast retransmit, not RTO.
        assert!(fast.sender_rtos <= reno.sender_rtos);
        assert!(reno.sender_rtos >= 1, "handoffs must hurt the baseline");
    }

    #[test]
    fn aggressive_handoffs_starve_reno_but_not_the_fix() {
        let aggressive = TcpxConfig {
            bytes: 400_000,
            ber: 1e-6,
            handoff_period: Some(SimDuration::from_millis(1_500)),
            ..Default::default()
        };
        let reno = run_one(Variant::Reno, &aggressive);
        let fast = run_one(Variant::FastHandoff, &aggressive);
        assert!(fast.completed, "the [2] scheme must survive");
        assert!(
            fast.goodput_bps > reno.goodput_bps * 3.0,
            "fast {} vs reno {}",
            fast.goodput_bps,
            reno.goodput_bps
        );
    }

    #[test]
    fn goodput_collapses_with_ber_for_reno() {
        let clean = run_one(Variant::Reno, &cfg(0.0, false));
        let dirty = run_one(Variant::Reno, &cfg(2e-5, false));
        assert!(
            clean.goodput_bps > dirty.goodput_bps * 2.0,
            "clean {} dirty {}",
            clean.goodput_bps,
            dirty.goodput_bps
        );
    }
}
