//! The snoop agent — "packet caching" at the base station.
//!
//! Balakrishnan et al. \[1\] (cited in §5.2): the base station caches TCP
//! data segments heading to the mobile host and watches the ACK stream
//! coming back. When duplicate ACKs reveal a loss on the wireless hop, the
//! base station retransmits from its cache *locally* and suppresses the
//! duplicate ACKs so the fixed sender never notices — its congestion
//! window stays open and no end-to-end retransmission (or RTO) is paid.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use netstack::node::TapResult;
use netstack::{IpPacket, Node, Payload, Protocol, Subnet};
use simnet::stats::Counter;
use simnet::trace::Trace;
use simnet::{SimDuration, SimTime, Simulator};

use crate::seg::{SocketAddr, TcpSegment};

/// Per-connection snoop state.
struct FlowState {
    /// Cached unacknowledged data segments toward the mobile, keyed by seq.
    cache: BTreeMap<u64, TcpSegment>,
    /// Highest cumulative ACK seen from the mobile.
    last_ack: u64,
    /// Count of consecutive duplicate ACKs currently suppressed.
    dup_count: u32,
    /// When the base station last retransmitted locally.
    last_local_retx: SimTime,
    /// When the mobile last acknowledged new data.
    last_progress: SimTime,
}

/// A snoop agent installed on a base-station node via the node's tap.
pub struct SnoopAgent {
    node: Rc<Node>,
    mobile_net: Subnet,
    flows: RefCell<HashMap<(SocketAddr, SocketAddr), FlowState>>,
    /// Local retransmission timeout: how long the head-of-line segment may
    /// sit unacknowledged before the base station resends it unprompted.
    local_timeout: SimDuration,
    /// Data segments cached.
    pub(crate) cached: Counter,
    /// Local retransmissions performed.
    pub local_retransmits: Counter,
    /// Of which, triggered by the local timer (vs duplicate ACKs).
    pub(crate) timer_retransmits: Counter,
    /// Duplicate ACKs suppressed before they reached the fixed sender.
    pub(crate) suppressed_dupacks: Counter,
    trace: Trace,
}

impl std::fmt::Debug for SnoopAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnoopAgent")
            .field("mobile_net", &self.mobile_net)
            .field("local_retransmits", &self.local_retransmits.get())
            .field("suppressed_dupacks", &self.suppressed_dupacks.get())
            .finish()
    }
}

impl SnoopAgent {
    /// Installs snooping on `base_station`. Traffic *to* addresses inside
    /// `mobile_net` is cached; duplicate ACKs *from* those addresses
    /// trigger local retransmission and are suppressed.
    ///
    /// Claims the node's tap slot.
    pub fn install(base_station: &Rc<Node>, mobile_net: Subnet, trace: Trace) -> Rc<Self> {
        let agent = Rc::new(SnoopAgent {
            node: Rc::clone(base_station),
            mobile_net,
            flows: RefCell::new(HashMap::new()),
            local_timeout: SimDuration::from_millis(100),
            cached: Counter::new(),
            local_retransmits: Counter::new(),
            timer_retransmits: Counter::new(),
            suppressed_dupacks: Counter::new(),
            trace,
        });
        {
            let agent = Rc::clone(&agent);
            base_station.set_tap(move |sim, node, pkt| agent.tap(sim, node, pkt));
        }
        agent
    }

    /// Retransmits `cached` toward the mobile from the base station.
    fn retransmit_local(&self, sim: &mut Simulator, cached: TcpSegment, by_timer: bool) {
        self.local_retransmits.incr();
        if by_timer {
            self.timer_retransmits.incr();
        }
        self.trace.log(
            sim.now(),
            "snoop",
            format!(
                "local retransmit seq={}{}",
                cached.seq,
                if by_timer { " (timer)" } else { "" }
            ),
        );
        let size = cached.wire_size();
        let out = IpPacket::new(
            cached.src.ip,
            cached.dst.ip,
            Protocol::Tcp,
            Payload::new(cached, size),
        );
        let node = Rc::clone(&self.node);
        node.forward(sim, out);
    }

    /// Arms the head-of-line watchdog for `(key, seq)`: if the segment is
    /// still cached and still the next one the mobile expects when the
    /// timer fires, resend it locally and re-arm (bounded attempts).
    fn arm_local_timer(
        self: &Rc<Self>,
        sim: &mut Simulator,
        key: (SocketAddr, SocketAddr),
        seq: u64,
        attempt: u32,
    ) {
        if attempt >= 6 {
            return;
        }
        let agent = Rc::clone(self);
        let delay = SimDuration::from_nanos(self.local_timeout.as_nanos() << attempt.min(4));
        sim.schedule_in(delay, move |sim| {
            // Only act when the segment is still head-of-line AND the ack
            // stream has genuinely stalled — while acks keep arriving the
            // segment is just queued behind others, not lost.
            let (stale, segment) = {
                let flows = agent.flows.borrow();
                match flows.get(&key) {
                    Some(flow)
                        if flow.last_ack == seq
                            && sim.now().since(flow.last_progress) >= agent.local_timeout / 2 =>
                    {
                        (true, flow.cache.get(&seq).cloned())
                    }
                    Some(flow) if flow.cache.contains_key(&seq) => {
                        // Still cached but not stalled: keep watching.
                        let _ = flow;
                        agent.arm_local_timer(sim, key, seq, attempt + 1);
                        (false, None)
                    }
                    _ => (false, None),
                }
            };
            if !stale {
                return;
            }
            if let Some(cached) = segment {
                if let Some(flow) = agent.flows.borrow_mut().get_mut(&key) {
                    flow.last_local_retx = sim.now();
                }
                agent.retransmit_local(sim, cached, true);
                agent.arm_local_timer(sim, key, seq, attempt + 1);
            }
        });
    }

    fn tap(self: &Rc<Self>, sim: &mut Simulator, node: &Rc<Node>, pkt: IpPacket) -> TapResult {
        if pkt.proto != Protocol::Tcp {
            return TapResult::Continue(pkt);
        }
        let Some(seg) = pkt.payload.downcast_ref::<TcpSegment>().cloned() else {
            return TapResult::Continue(pkt);
        };

        let to_mobile = self.mobile_net.contains(pkt.dst) && !self.mobile_net.contains(pkt.src);
        let from_mobile = self.mobile_net.contains(pkt.src) && !self.mobile_net.contains(pkt.dst);

        if to_mobile && !seg.data.is_empty() {
            // Cache a copy of the data segment on its way to the mobile and
            // arm the head-of-line watchdog for it.
            let key = (seg.src, seg.dst);
            let seq = seg.seq;
            {
                let mut flows = self.flows.borrow_mut();
                let now = sim.now();
                let flow = flows.entry(key).or_insert_with(|| FlowState {
                    cache: BTreeMap::new(),
                    last_ack: 0,
                    dup_count: 0,
                    last_local_retx: SimTime::ZERO,
                    last_progress: now,
                });
                flow.cache.insert(seq, seg.clone());
            }
            self.cached.incr();
            self.arm_local_timer(sim, key, seq, 0);
            return TapResult::Continue(pkt);
        }

        if from_mobile && seg.is_pure_ack() {
            // The flow is keyed by the *downstream* direction.
            let key = (seg.dst, seg.src);
            let mut flows = self.flows.borrow_mut();
            let Some(flow) = flows.get_mut(&key) else {
                return TapResult::Continue(pkt);
            };
            if seg.ack > flow.last_ack {
                // Progress: clean the cache and pass the ACK through.
                flow.last_ack = seg.ack;
                flow.dup_count = 0;
                flow.last_progress = sim.now();
                flow.cache
                    .retain(|&s, cached| s + cached.data.len() as u64 > seg.ack);
                return TapResult::Continue(pkt);
            }
            if seg.ack == flow.last_ack {
                // Duplicate ACK: if the missing segment is cached, serve it
                // from here and hide the dupack from the fixed sender.
                if let Some(cached) = flow.cache.get(&seg.ack).cloned() {
                    flow.dup_count += 1;
                    self.suppressed_dupacks.incr();
                    // Retransmit locally on the first duplicate; later
                    // duplicates only trigger a resend if the previous
                    // local copy has had time to die on the air (the
                    // watchdog timer also covers silent losses).
                    let resend = flow.dup_count == 1
                        || sim.now().since(flow.last_local_retx) > self.local_timeout / 2;
                    if resend {
                        flow.last_local_retx = sim.now();
                        drop(flows);
                        self.retransmit_local(sim, cached, false);
                    }
                    let _ = node;
                    return TapResult::Consumed;
                }
            }
        }

        TapResult::Continue(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::MSS;
    use crate::tcp::Tcp;
    use bytes::Bytes;
    use netstack::node::Network;
    use netstack::Ip;
    use simnet::link::{LinkParams, LossModel};
    use simnet::rng::rng_for;
    use simnet::{SimDuration, Simulator};
    use std::cell::RefCell;

    const FIXED: Ip = Ip::new(10, 0, 0, 1);
    const BS: Ip = Ip::new(10, 0, 0, 254);
    const MOBILE: Ip = Ip::new(172, 16, 0, 5);

    /// fixed —wired— bs —wireless(lossy)— mobile
    fn world(wireless_loss: LossModel) -> (Simulator, Rc<Tcp>, Rc<Tcp>, Rc<Node>, Trace) {
        let sim = Simulator::new();
        let trace = Trace::for_test();
        let mut net = Network::new();
        let fixed = net.add_node("fixed", FIXED);
        let bs = net.add_node("bs", BS);
        let mobile = net.add_node("mobile", MOBILE);

        Network::connect(&fixed, FIXED, &bs, BS, LinkParams::wired_wan());

        let mut wparams = LinkParams::reliable(2_000_000, SimDuration::from_millis(5));
        wparams.loss = wireless_loss;
        wparams.queue_capacity = 1024;
        let (bs_m, m_bs) = Network::connect(&bs, BS, &mobile, MOBILE, wparams);
        bs_m.set_rng(rng_for(5, "snoop.down"));
        m_bs.set_rng(rng_for(5, "snoop.up"));

        fixed.add_route(Subnet::DEFAULT, BS);
        mobile.add_route(Subnet::DEFAULT, BS);

        let tcp_fixed = Tcp::install(fixed, trace.clone());
        let tcp_mobile = Tcp::install(mobile, trace.clone());
        (sim, tcp_fixed, tcp_mobile, bs, trace)
    }

    fn mobile_sink(tcp: &Rc<Tcp>) -> Rc<RefCell<Vec<u8>>> {
        let buf: Rc<RefCell<Vec<u8>>> = Rc::default();
        let b = Rc::clone(&buf);
        tcp.listen(80, move |_sim, conn| {
            let b = Rc::clone(&b);
            conn.on_data(move |_sim, data: Bytes| b.borrow_mut().extend_from_slice(&data));
        });
        buf
    }

    #[test]
    fn snoop_hides_wireless_loss_from_the_fixed_sender() {
        let loss = LossModel::Bernoulli { p: 0.05 };
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 249) as u8).collect();

        // Baseline: no snoop.
        let (mut sim, tcp_f, tcp_m, _bs, _tr) = world(loss.clone());
        let sink = mobile_sink(&tcp_m);
        let conn = tcp_f.connect(&mut sim, FIXED, SocketAddr::new(MOBILE, 80));
        conn.send(&mut sim, &payload);
        sim.run();
        assert_eq!(*sink.borrow(), payload);
        let baseline_end_retx = conn.stats.retransmits.get();
        let baseline_time = sim.now();

        // With snoop.
        let (mut sim, tcp_f, tcp_m, bs, trace) = world(loss);
        let agent = SnoopAgent::install(&bs, Subnet::new(MOBILE, 24), trace);
        let sink = mobile_sink(&tcp_m);
        let conn = tcp_f.connect(&mut sim, FIXED, SocketAddr::new(MOBILE, 80));
        conn.send(&mut sim, &payload);
        sim.run();
        assert_eq!(*sink.borrow(), payload);

        assert!(agent.local_retransmits.get() > 0, "snoop must act");
        assert!(agent.suppressed_dupacks.get() > 0);
        // End-to-end retransmissions collapse versus the baseline.
        assert!(
            conn.stats.retransmits.get() * 2 < baseline_end_retx.max(1),
            "snoop retx {} vs baseline {}",
            conn.stats.retransmits.get(),
            baseline_end_retx
        );
        // And the transfer is at least as fast.
        assert!(sim.now() <= baseline_time);
    }

    #[test]
    fn cache_is_cleaned_by_progress_acks() {
        let (mut sim, tcp_f, tcp_m, bs, trace) = world(LossModel::None);
        let agent = SnoopAgent::install(&bs, Subnet::new(MOBILE, 24), trace);
        let _sink = mobile_sink(&tcp_m);
        let conn = tcp_f.connect(&mut sim, FIXED, SocketAddr::new(MOBILE, 80));
        conn.send(&mut sim, &vec![0u8; 50 * MSS]);
        sim.run();
        assert!(agent.cached.get() >= 50);
        let cached: usize = agent.flows.borrow().values().map(|f| f.cache.len()).sum();
        assert_eq!(cached, 0, "acked segments must leave the cache");
        assert_eq!(agent.local_retransmits.get(), 0);
    }

    #[test]
    fn non_tcp_traffic_passes_untouched() {
        let (mut sim, _tcp_f, _tcp_m, bs, trace) = world(LossModel::None);
        let agent = SnoopAgent::install(&bs, Subnet::new(MOBILE, 24), trace);
        // Hand-inject a UDP packet through the BS tap path.
        let pkt = IpPacket::new(FIXED, MOBILE, Protocol::Udp, Payload::new((), 64));
        bs.receive(&mut sim, pkt);
        sim.run();
        assert_eq!(agent.cached.get(), 0);
        assert_eq!(bs.forwarded.get(), 1);
    }
}
