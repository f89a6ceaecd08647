//! The per-node TCP endpoint: demultiplexing, listeners, active opens.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use netstack::{Ip, IpPacket, Node, Protocol};
use simnet::trace::Trace;
use simnet::Simulator;

use crate::conn::Connection;
use crate::seg::{SocketAddr, TcpSegment};

type AcceptCallback = Rc<dyn Fn(&mut Simulator, Rc<Connection>)>;

/// The TCP protocol instance attached to one [`Node`].
///
/// Install with [`Tcp::install`]; then [`Tcp::listen`] for passive opens
/// and [`Tcp::connect`] for active ones. Segments are demultiplexed to
/// connections by the `(local, remote)` socket-address pair.
pub struct Tcp {
    node: Rc<Node>,
    conns: RefCell<HashMap<(SocketAddr, SocketAddr), Rc<Connection>>>,
    listeners: RefCell<HashMap<u16, AcceptCallback>>,
    next_ephemeral: std::cell::Cell<u16>,
    trace: Trace,
}

impl std::fmt::Debug for Tcp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcp")
            .field("node", &self.node.name())
            .field("conns", &self.conns.borrow().len())
            .field(
                "listeners",
                &self.listeners.borrow().keys().collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Tcp {
    /// Installs a TCP instance on `node`, claiming its
    /// [`Protocol::Tcp`] upper-layer slot.
    pub fn install(node: Rc<Node>, trace: Trace) -> Rc<Self> {
        let tcp = Rc::new(Tcp {
            node: Rc::clone(&node),
            conns: RefCell::new(HashMap::new()),
            listeners: RefCell::new(HashMap::new()),
            next_ephemeral: std::cell::Cell::new(49_152),
            trace,
        });
        {
            let tcp = Rc::clone(&tcp);
            node.set_upper(Protocol::Tcp, move |sim, pkt| tcp.handle_packet(sim, pkt));
        }
        tcp
    }

    /// Starts accepting connections on `port`; `accept` runs for each new
    /// connection as soon as its state object exists (before the handshake
    /// completes — register callbacks there).
    pub fn listen(&self, port: u16, accept: impl Fn(&mut Simulator, Rc<Connection>) + 'static) {
        self.listeners.borrow_mut().insert(port, Rc::new(accept));
    }

    /// Opens a connection from `local_ip:ephemeral` to `remote`.
    ///
    /// The returned connection is in `SynSent`; use
    /// [`Connection::on_established`] to learn when it opens.
    pub fn connect(&self, sim: &mut Simulator, local_ip: Ip, remote: SocketAddr) -> Rc<Connection> {
        let port = self
            .next_ephemeral
            .replace(self.next_ephemeral.get().wrapping_add(1));
        let local = SocketAddr::new(local_ip, port);
        let conn = Connection::new(Rc::clone(&self.node), local, remote, self.trace.clone());
        self.conns
            .borrow_mut()
            .insert((local, remote), Rc::clone(&conn));
        conn.open_active(sim);
        conn
    }

    fn handle_packet(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        let Some(seg) = pkt.payload.downcast_ref::<TcpSegment>().cloned() else {
            return;
        };
        let key = (seg.dst, seg.src);
        let existing = self.conns.borrow().get(&key).cloned();
        if let Some(conn) = existing {
            conn.handle_segment(sim, seg);
            return;
        }
        // New connection: must be a SYN to a listening port.
        if seg.syn && !seg.ack_flag {
            let listener = self.listeners.borrow().get(&seg.dst.port).cloned();
            if let Some(accept) = listener {
                let conn =
                    Connection::new(Rc::clone(&self.node), seg.dst, seg.src, self.trace.clone());
                self.conns.borrow_mut().insert(key, Rc::clone(&conn));
                accept(sim, Rc::clone(&conn));
                conn.handle_segment(sim, seg);
            }
        }
        // Non-SYN segments for unknown connections are silently dropped
        // (no RST modelling — nothing in the experiments needs it).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::State;
    use bytes::Bytes;
    use netstack::node::Network;
    use netstack::Subnet;
    use simnet::link::{LinkParams, LossModel};
    use simnet::rng::rng_for;
    use simnet::{SimDuration, SimTime};
    use std::cell::RefCell;

    const A: Ip = Ip::new(10, 0, 0, 1);
    const B: Ip = Ip::new(10, 0, 0, 2);

    struct Pair {
        sim: Simulator,
        tcp_a: Rc<Tcp>,
        tcp_b: Rc<Tcp>,
        links: (Rc<simnet::Link<IpPacket>>, Rc<simnet::Link<IpPacket>>),
        trace: Trace,
    }

    fn pair(params: LinkParams) -> Pair {
        let sim = Simulator::new();
        let trace = Trace::for_test();
        let mut net = Network::new();
        let a = net.add_node("a", A);
        let b = net.add_node("b", B);
        let links = Network::connect(&a, A, &b, B, params);
        links.0.set_rng(rng_for(1, "tcp.ab"));
        links.1.set_rng(rng_for(1, "tcp.ba"));
        a.add_route(Subnet::DEFAULT, B);
        b.add_route(Subnet::DEFAULT, A);
        let tcp_a = Tcp::install(a, trace.clone());
        let tcp_b = Tcp::install(b, trace.clone());
        Pair {
            sim,
            tcp_a,
            tcp_b,
            links,
            trace,
        }
    }

    /// Collects everything the server receives on port 80.
    fn server_sink(tcp: &Rc<Tcp>) -> Rc<RefCell<Vec<u8>>> {
        let received: Rc<RefCell<Vec<u8>>> = Rc::default();
        let r = Rc::clone(&received);
        tcp.listen(80, move |_sim, conn| {
            let r = Rc::clone(&r);
            conn.on_data(move |_sim, data: Bytes| r.borrow_mut().extend_from_slice(&data));
        });
        received
    }

    #[test]
    fn handshake_reaches_established_on_both_sides() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let _sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        assert_eq!(conn.state(), State::SynSent);
        p.sim.run();
        assert_eq!(conn.state(), State::Established);
        assert_eq!(p.tcp_b.conns.borrow().len(), 1);
        assert!(p.trace.contains("tcp", "established"));
    }

    #[test]
    fn small_transfer_delivers_exact_bytes() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        conn.send(&mut p.sim, &payload);
        p.sim.run();
        assert_eq!(*sink.borrow(), payload);
        assert_eq!(conn.stats.retransmits.get(), 0);
    }

    #[test]
    fn bulk_transfer_on_clean_link_uses_no_retransmits() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(10),
        ));
        let sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        let payload = vec![7u8; 500_000];
        conn.send(&mut p.sim, &payload);
        p.sim.run();
        assert_eq!(sink.borrow().len(), payload.len());
        assert_eq!(conn.stats.retransmits.get(), 0);
        assert_eq!(conn.stats.rtos.get(), 0);
        // RTT estimate should be near 2×10 ms.
        let rtt = conn.stats.rtt.summary();
        assert!(rtt.mean > 0.019 && rtt.mean < 0.08, "rtt mean {}", rtt.mean);
    }

    #[test]
    fn transfer_survives_random_loss() {
        let mut params = LinkParams::reliable(5_000_000, SimDuration::from_millis(10));
        params.loss = LossModel::Bernoulli { p: 0.02 };
        params.queue_capacity = 1024;
        let mut p = pair(params);
        let sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 253) as u8).collect();
        conn.send(&mut p.sim, &payload);
        p.sim.run();
        assert_eq!(*sink.borrow(), payload, "stream corrupted or truncated");
        assert!(
            conn.stats.retransmits.get() > 0,
            "loss must force retransmits"
        );
    }

    #[test]
    fn fast_retransmit_fires_before_rto_on_isolated_loss() {
        let mut params = LinkParams::reliable(10_000_000, SimDuration::from_millis(5));
        params.loss = LossModel::Bernoulli { p: 0.01 };
        params.queue_capacity = 1024;
        let mut p = pair(params);
        let _sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        conn.send(&mut p.sim, &vec![1u8; 400_000]);
        p.sim.run();
        assert!(conn.stats.fast_retransmits.get() > 0);
        // With plenty of dupacks available, most recoveries avoid RTO.
        assert!(conn.stats.fast_retransmits.get() >= conn.stats.rtos.get());
    }

    #[test]
    fn close_completes_both_sides() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let closed_server: Rc<RefCell<Vec<Rc<Connection>>>> = Rc::default();
        {
            let cs = Rc::clone(&closed_server);
            p.tcp_b.listen(80, move |_sim, conn| {
                cs.borrow_mut().push(Rc::clone(&conn));
                // Echo-style server closes when the client closes.
                let c2 = Rc::clone(&conn);
                conn.on_data(move |sim, _data| {
                    c2.close(sim);
                });
            });
        }
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        let closed: Rc<RefCell<u32>> = Rc::default();
        {
            let c = Rc::clone(&closed);
            conn.on_closed(move |_| *c.borrow_mut() += 1);
        }
        conn.send(&mut p.sim, b"bye");
        conn.close(&mut p.sim);
        p.sim.run();
        assert_eq!(conn.state(), State::Done);
        assert_eq!(*closed.borrow(), 1);
        assert_eq!(closed_server.borrow()[0].state(), State::Done);
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let mut p = pair(LinkParams::reliable(
            100_000_000,
            SimDuration::from_millis(20),
        ));
        let received = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        conn.send(&mut p.sim, &vec![0u8; 300_000]);
        p.sim.run_until(SimTime::from_millis(400));
        // A window that never grew would carry its initial two segments
        // per 40 ms round trip: 20 segments by 400 ms.
        let initial_window_bytes = 20 * crate::seg::MSS;
        assert!(
            received.borrow().len() > 4 * initial_window_bytes,
            "received {} bytes",
            received.borrow().len()
        );
    }

    #[test]
    fn sending_after_close_panics() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let _sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        conn.close(&mut p.sim);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conn.send(&mut p.sim, b"late");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn two_concurrent_connections_are_demultiplexed() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let per_conn: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        {
            let pc = Rc::clone(&per_conn);
            p.tcp_b.listen(80, move |_sim, conn| {
                let idx = pc.borrow().len();
                pc.borrow_mut().push(Vec::new());
                let pc = Rc::clone(&pc);
                conn.on_data(move |_sim, data| pc.borrow_mut()[idx].extend_from_slice(&data));
            });
        }
        let c1 = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        let c2 = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        c1.send(&mut p.sim, &[1u8; 5000]);
        c2.send(&mut p.sim, &[2u8; 7000]);
        p.sim.run();
        let got = per_conn.borrow();
        assert_eq!(got.len(), 2);
        let mut sizes: Vec<usize> = got.iter().map(|v| v.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5000, 7000]);
        assert!(got.iter().any(|v| v.iter().all(|&b| b == 1)));
        assert!(got.iter().any(|v| v.iter().all(|&b| b == 2)));
        let _ = p.links;
    }

    #[test]
    fn syn_to_closed_port_is_ignored() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 9999));
        p.sim.run_until(SimTime::from_millis(150));
        assert_eq!(conn.state(), State::SynSent);
        assert!(p.tcp_b.conns.borrow().is_empty());
    }

    #[test]
    fn dead_peer_aborts_after_consecutive_rtos() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let _sink = server_sink(&p.tcp_b);
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        let errors: Rc<RefCell<Vec<String>>> = Rc::default();
        {
            let e = Rc::clone(&errors);
            conn.on_error(move |_sim, reason| e.borrow_mut().push(reason.to_string()));
        }
        conn.send(&mut p.sim, &vec![3u8; 500_000]);
        // Mid-transfer the path dies permanently, in both directions.
        {
            let (ab, ba) = (Rc::clone(&p.links.0), Rc::clone(&p.links.1));
            p.sim.schedule_at(SimTime::from_millis(50), move |_| {
                let mut dead = ab.params();
                dead.loss = LossModel::Bernoulli { p: 1.0 };
                ab.set_params(dead.clone());
                ba.set_params(dead);
            });
        }
        p.sim.run();
        // Regression: this used to retransmit at MAX_RTO forever (the
        // backoff counter was written but never read). Now it gives up.
        assert_eq!(conn.state(), State::Aborted);
        assert_eq!(conn.stats.aborts.get(), 1);
        assert!(conn.stats.rtos.get() >= crate::conn::MAX_CONSECUTIVE_RTOS as u64);
        assert_eq!(errors.borrow().len(), 1);
        assert!(errors.borrow()[0].contains("retransmission limit"));
        // ... and promptly: well before a MAX_RTO treadmill would.
        assert!(p.sim.now().as_secs_f64() < 180.0);
    }

    #[test]
    fn syn_is_retransmitted_after_rto() {
        let mut p = pair(LinkParams::reliable(
            10_000_000,
            SimDuration::from_millis(5),
        ));
        // Server listens, but the first SYN is swallowed by a blackout.
        let _sink = server_sink(&p.tcp_b);
        let mut black = p.links.0.params();
        black.loss = LossModel::Bernoulli { p: 1.0 };
        let normal = p.links.0.params();
        p.links.0.set_params(black);
        {
            let link = Rc::clone(&p.links.0);
            p.sim
                .schedule_at(SimTime::from_millis(500), move |_| link.set_params(normal));
        }
        let conn = p.tcp_a.connect(&mut p.sim, A, SocketAddr::new(B, 80));
        p.sim.run();
        assert_eq!(conn.state(), State::Established);
        assert!(conn.stats.rtos.get() >= 1);
    }
}

#[cfg(test)]
mod burst_loss_tests {
    use super::*;
    use crate::conn::State;
    use bytes::Bytes;
    use netstack::node::Network;
    use netstack::Subnet;
    use simnet::link::{LinkParams, LossModel};
    use simnet::rng::rng_for;
    use simnet::trace::Trace;
    use simnet::SimDuration;
    use std::cell::RefCell;

    const A: Ip = Ip::new(10, 0, 0, 1);
    const B: Ip = Ip::new(10, 0, 0, 2);

    /// Gilbert–Elliott burst loss: whole windows die together, the worst
    /// case for cumulative-ACK recovery. The stream must still arrive
    /// intact.
    #[test]
    fn stream_survives_bursty_gilbert_loss() {
        let mut sim = Simulator::new();
        let trace = Trace::bounded(16);
        let mut net = Network::new();
        let a = net.add_node("a", A);
        let b = net.add_node("b", B);
        let mut params = LinkParams::reliable(3_000_000, SimDuration::from_millis(10));
        params.queue_capacity = 2048;
        params.loss = LossModel::Gilbert {
            p_enter_bad: 0.01,
            p_exit_bad: 0.25,
            loss_in_bad: 0.9,
        };
        let (ab, ba) = Network::connect(&a, A, &b, B, params);
        ab.set_rng(rng_for(77, "burst.ab"));
        ba.set_rng(rng_for(77, "burst.ba"));
        a.add_route(Subnet::DEFAULT, B);
        b.add_route(Subnet::DEFAULT, A);
        let tcp_a = Tcp::install(a, trace.clone());
        let tcp_b = Tcp::install(b, trace);
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        {
            let got = Rc::clone(&got);
            tcp_b.listen(80, move |_sim, conn| {
                let got = Rc::clone(&got);
                conn.on_data(move |_sim, data: Bytes| got.borrow_mut().extend_from_slice(&data));
            });
        }
        let payload: Vec<u8> = (0..250_000u32).map(|i| (i % 233) as u8).collect();
        let conn = tcp_a.connect(&mut sim, A, SocketAddr::new(B, 80));
        conn.send(&mut sim, &payload);
        sim.run();
        assert_eq!(*got.borrow(), payload, "burst loss corrupted the stream");
        assert!(
            conn.stats.retransmits.get() > 0,
            "bursts must force recovery"
        );
        assert_eq!(conn.state(), State::Established);
    }

    /// Both directions carry data simultaneously (full duplex): each
    /// side's stream arrives intact and in order.
    #[test]
    fn full_duplex_streams_do_not_interfere() {
        let mut sim = Simulator::new();
        let trace = Trace::bounded(16);
        let mut net = Network::new();
        let a = net.add_node("a", A);
        let b = net.add_node("b", B);
        Network::connect(
            &a,
            A,
            &b,
            B,
            LinkParams::reliable(5_000_000, SimDuration::from_millis(5)),
        );
        a.add_route(Subnet::DEFAULT, B);
        b.add_route(Subnet::DEFAULT, A);
        let tcp_a = Tcp::install(a, trace.clone());
        let tcp_b = Tcp::install(b, trace);

        let to_b: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        let to_a: Vec<u8> = (0..45_000u32).map(|i| (i % 241) as u8).collect();
        let got_at_b: Rc<RefCell<Vec<u8>>> = Rc::default();
        let got_at_a: Rc<RefCell<Vec<u8>>> = Rc::default();
        {
            let got = Rc::clone(&got_at_b);
            let reply = to_a.clone();
            tcp_b.listen(80, move |sim, conn| {
                // The server immediately starts streaming its own data back.
                conn.send(sim, &reply);
                let got = Rc::clone(&got);
                conn.on_data(move |_sim, data: Bytes| got.borrow_mut().extend_from_slice(&data));
            });
        }
        let conn = tcp_a.connect(&mut sim, A, SocketAddr::new(B, 80));
        {
            let got = Rc::clone(&got_at_a);
            conn.on_data(move |_sim, data: Bytes| got.borrow_mut().extend_from_slice(&data));
        }
        conn.send(&mut sim, &to_b);
        sim.run();
        assert_eq!(*got_at_b.borrow(), to_b);
        assert_eq!(*got_at_a.borrow(), to_a);
    }
}
