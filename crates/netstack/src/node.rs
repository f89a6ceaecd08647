//! Hosts and routers.
//!
//! A [`Node`] owns interfaces (links to neighbours), a static routing
//! table with longest-prefix match, per-protocol upper-layer handlers, and
//! an optional packet *tap* that sees every arriving packet before normal
//! processing — the mechanism behind both the Mobile IP home agent's
//! interception (§5.2) and the snoop base-station cache of
//! Balakrishnan et al. \[1\].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simnet::link::{Link, LinkParams};
use simnet::stats::Counter;
use simnet::Simulator;

use crate::addr::{Ip, Subnet};
use crate::packet::{IpPacket, Protocol};

/// Outcome of a tap inspecting a packet.
pub enum TapResult {
    /// Keep processing (possibly a modified packet).
    Continue(IpPacket),
    /// The tap consumed the packet; normal processing stops.
    Consumed,
}

type Tap = Rc<dyn Fn(&mut Simulator, &Rc<Node>, IpPacket) -> TapResult>;
type UpperHandler = Rc<dyn Fn(&mut Simulator, IpPacket)>;

struct NodeInner {
    addrs: Vec<Ip>,
    /// Interfaces keyed by the neighbour's address on the shared link.
    ifaces: HashMap<Ip, Rc<Link<IpPacket>>>,
    /// `(destination, next-hop neighbour)` routes.
    routes: Vec<(Subnet, Ip)>,
    upper: HashMap<Protocol, UpperHandler>,
    tap: Option<Tap>,
}

/// A host or router in the simulated internetwork.
pub struct Node {
    name: String,
    inner: RefCell<NodeInner>,
    /// Packets delivered to an upper-layer handler here.
    pub(crate) delivered: Counter,
    /// Packets forwarded onward.
    pub forwarded: Counter,
    /// Packets dropped because the TTL expired.
    pub(crate) dropped_ttl: Counter,
    /// Packets dropped for lack of a route or local handler.
    pub(crate) dropped_unroutable: Counter,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("addrs", &inner.addrs)
            .field("ifaces", &inner.ifaces.keys().collect::<Vec<_>>())
            .field("routes", &inner.routes.len())
            .finish()
    }
}

impl Node {
    /// Creates a node with no addresses, interfaces or routes.
    pub fn new(name: impl Into<String>) -> Rc<Self> {
        Rc::new(Node {
            name: name.into(),
            inner: RefCell::new(NodeInner {
                addrs: Vec::new(),
                ifaces: HashMap::new(),
                routes: Vec::new(),
                upper: HashMap::new(),
                tap: None,
            }),
            delivered: Counter::new(),
            forwarded: Counter::new(),
            dropped_ttl: Counter::new(),
            dropped_unroutable: Counter::new(),
        })
    }

    /// The node's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a local address.
    pub fn add_addr(&self, ip: Ip) {
        self.inner.borrow_mut().addrs.push(ip);
    }

    /// True if `ip` is one of this node's addresses.
    pub(crate) fn has_addr(&self, ip: Ip) -> bool {
        self.inner.borrow().addrs.contains(&ip)
    }

    /// Adds a route: packets for `dest` go to neighbour `via`.
    pub fn add_route(&self, dest: Subnet, via: Ip) {
        self.inner.borrow_mut().routes.push((dest, via));
    }

    /// Removes all routes to exactly `dest`.
    pub fn remove_route(&self, dest: Subnet) {
        self.inner.borrow_mut().routes.retain(|(d, _)| *d != dest);
    }

    /// Registers the link used to reach neighbour `neighbor`.
    pub(crate) fn add_iface(&self, neighbor: Ip, link: Rc<Link<IpPacket>>) {
        self.inner.borrow_mut().ifaces.insert(neighbor, link);
    }

    /// Tears down the interface (and host route) toward `neighbor` —
    /// what physically happens when a mobile station leaves a cell.
    pub fn disconnect(&self, neighbor: Ip) {
        let mut inner = self.inner.borrow_mut();
        inner.ifaces.remove(&neighbor);
        inner
            .routes
            .retain(|(d, via)| !(*via == neighbor && *d == Subnet::new(neighbor, 32)));
    }

    /// The link toward `neighbor`, if connected.
    pub(crate) fn iface(&self, neighbor: Ip) -> Option<Rc<Link<IpPacket>>> {
        self.inner.borrow().ifaces.get(&neighbor).cloned()
    }

    /// Installs the handler for locally delivered packets of `proto`.
    pub fn set_upper(&self, proto: Protocol, handler: impl Fn(&mut Simulator, IpPacket) + 'static) {
        self.inner
            .borrow_mut()
            .upper
            .insert(proto, Rc::new(handler));
    }

    /// Installs a tap inspecting every packet that arrives at this node.
    pub fn set_tap(
        &self,
        tap: impl Fn(&mut Simulator, &Rc<Node>, IpPacket) -> TapResult + 'static,
    ) {
        self.inner.borrow_mut().tap = Some(Rc::new(tap));
    }

    /// Longest-prefix-match route lookup; returns the next-hop neighbour.
    pub fn route_for(&self, dst: Ip) -> Option<Ip> {
        self.inner
            .borrow()
            .routes
            .iter()
            .filter(|(net, _)| net.contains(dst))
            .max_by_key(|(net, _)| net.prefix_len())
            .map(|(_, via)| *via)
    }

    /// Handles a packet arriving from the network.
    pub fn receive(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        let tap = self.inner.borrow().tap.clone();
        let pkt = if let Some(tap) = tap {
            match tap(sim, self, pkt) {
                TapResult::Continue(p) => p,
                TapResult::Consumed => return,
            }
        } else {
            pkt
        };

        if self.has_addr(pkt.dst) {
            self.deliver_up(sim, pkt);
        } else {
            self.forward(sim, pkt);
        }
    }

    fn deliver_up(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        let handler = self.inner.borrow().upper.get(&pkt.proto).cloned();
        match handler {
            Some(h) => {
                self.delivered.incr();
                h(sim, pkt);
            }
            None => {
                self.dropped_unroutable.incr();
            }
        }
    }

    /// Forwards a transit packet: decrements TTL, routes, transmits.
    pub fn forward(self: &Rc<Self>, sim: &mut Simulator, mut pkt: IpPacket) {
        if pkt.ttl <= 1 {
            self.dropped_ttl.incr();
            return;
        }
        pkt.ttl -= 1;
        obs::metrics::incr("netstack.forwarded");
        self.transmit(sim, pkt);
    }

    /// Sends a locally originated packet (no TTL charge at the origin).
    ///
    /// Packets addressed to this node loop back to the upper layer.
    pub fn send(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        obs::metrics::incr("netstack.sent");
        if self.has_addr(pkt.dst) {
            self.deliver_up(sim, pkt);
            return;
        }
        self.transmit(sim, pkt);
    }

    /// Sends `pkt` straight out of the interface toward `neighbor`,
    /// bypassing the routing table (used by a foreign agent delivering a
    /// decapsulated packet to a visiting mobile whose address belongs to a
    /// different subnet).
    pub(crate) fn send_direct(self: &Rc<Self>, sim: &mut Simulator, neighbor: Ip, pkt: IpPacket) {
        match self.iface(neighbor) {
            Some(link) => {
                self.forwarded.incr();
                link.send(sim, pkt);
            }
            None => {
                self.dropped_unroutable.incr();
            }
        }
    }

    fn transmit(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        let Some(via) = self.route_for(pkt.dst) else {
            self.dropped_unroutable.incr();
            return;
        };
        let Some(link) = self.iface(via) else {
            self.dropped_unroutable.incr();
            return;
        };
        self.forwarded.incr();
        link.send(sim, pkt);
    }
}

/// A registry of nodes plus topology-building helpers.
#[derive(Debug, Default)]
pub struct Network {
    nodes: Vec<Rc<Node>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a node, registers it, assigns `addr`.
    pub fn add_node(&mut self, name: impl Into<String>, addr: Ip) -> Rc<Node> {
        let node = Node::new(name);
        node.add_addr(addr);
        self.nodes.push(Rc::clone(&node));
        node
    }

    /// Connects two nodes with a symmetric pair of links built from
    /// `params`, wires up receive callbacks, and installs host routes in
    /// both directions. Returns `(a→b link, b→a link)` so callers can
    /// attach loss RNGs or handoff controllers.
    pub fn connect(
        a: &Rc<Node>,
        a_addr: Ip,
        b: &Rc<Node>,
        b_addr: Ip,
        params: LinkParams,
    ) -> (Rc<Link<IpPacket>>, Rc<Link<IpPacket>>) {
        let ab = Link::new(params.clone());
        let ba = Link::new(params);
        Self::connect_with_links(a, a_addr, b, b_addr, Rc::clone(&ab), Rc::clone(&ba));
        (ab, ba)
    }

    /// Like [`Network::connect`], but with caller-supplied links (already
    /// configured with loss models and RNGs).
    pub fn connect_with_links(
        a: &Rc<Node>,
        a_addr: Ip,
        b: &Rc<Node>,
        b_addr: Ip,
        ab: Rc<Link<IpPacket>>,
        ba: Rc<Link<IpPacket>>,
    ) {
        {
            let b = Rc::clone(b);
            ab.set_receiver(move |sim, pkt| b.receive(sim, pkt));
        }
        {
            let a = Rc::clone(a);
            ba.set_receiver(move |sim, pkt| a.receive(sim, pkt));
        }
        a.add_iface(b_addr, ab);
        b.add_iface(a_addr, ba);
        a.add_route(Subnet::new(b_addr, 32), b_addr);
        b.add_route(Subnet::new(a_addr, 32), a_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use simnet::SimDuration;
    use std::cell::RefCell;

    fn ip(d: u8) -> Ip {
        Ip::new(10, 0, 0, d)
    }

    /// Builds a 3-node chain a — r — b and returns (a, r, b).
    fn chain() -> (Rc<Node>, Rc<Node>, Rc<Node>) {
        let mut net = Network::new();
        let a = net.add_node("a", ip(1));
        let r = net.add_node("r", ip(2));
        let b = net.add_node("b", ip(3));
        let params = LinkParams::reliable(1_000_000, SimDuration::from_millis(1));
        Network::connect(&a, ip(1), &r, ip(2), params.clone());
        Network::connect(&r, ip(2), &b, ip(3), params);
        // a reaches everything via r; b likewise.
        a.add_route(Subnet::DEFAULT, ip(2));
        b.add_route(Subnet::DEFAULT, ip(2));
        (a, r, b)
    }

    fn sink(node: &Rc<Node>) -> Rc<RefCell<Vec<IpPacket>>> {
        let got: Rc<RefCell<Vec<IpPacket>>> = Rc::default();
        let s = Rc::clone(&got);
        node.set_upper(Protocol::Udp, move |_sim, pkt| s.borrow_mut().push(pkt));
        got
    }

    #[test]
    fn end_to_end_forwarding_through_a_router() {
        let mut sim = Simulator::new();
        let (a, r, b) = chain();
        let got = sink(&b);
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 100)),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].src, ip(1));
        assert_eq!(got.borrow()[0].ttl, crate::packet::DEFAULT_TTL - 1);
        assert_eq!(r.forwarded.get(), 1);
    }

    #[test]
    fn longest_prefix_match_wins() {
        let node = Node::new("t");
        node.add_addr(ip(9));
        node.add_route(Subnet::DEFAULT, ip(100));
        node.add_route("10.0.0.0/24".parse().unwrap(), ip(101));
        node.add_route(Subnet::new(ip(3), 32), ip(102));
        assert_eq!(node.route_for(ip(3)), Some(ip(102)));
        assert_eq!(node.route_for(ip(200)), Some(ip(101)));
        assert_eq!(node.route_for(Ip::new(192, 168, 0, 1)), Some(ip(100)));
    }

    #[test]
    fn ttl_expiry_drops_packets() {
        let mut sim = Simulator::new();
        let (a, r, b) = chain();
        let got = sink(&b);
        let mut pkt = IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 0));
        pkt.ttl = 1;
        a.send(&mut sim, pkt);
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(r.dropped_ttl.get(), 1);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let mut sim = Simulator::new();
        let a = Node::new("lonely");
        a.add_addr(ip(1));
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(99), Protocol::Udp, Payload::new((), 0)),
        );
        assert_eq!(a.dropped_unroutable.get(), 1);
    }

    #[test]
    fn local_send_loops_back() {
        let mut sim = Simulator::new();
        let a = Node::new("a");
        a.add_addr(ip(1));
        let got = sink(&a);
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(1), Protocol::Udp, Payload::new((), 0)),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn delivery_without_handler_is_dropped() {
        let mut sim = Simulator::new();
        let (a, _r, b) = chain();
        // No UDP handler registered on b.
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 0)),
        );
        sim.run();
        assert_eq!(b.dropped_unroutable.get(), 1);
        assert_eq!(b.delivered.get(), 0);
    }

    #[test]
    fn tap_can_consume_packets() {
        let mut sim = Simulator::new();
        let (a, r, b) = chain();
        let got = sink(&b);
        let eaten: Rc<RefCell<u32>> = Rc::default();
        let e = Rc::clone(&eaten);
        r.set_tap(move |_sim, _node, pkt| {
            if pkt.payload.size() == 13 {
                *e.borrow_mut() += 1;
                TapResult::Consumed
            } else {
                TapResult::Continue(pkt)
            }
        });
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 13)),
        );
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 99)),
        );
        sim.run();
        assert_eq!(*eaten.borrow(), 1);
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].payload.size(), 99);
    }

    #[test]
    fn tap_can_rewrite_packets() {
        let mut sim = Simulator::new();
        let (a, r, b) = chain();
        let got = sink(&b);
        r.set_tap(move |_sim, _node, mut pkt| {
            pkt.src = ip(42); // NAT-style rewrite
            TapResult::Continue(pkt)
        });
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 0)),
        );
        sim.run();
        assert_eq!(got.borrow()[0].src, ip(42));
    }

    #[test]
    fn disconnect_tears_down_the_path() {
        let mut sim = Simulator::new();
        let (a, r, b) = chain();
        let got = sink(&b);
        r.disconnect(ip(3));
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 0)),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(r.dropped_unroutable.get(), 1);
    }

    #[test]
    fn send_direct_bypasses_routing() {
        let mut sim = Simulator::new();
        let (a, r, b) = chain();
        let got = sink(&b);
        // r has no route for 99.99.99.99, but can push it out the b iface.
        let stray = IpPacket::new(
            ip(1),
            Ip::new(99, 99, 99, 99),
            Protocol::Udp,
            Payload::new((), 0),
        );
        r.send_direct(&mut sim, ip(3), stray);
        sim.run();
        // b does not own 99.99.99.99 and has no route back out besides r;
        // it tries to forward and r drops it — but the direct hop happened.
        assert_eq!(r.forwarded.get(), 1);
        let _ = (a, got);
    }
}
