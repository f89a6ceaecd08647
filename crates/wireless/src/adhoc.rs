//! Ad hoc networks — §6.1.
//!
//! "If no APs are available, mobile devices can form a wireless ad hoc
//! network among themselves and exchange data packets or perform business
//! transactions as necessary."
//!
//! An [`AdHocNetwork`] manages a set of stations with positions: any two
//! inside the WLAN standard's coverage get a direct radio link (with the
//! rate and error model of that distance), and shortest-hop routes are
//! computed over the resulting topology so out-of-range peers reach each
//! other through intermediate stations. Moving a member re-forms links
//! and re-routes — the proactive flavour of ad hoc routing, sufficient
//! for the paper's "exchange data packets or perform business
//! transactions" scenario.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use netstack::node::{Network, Node};
use netstack::{Ip, IpPacket, Subnet};
use simnet::link::Link;
use simnet::rng::rng_for_indexed;

use crate::mobility::Point;
use crate::wlan::WlanStandard;

/// The two directions of one peer-to-peer radio link.
type LinkPair = (Rc<Link<IpPacket>>, Rc<Link<IpPacket>>);

/// One station in the ad hoc network.
#[derive(Debug)]
struct Member {
    node: Rc<Node>,
    addr: Ip,
    position: Point,
}

/// A self-organising multi-hop network of mobile stations.
///
/// ```
/// use netstack::{Ip, Subnet};
/// use wireless::adhoc::AdHocNetwork;
/// use wireless::mobility::Point;
/// use wireless::WlanStandard;
///
/// let mut net = AdHocNetwork::new(WlanStandard::Dot11b, 7);
/// net.add_member("a", Ip::new(10, 1, 0, 1), Point::new(0.0, 0.0));
/// net.add_member("b", Ip::new(10, 1, 0, 2), Point::new(80.0, 0.0));
/// net.add_member("c", Ip::new(10, 1, 0, 3), Point::new(160.0, 0.0));
/// net.reform();
/// // a cannot reach c directly (160 m > 100 m), but can via b.
/// assert_eq!(net.hops(Ip::new(10, 1, 0, 1), Ip::new(10, 1, 0, 3)), Some(2));
/// ```
pub struct AdHocNetwork {
    standard: WlanStandard,
    seed: u64,
    members: Vec<Member>,
    /// Live links keyed by the (lower, higher) member-index pair.
    links: HashMap<(usize, usize), LinkPair>,
    link_counter: u64,
}

impl std::fmt::Debug for AdHocNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdHocNetwork")
            .field("standard", &self.standard.name())
            .field("members", &self.members.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl AdHocNetwork {
    /// Creates an empty ad hoc network on `standard`.
    pub fn new(standard: WlanStandard, seed: u64) -> Self {
        AdHocNetwork {
            standard,
            seed,
            members: Vec::new(),
            links: HashMap::new(),
            link_counter: 0,
        }
    }

    /// Adds a station at `position`, returning its network node.
    /// Call [`AdHocNetwork::reform`] afterwards to form links and routes.
    pub fn add_member(&mut self, name: &str, addr: Ip, position: Point) -> Rc<Node> {
        let node = Node::new(name);
        node.add_addr(addr);
        self.members.push(Member {
            node: Rc::clone(&node),
            addr,
            position,
        });
        node
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the network has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of live radio links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Moves member `index` to `position`. Call [`AdHocNetwork::reform`]
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn move_member(&mut self, index: usize, position: Point) {
        self.members[index].position = position;
    }

    /// Re-forms the topology: creates links for pairs in coverage, tears
    /// down links for pairs that drifted apart, retunes surviving links to
    /// the current distance, and recomputes shortest-hop routes.
    pub fn reform(&mut self) {
        // Link formation / teardown / retuning.
        for i in 0..self.members.len() {
            for j in (i + 1)..self.members.len() {
                let distance = self.members[i]
                    .position
                    .distance_to(self.members[j].position);
                let in_range = self.standard.rate_at(distance).is_some();
                let key = (i, j);
                match (in_range, self.links.contains_key(&key)) {
                    (true, false) => {
                        let params = self
                            .standard
                            .link_params_at(distance)
                            .expect("in range implies params");
                        let ij = Link::with_rng(
                            params.clone(),
                            rng_for_indexed(self.seed, "adhoc.link", self.link_counter),
                        );
                        let ji = Link::with_rng(
                            params,
                            rng_for_indexed(self.seed, "adhoc.link", self.link_counter + 1),
                        );
                        self.link_counter += 2;
                        Network::connect_with_links(
                            &self.members[i].node,
                            self.members[i].addr,
                            &self.members[j].node,
                            self.members[j].addr,
                            Rc::clone(&ij),
                            Rc::clone(&ji),
                        );
                        self.links.insert(key, (ij, ji));
                    }
                    (false, true) => {
                        self.links.remove(&key);
                        self.members[i].node.disconnect(self.members[j].addr);
                        self.members[j].node.disconnect(self.members[i].addr);
                    }
                    (true, true) => {
                        let params = self
                            .standard
                            .link_params_at(distance)
                            .expect("in range implies params");
                        let (ij, ji) = &self.links[&key];
                        ij.set_params(params.clone());
                        ji.set_params(params);
                    }
                    (false, false) => {}
                }
            }
        }
        self.recompute_routes();
    }

    /// BFS over the live topology from `start`; returns hop counts and
    /// first-hop neighbours per reachable member index.
    fn bfs(&self, start: usize) -> HashMap<usize, (u32, usize)> {
        let mut adjacency: HashMap<usize, Vec<usize>> = HashMap::new();
        for &(i, j) in self.links.keys() {
            adjacency.entry(i).or_default().push(j);
            adjacency.entry(j).or_default().push(i);
        }
        let mut result: HashMap<usize, (u32, usize)> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back((start, 0u32, start));
        let mut seen = vec![false; self.members.len()];
        seen[start] = true;
        while let Some((at, hops, first)) = queue.pop_front() {
            if at != start {
                result.insert(at, (hops, first));
            }
            for &next in adjacency.get(&at).into_iter().flatten() {
                if !seen[next] {
                    seen[next] = true;
                    // The first hop is inherited, except for direct
                    // neighbours of the start, who are their own first hop.
                    let first_hop = if at == start { next } else { first };
                    queue.push_back((next, hops + 1, first_hop));
                }
            }
        }
        result
    }

    /// Recomputes and installs host routes for every (source, target) pair.
    fn recompute_routes(&mut self) {
        for i in 0..self.members.len() {
            // Drop all non-direct routes, keep the host routes `connect`
            // installed for direct neighbours (simplest: remove everything
            // for member addrs and re-add).
            for target in &self.members {
                self.members[i]
                    .node
                    .remove_route(Subnet::new(target.addr, 32));
            }
            let reachable = self.bfs(i);
            for (target, (_hops, first_hop)) in reachable {
                let via = self.members[first_hop].addr;
                self.members[i]
                    .node
                    .add_route(Subnet::new(self.members[target].addr, 32), via);
            }
        }
    }

    /// Hop count between two member addresses, or `None` if unreachable.
    pub fn hops(&self, from: Ip, to: Ip) -> Option<u32> {
        let from_idx = self.members.iter().position(|m| m.addr == from)?;
        let to_idx = self.members.iter().position(|m| m.addr == to)?;
        if from_idx == to_idx {
            return Some(0);
        }
        self.bfs(from_idx).get(&to_idx).map(|&(hops, _)| hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytesize_helpers::udp_sink;
    use netstack::{Payload, Protocol};
    use simnet::Simulator;

    /// Tiny helpers shared by the tests.
    mod bytesize_helpers {
        use super::*;
        use std::cell::RefCell;

        pub(crate) fn udp_sink(node: &Rc<Node>) -> Rc<RefCell<Vec<IpPacket>>> {
            let got: Rc<RefCell<Vec<IpPacket>>> = Rc::default();
            let sink = Rc::clone(&got);
            node.set_upper(Protocol::Udp, move |_sim, pkt| sink.borrow_mut().push(pkt));
            got
        }
    }

    fn ip(d: u8) -> Ip {
        Ip::new(10, 9, 0, d)
    }

    /// a — b — c in a line, a↔c out of direct 802.11b range.
    fn line() -> (AdHocNetwork, Rc<Node>, Rc<Node>, Rc<Node>) {
        let mut net = AdHocNetwork::new(WlanStandard::Dot11b, 3);
        let a = net.add_member("a", ip(1), Point::new(0.0, 0.0));
        let b = net.add_member("b", ip(2), Point::new(80.0, 0.0));
        let c = net.add_member("c", ip(3), Point::new(160.0, 0.0));
        net.reform();
        (net, a, b, c)
    }

    #[test]
    fn topology_links_only_pairs_in_coverage() {
        let (net, ..) = line();
        assert_eq!(net.link_count(), 2); // a–b and b–c, not a–c
        assert_eq!(net.hops(ip(1), ip(2)), Some(1));
        assert_eq!(net.hops(ip(1), ip(3)), Some(2));
        assert_eq!(net.hops(ip(1), ip(1)), Some(0));
    }

    #[test]
    fn packets_relay_through_the_middle_station() {
        let mut sim = Simulator::new();
        let (_net, a, b, c) = line();
        let got = udp_sink(&c);
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 200)),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(b.forwarded.get(), 1, "b relayed the packet");
        assert_eq!(got.borrow()[0].ttl, netstack::packet::DEFAULT_TTL - 1);
    }

    #[test]
    fn walking_apart_partitions_and_walking_back_heals() {
        let mut sim = Simulator::new();
        let (mut net, a, _b, c) = line();
        let got = udp_sink(&c);

        // c walks far away: unreachable even via b.
        net.move_member(2, Point::new(400.0, 0.0));
        net.reform();
        assert_eq!(net.hops(ip(1), ip(3)), None);
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 64)),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 0);

        // c comes back next to a: now a direct single hop.
        net.move_member(2, Point::new(30.0, 0.0));
        net.reform();
        assert_eq!(net.hops(ip(1), ip(3)), Some(1));
        a.send(
            &mut sim,
            IpPacket::new(ip(1), ip(3), Protocol::Udp, Payload::new((), 64)),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 1);
    }

    #[test]
    fn link_quality_follows_pair_distance() {
        let mut net = AdHocNetwork::new(WlanStandard::Dot11b, 4);
        net.add_member("a", ip(1), Point::new(0.0, 0.0));
        net.add_member("b", ip(2), Point::new(10.0, 0.0));
        net.reform();
        let (ab, _) = net
            .links
            .values()
            .next()
            .map(|(x, y)| (Rc::clone(x), Rc::clone(y)))
            .unwrap();
        assert_eq!(ab.params().bandwidth_bps, 11_000_000);
        // b drifts to the edge: the same link steps down its rate.
        net.move_member(1, Point::new(95.0, 0.0));
        net.reform();
        assert_eq!(net.link_count(), 1);
        assert_eq!(ab.params().bandwidth_bps, 1_000_000);
    }

    #[test]
    fn bigger_meshes_route_around_gaps() {
        // A 2×2 grid plus one far node reachable only through the chain.
        let mut net = AdHocNetwork::new(WlanStandard::Dot11b, 5);
        net.add_member("n0", ip(10), Point::new(0.0, 0.0));
        net.add_member("n1", ip(11), Point::new(90.0, 0.0));
        net.add_member("n2", ip(12), Point::new(90.0, 90.0));
        net.add_member("n3", ip(13), Point::new(180.0, 90.0));
        net.reform();
        // n0–n3 is ~200 m apart: must multi-hop.
        let hops = net.hops(ip(10), ip(13)).expect("connected mesh");
        assert!(hops >= 2, "hops {hops}");
    }

    #[test]
    fn business_transaction_runs_over_the_ad_hoc_mesh() {
        // §6.1's scenario end-to-end: a TCP exchange between two stations
        // with no AP anywhere, relayed by a peer.
        use transport_smoke::run_tcp_over;
        run_tcp_over();
    }

    /// Isolated so the `transport` dev-dependency stays test-only.
    mod transport_smoke {
        use super::*;

        pub(crate) fn run_tcp_over() {
            let mut sim = Simulator::new();
            let (_net, a, _b, c) = line();
            let trace = simnet::trace::Trace::bounded(64);
            let tcp_a = transport::Tcp::install(Rc::clone(&a), trace.clone());
            let tcp_c = transport::Tcp::install(Rc::clone(&c), trace);
            let received: Rc<std::cell::RefCell<Vec<u8>>> = Rc::default();
            {
                let received = Rc::clone(&received);
                tcp_c.listen(9, move |_sim, conn| {
                    let received = Rc::clone(&received);
                    conn.on_data(move |_sim, data| received.borrow_mut().extend_from_slice(&data));
                });
            }
            let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 247) as u8).collect();
            let conn = tcp_a.connect(&mut sim, ip(1), transport::SocketAddr::new(ip(3), 9));
            conn.send(&mut sim, &payload);
            sim.run();
            assert_eq!(*received.borrow(), payload, "transaction survived the mesh");
        }
    }
}
