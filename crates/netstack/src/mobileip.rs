//! Mobile IP — §5.2 of the paper.
//!
//! "The Mobile IP defines enhancements that permit IP nodes … to
//! seamlessly 'roam' among IP subnetworks … Two types of mobile-IP capable
//! router, home agent (HA) and foreign agent (FA), are defined to assist
//! routing when the mobile node is away from its home network. All
//! datagrams destined for the mobile node are intercepted by HA and
//! tunneled to FA. FA then delivers these packets to the mobile node
//! through a care-of-address established when the mobile node is attached
//! to FA."
//!
//! This module implements exactly that lifecycle with real packets over
//! the simulated network: agent registration (request/reply), the HA's
//! binding table and interception tap, IP-in-IP tunneling to the care-of
//! address, the FA's visitor list and direct delivery, and deregistration
//! when the mobile returns home.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use simnet::stats::Counter;
use simnet::trace::Trace;
use simnet::Simulator;

use crate::addr::Ip;
use crate::node::{Node, TapResult};
use crate::packet::{IpPacket, Payload, Protocol};

/// Wire size of a Mobile IP control message (UDP port 434 registration
/// messages are ~24–40 bytes; we charge a flat figure).
pub(crate) const MIP_CONTROL_BYTES: usize = 32;

/// Mobile IP control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MipMsg {
    /// Mobile node → (FA) → HA: bind `mobile` to care-of address `coa`.
    /// `lifetime_s == 0` requests deregistration.
    RegRequest {
        /// The mobile node's home address.
        mobile: Ip,
        /// Care-of address (the foreign agent's address).
        coa: Ip,
        /// Binding lifetime in seconds; zero deregisters.
        lifetime_s: u32,
        /// Request identifier echoed in the reply.
        id: u64,
    },
    /// HA → (FA) → mobile: outcome of a registration request.
    RegReply {
        /// The mobile node's home address.
        mobile: Ip,
        /// Request identifier being answered.
        id: u64,
        /// Whether the binding was installed/removed.
        accepted: bool,
    },
}

/// The home agent: a router on the mobile's home subnet that intercepts
/// datagrams for registered-away mobiles and tunnels them to the care-of
/// address.
pub struct HomeAgent {
    node: Rc<Node>,
    addr: Ip,
    bindings: Rc<RefCell<HashMap<Ip, Ip>>>,
    /// Datagrams intercepted and tunneled.
    pub tunneled: Counter,
    trace: Trace,
}

impl std::fmt::Debug for HomeAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeAgent")
            .field("addr", &self.addr)
            .field("bindings", &*self.bindings.borrow())
            .finish()
    }
}

impl HomeAgent {
    /// Installs home-agent behaviour on `node` (which must own `addr`):
    /// a tap that intercepts and tunnels datagrams for bound mobiles, and
    /// a control handler for registration requests.
    pub fn install(node: Rc<Node>, addr: Ip, trace: Trace) -> Rc<Self> {
        assert!(
            node.has_addr(addr),
            "home agent address must belong to its node"
        );
        let ha = Rc::new(HomeAgent {
            node: Rc::clone(&node),
            addr,
            bindings: Rc::default(),
            tunneled: Counter::new(),
            trace,
        });

        // Interception tap: any packet whose destination has a binding is
        // encapsulated toward the care-of address — including packets that
        // would otherwise be delivered or forwarded normally.
        {
            let ha = Rc::clone(&ha);
            node.set_tap(move |sim, node, pkt| {
                // Never re-intercept our own tunnel packets.
                if pkt.proto == Protocol::IpInIp {
                    return TapResult::Continue(pkt);
                }
                let coa = ha.bindings.borrow().get(&pkt.dst).copied();
                match coa {
                    Some(coa) => {
                        ha.tunneled.incr();
                        ha.trace.log(
                            sim.now(),
                            "mip",
                            format!("HA intercept {} -> tunnel to CoA {}", pkt.dst, coa),
                        );
                        let tunneled = pkt.encapsulate(ha.addr, coa);
                        node.send(sim, tunneled);
                        TapResult::Consumed
                    }
                    None => TapResult::Continue(pkt),
                }
            });
        }

        // Registration handling.
        {
            let ha = Rc::clone(&ha);
            node.set_upper(Protocol::MipControl, move |sim, pkt| {
                ha.handle_control(sim, pkt);
            });
        }
        ha
    }

    fn handle_control(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        let Some(&msg) = pkt.payload.downcast_ref::<MipMsg>() else {
            return;
        };
        if let MipMsg::RegRequest {
            mobile,
            coa,
            lifetime_s,
            id,
        } = msg
        {
            let deregister = lifetime_s == 0;
            if deregister {
                self.bindings.borrow_mut().remove(&mobile);
                self.trace
                    .log(sim.now(), "mip", format!("HA deregistered {mobile}"));
            } else {
                self.bindings.borrow_mut().insert(mobile, coa);
                self.trace
                    .log(sim.now(), "mip", format!("HA bound {mobile} -> CoA {coa}"));
            }
            let reply = MipMsg::RegReply {
                mobile,
                id,
                accepted: true,
            };
            // Reply travels to wherever the request came from (the FA for
            // away registrations, the mobile itself for deregistration).
            let out = IpPacket::new(
                self.addr,
                pkt.src,
                Protocol::MipControl,
                Payload::new(reply, MIP_CONTROL_BYTES),
            );
            self.node.send(sim, out);
        }
    }

    /// Current care-of address bound for `mobile`, if any.
    pub fn binding(&self, mobile: Ip) -> Option<Ip> {
        self.bindings.borrow().get(&mobile).copied()
    }
}

/// The foreign agent: advertises a care-of address, relays registrations,
/// decapsulates tunneled datagrams and delivers them to visiting mobiles
/// over the local (wireless) interface.
pub struct ForeignAgent {
    node: Rc<Node>,
    addr: Ip,
    ha_addr: Ip,
    visitors: Rc<RefCell<HashMap<Ip, u64>>>,
    /// Tunnel packets decapsulated and delivered locally.
    pub decapsulated: Counter,
    trace: Trace,
}

impl std::fmt::Debug for ForeignAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForeignAgent")
            .field("addr", &self.addr)
            .field(
                "visitors",
                &self.visitors.borrow().keys().collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ForeignAgent {
    /// Installs foreign-agent behaviour on `node` (which must own `addr`):
    /// registration relaying toward the home agent at `ha_addr` and tunnel
    /// decapsulation with direct delivery to visitors.
    pub fn install(node: Rc<Node>, addr: Ip, ha_addr: Ip, trace: Trace) -> Rc<Self> {
        assert!(
            node.has_addr(addr),
            "foreign agent address must belong to its node"
        );
        let fa = Rc::new(ForeignAgent {
            node: Rc::clone(&node),
            addr,
            ha_addr,
            visitors: Rc::default(),
            decapsulated: Counter::new(),
            trace,
        });

        // Tunnel endpoint: decapsulate and deliver straight to the visitor.
        {
            let fa = Rc::clone(&fa);
            node.set_upper(Protocol::IpInIp, move |sim, pkt| {
                let Some(inner) = pkt.decapsulate() else {
                    return;
                };
                if fa.visitors.borrow().contains_key(&inner.dst) {
                    fa.decapsulated.incr();
                    fa.trace.log(
                        sim.now(),
                        "mip",
                        format!("FA decap for visitor {}", inner.dst),
                    );
                    fa.node.send_direct(sim, inner.dst, inner);
                }
            });
        }

        // Control relay.
        {
            let fa = Rc::clone(&fa);
            node.set_upper(Protocol::MipControl, move |sim, pkt| {
                fa.handle_control(sim, pkt);
            });
        }
        fa
    }

    fn handle_control(self: &Rc<Self>, sim: &mut Simulator, pkt: IpPacket) {
        let Some(&msg) = pkt.payload.downcast_ref::<MipMsg>() else {
            return;
        };
        match msg {
            MipMsg::RegRequest {
                mobile,
                lifetime_s,
                id,
                ..
            } => {
                // Relay toward the HA with our address as the care-of
                // address, noting the visitor (pending until the reply).
                self.visitors.borrow_mut().insert(mobile, id);
                let relayed = MipMsg::RegRequest {
                    mobile,
                    coa: self.addr,
                    lifetime_s,
                    id,
                };
                self.trace.log(
                    sim.now(),
                    "mip",
                    format!("FA relaying registration of {mobile} to HA"),
                );
                let out = IpPacket::new(
                    self.addr,
                    self.ha_addr,
                    Protocol::MipControl,
                    Payload::new(relayed, MIP_CONTROL_BYTES),
                );
                self.node.send(sim, out);
            }
            MipMsg::RegReply { mobile, .. } => {
                // Forward the reply to the visiting mobile over the local
                // interface.
                let out =
                    IpPacket::new(self.addr, mobile, Protocol::MipControl, pkt.payload.clone());
                self.node.send_direct(sim, mobile, out);
            }
        }
    }
}

/// Registration state of a [`MobileIpClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipState {
    /// Attached to the home network; no binding needed.
    Home,
    /// Registration request sent, awaiting reply.
    Registering,
    /// Bound: datagrams are tunneled via the foreign agent.
    Registered,
}

/// The mobile node's Mobile IP client state machine.
pub struct MobileIpClient {
    node: Rc<Node>,
    home_addr: Ip,
    state: Cell<MipState>,
    next_id: Cell<u64>,
    on_registered: RefCell<Vec<RegisteredCallback>>,
    trace: Trace,
}

/// Callback invoked when a registration completes.
type RegisteredCallback = Rc<dyn Fn(&mut Simulator)>;

impl std::fmt::Debug for MobileIpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileIpClient")
            .field("home_addr", &self.home_addr)
            .field("state", &self.state.get())
            .finish()
    }
}

impl MobileIpClient {
    /// Installs the client on the mobile's node. `_ha_addr` names the
    /// home agent; the client never addresses it, because registrations
    /// go through the foreign agent, which relays them to its own
    /// configured home agent.
    pub fn install(node: Rc<Node>, home_addr: Ip, _ha_addr: Ip, trace: Trace) -> Rc<Self> {
        let client = Rc::new(MobileIpClient {
            node: Rc::clone(&node),
            home_addr,
            state: Cell::new(MipState::Home),
            next_id: Cell::new(1),
            on_registered: RefCell::new(Vec::new()),
            trace,
        });
        {
            let client = Rc::clone(&client);
            node.set_upper(Protocol::MipControl, move |sim, pkt| {
                match pkt.payload.downcast_ref::<MipMsg>() {
                    Some(&MipMsg::RegReply { accepted, .. })
                        if accepted && client.state.get() == MipState::Registering =>
                    {
                        client.state.set(MipState::Registered);
                        client.trace.log(
                            sim.now(),
                            "mip",
                            format!("{} registered", client.home_addr),
                        );
                        let listeners: Vec<_> = client.on_registered.borrow().clone();
                        for l in listeners {
                            l(sim);
                        }
                    }
                    _ => {}
                }
            });
        }
        client
    }

    /// Current state.
    pub fn state(&self) -> MipState {
        self.state.get()
    }

    /// Registers a callback fired when a registration completes.
    pub fn on_registered(&self, f: impl Fn(&mut Simulator) + 'static) {
        self.on_registered.borrow_mut().push(Rc::new(f));
    }

    /// Begins registration through the foreign agent at `fa_addr`.
    ///
    /// The caller must already have connected the mobile's node to the FA
    /// and pointed its default route at it; this sends the registration
    /// request over that link.
    pub fn register_via(&self, sim: &mut Simulator, fa_addr: Ip) {
        let id = self.next_id.replace(self.next_id.get() + 1);
        self.state.set(MipState::Registering);
        let req = MipMsg::RegRequest {
            mobile: self.home_addr,
            coa: fa_addr,
            lifetime_s: 600,
            id,
        };
        self.trace.log(
            sim.now(),
            "mip",
            format!(
                "{} requesting registration via FA {}",
                self.home_addr, fa_addr
            ),
        );
        let pkt = IpPacket::new(
            self.home_addr,
            fa_addr,
            Protocol::MipControl,
            Payload::new(req, MIP_CONTROL_BYTES),
        );
        self.node.send(sim, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Subnet;
    use crate::node::Network;
    use simnet::{LinkParams, SimDuration};
    use std::cell::RefCell;

    /// Topology:
    ///
    /// ```text
    ///  correspondent (20.0.0.9)
    ///        |
    ///     internet router (30.0.0.1)
    ///     /            \
    ///  HA (10.0.0.1)   FA (11.0.0.1)
    ///     |               |
    ///  mobile home     (mobile visits here)
    ///  (10.0.0.5)
    /// ```
    struct World {
        sim: Simulator,
        corr: Rc<Node>,
        fa_node: Rc<Node>,
        mobile: Rc<Node>,
        ha: Rc<HomeAgent>,
        fa: Rc<ForeignAgent>,
        client: Rc<MobileIpClient>,
        trace: Trace,
    }

    const CORR: Ip = Ip::new(20, 0, 0, 9);
    const ROUTER: Ip = Ip::new(30, 0, 0, 1);
    const HA_ADDR: Ip = Ip::new(10, 0, 0, 1);
    const FA_ADDR: Ip = Ip::new(11, 0, 0, 1);
    const MOBILE: Ip = Ip::new(10, 0, 0, 5);

    fn build(at_home: bool) -> World {
        let sim = Simulator::new();
        let trace = Trace::for_test();
        let mut net = Network::new();
        let corr = net.add_node("corr", CORR);
        let router = net.add_node("router", ROUTER);
        let ha_node = net.add_node("ha", HA_ADDR);
        let fa_node = net.add_node("fa", FA_ADDR);
        let mobile = net.add_node("mobile", MOBILE);

        let wired = LinkParams::wired_wan();
        Network::connect(&corr, CORR, &router, ROUTER, wired.clone());
        Network::connect(&router, ROUTER, &ha_node, HA_ADDR, wired.clone());
        Network::connect(&router, ROUTER, &fa_node, FA_ADDR, wired);

        corr.add_route(Subnet::DEFAULT, ROUTER);
        router.add_route("10.0.0.0/8".parse().unwrap(), HA_ADDR);
        router.add_route("11.0.0.0/8".parse().unwrap(), FA_ADDR);
        ha_node.add_route(Subnet::DEFAULT, ROUTER);
        fa_node.add_route(Subnet::DEFAULT, ROUTER);

        let ha = HomeAgent::install(Rc::clone(&ha_node), HA_ADDR, trace.clone());
        let fa = ForeignAgent::install(Rc::clone(&fa_node), FA_ADDR, HA_ADDR, trace.clone());
        let client = MobileIpClient::install(Rc::clone(&mobile), MOBILE, HA_ADDR, trace.clone());

        let wireless = LinkParams::reliable(11_000_000, SimDuration::from_millis(3));
        if at_home {
            Network::connect(&ha_node, HA_ADDR, &mobile, MOBILE, wireless);
            mobile.add_route(Subnet::DEFAULT, HA_ADDR);
        } else {
            Network::connect(&fa_node, FA_ADDR, &mobile, MOBILE, wireless);
            mobile.add_route(Subnet::DEFAULT, FA_ADDR);
        }

        World {
            sim,
            corr,
            fa_node,
            mobile,
            ha,
            fa,
            client,
            trace,
        }
    }

    fn udp_sink(node: &Rc<Node>) -> Rc<RefCell<Vec<IpPacket>>> {
        let got: Rc<RefCell<Vec<IpPacket>>> = Rc::default();
        let s = Rc::clone(&got);
        node.set_upper(Protocol::Udp, move |_sim, pkt| s.borrow_mut().push(pkt));
        got
    }

    #[test]
    fn at_home_packets_flow_without_tunneling() {
        let mut w = build(true);
        let got = udp_sink(&w.mobile);
        w.corr.send(
            &mut w.sim,
            IpPacket::new(CORR, MOBILE, Protocol::Udp, Payload::new((), 100)),
        );
        w.sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(w.ha.tunneled.get(), 0);
    }

    #[test]
    fn registration_completes_through_the_fa() {
        let mut w = build(false);
        w.client.register_via(&mut w.sim, FA_ADDR);
        w.sim.run();
        assert_eq!(w.client.state(), MipState::Registered);
        assert_eq!(w.ha.binding(MOBILE), Some(FA_ADDR));
        assert!(w.fa.visitors.borrow().contains_key(&MOBILE));
        assert!(w.trace.contains("mip", "HA bound"));
    }

    #[test]
    fn datagrams_are_intercepted_tunneled_and_delivered_while_roaming() {
        let mut w = build(false);
        let got = udp_sink(&w.mobile);
        w.client.register_via(&mut w.sim, FA_ADDR);
        w.sim.run();

        // The correspondent keeps sending to the mobile's *home* address —
        // transparency above the IP layer (§5.2).
        for _ in 0..5 {
            w.corr.send(
                &mut w.sim,
                IpPacket::new(CORR, MOBILE, Protocol::Udp, Payload::new((), 200)),
            );
        }
        w.sim.run();
        assert_eq!(got.borrow().len(), 5);
        assert_eq!(w.ha.tunneled.get(), 5);
        assert_eq!(w.fa.decapsulated.get(), 5);
        // Delivered packets carry the original addresses.
        assert_eq!(got.borrow()[0].src, CORR);
        assert_eq!(got.borrow()[0].dst, MOBILE);
    }

    #[test]
    fn unregistered_roaming_mobile_gets_nothing() {
        let mut w = build(false);
        let got = udp_sink(&w.mobile);
        // No registration: HA has no binding, datagrams go to the home
        // subnet where the mobile is absent.
        w.corr.send(
            &mut w.sim,
            IpPacket::new(CORR, MOBILE, Protocol::Udp, Payload::new((), 100)),
        );
        w.sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(w.ha.tunneled.get(), 0);
    }

    #[test]
    fn mobile_originated_traffic_uses_home_address_and_triangle_routes() {
        let mut w = build(false);
        let got = udp_sink(&w.corr);
        w.client.register_via(&mut w.sim, FA_ADDR);
        w.sim.run();
        w.mobile.send(
            &mut w.sim,
            IpPacket::new(MOBILE, CORR, Protocol::Udp, Payload::new((), 50)),
        );
        w.sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].src, MOBILE); // home address preserved
        let _ = &w.fa_node;
    }

    #[test]
    fn registration_callback_fires() {
        let mut w = build(false);
        let fired: Rc<RefCell<u32>> = Rc::default();
        let f = Rc::clone(&fired);
        w.client.on_registered(move |_| *f.borrow_mut() += 1);
        w.client.register_via(&mut w.sim, FA_ADDR);
        w.sim.run();
        assert_eq!(*fired.borrow(), 1);
    }
}
