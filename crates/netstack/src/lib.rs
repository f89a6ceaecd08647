#![warn(missing_docs)]
//! # netstack — simulated IP layer with Mobile IP
//!
//! The internetworking substrate under the paper's network components
//! (wired networks, component (v), and the IP side of wireless networks,
//! component (iv)). It provides:
//!
//! * [`addr`] — IPv4-style addresses and subnets,
//! * [`packet`] — IP datagrams with TTL, protocol demultiplexing, and
//!   IP-in-IP encapsulation,
//! * [`node`] — hosts/routers with interfaces, longest-prefix-match static
//!   routing and per-node packet taps (the hook reused by the Mobile IP
//!   home agent and by `transport`'s snoop base station),
//! * [`mobileip`] — the Mobile IP enhancement of §5.2: home agents,
//!   foreign agents, registration, care-of addresses and tunneling, so IP
//!   nodes can "seamlessly roam among IP subnetworks" while keeping
//!   "active TCP connections and UDP port bindings".

pub mod addr;
pub mod mobileip;
pub mod node;
pub mod packet;

pub use addr::{Ip, Subnet};
pub use node::Node;
pub use packet::{IpPacket, Payload, Protocol};
