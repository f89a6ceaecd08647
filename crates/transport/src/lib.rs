#![warn(missing_docs)]
//! # transport — TCP (Reno) and its mobile variants
//!
//! §5.2 of the paper: "TCP was designed for reliable data transport on
//! wired networks … when it is applied directly to mobile networks, TCP
//! performs poorly due to factors such as error-prone wireless channels,
//! frequent handoffs and disconnections." The paper then cites three
//! remedies, all implemented here:
//!
//! * [`SplitProxy`] — **Split/Indirect TCP** (Yavatkar & Bhagawat \[16\]): the
//!   path is split at the base station into a wired and a wireless
//!   sub-connection, confining wireless loss recovery to the short hop.
//! * [`SnoopAgent`] — **Snoop packet caching** (Balakrishnan et al. \[1\]): the
//!   base station caches data segments and retransmits locally on
//!   duplicate ACKs, hiding wireless losses from the fixed sender.
//! * [`Connection::handoff_complete`] — **fast retransmission after
//!   handoff** (Caceres & Iftode \[2\]): the mobile signals handoff
//!   completion and triggers an immediate fast retransmit instead of
//!   waiting out a coarse retransmission timeout.
//!
//! The baseline is a byte-accurate Reno TCP ([`Connection`]): three-way
//! handshake, slow start, congestion avoidance, fast retransmit/recovery,
//! Jacobson/Karn RTO estimation, out-of-order reassembly and FIN
//! teardown, running over `netstack` datagrams.

pub(crate) mod conn;
pub(crate) mod seg;
pub(crate) mod snoop;
pub(crate) mod split;
pub(crate) mod tcp;

pub use conn::{Connection, ConnectionStats, State, MAX_CONSECUTIVE_RTOS};
pub use seg::SocketAddr;
pub use snoop::SnoopAgent;
pub use split::SplitProxy;
pub use tcp::Tcp;
