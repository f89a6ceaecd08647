//! TCP segments and socket addresses.

use bytes::Bytes;

use netstack::Ip;

/// Simulated TCP header size in bytes.
pub(crate) const TCP_HEADER_BYTES: usize = 20;

/// Maximum segment size (payload bytes per segment).
pub(crate) const MSS: usize = 1460;

/// An `(address, port)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketAddr {
    /// Network address.
    pub(crate) ip: Ip,
    /// Port number.
    pub(crate) port: u16,
}

impl SocketAddr {
    /// Builds a socket address.
    pub fn new(ip: Ip, port: u16) -> Self {
        SocketAddr { ip, port }
    }
}

impl std::fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// A TCP segment.
///
/// Sequence and acknowledgement numbers count stream bytes from an initial
/// sequence number of 0 (deterministic ISNs keep runs reproducible); SYN
/// and FIN each consume one sequence number, as in real TCP.
#[derive(Debug, Clone)]
pub(crate) struct TcpSegment {
    /// Sender's socket address.
    pub(crate) src: SocketAddr,
    /// Receiver's socket address.
    pub(crate) dst: SocketAddr,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub(crate) seq: u64,
    /// Cumulative acknowledgement: next byte expected from the peer.
    pub(crate) ack: u64,
    /// SYN flag.
    pub(crate) syn: bool,
    /// ACK flag (the `ack` field is only meaningful when set).
    pub(crate) ack_flag: bool,
    /// FIN flag.
    pub(crate) fin: bool,
    /// Advertised receive window in bytes.
    pub(crate) wnd: u32,
    /// Payload bytes.
    pub(crate) data: Bytes,
}

impl TcpSegment {
    /// A segment with no flags and no data (builder starting point).
    pub(crate) fn new(src: SocketAddr, dst: SocketAddr) -> Self {
        TcpSegment {
            src,
            dst,
            seq: 0,
            ack: 0,
            syn: false,
            ack_flag: false,
            fin: false,
            wnd: 0,
            data: Bytes::new(),
        }
    }

    /// Bytes this segment occupies inside the IP payload.
    pub(crate) fn wire_size(&self) -> usize {
        TCP_HEADER_BYTES + self.data.len()
    }

    /// True for a segment that carries no data and only acknowledges.
    pub(crate) fn is_pure_ack(&self) -> bool {
        self.ack_flag && !self.syn && !self.fin && self.data.is_empty()
    }

    /// Short human-readable form for traces: `"SYN seq=0"`, `"ACK=4381"`,
    /// `"seq=1 len=1460 ACK=1"`, …
    pub(crate) fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN".to_owned());
        }
        if self.fin {
            parts.push("FIN".to_owned());
        }
        if !self.data.is_empty() || self.syn || self.fin {
            parts.push(format!("seq={}", self.seq));
        }
        if !self.data.is_empty() {
            parts.push(format!("len={}", self.data.len()));
        }
        if self.ack_flag {
            parts.push(format!("ACK={}", self.ack));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(port: u16) -> SocketAddr {
        SocketAddr::new(Ip::new(10, 0, 0, 1), port)
    }

    #[test]
    fn wire_size_counts_header_and_data() {
        let mut s = TcpSegment::new(sa(1), sa(2));
        assert_eq!(s.wire_size(), TCP_HEADER_BYTES);
        s.data = Bytes::from(vec![0u8; 100]);
        assert_eq!(s.wire_size(), TCP_HEADER_BYTES + 100);
    }

    #[test]
    fn pure_ack_detection() {
        let mut s = TcpSegment::new(sa(1), sa(2));
        s.ack_flag = true;
        assert!(s.is_pure_ack());
        s.data = Bytes::from_static(b"x");
        assert!(!s.is_pure_ack());
        s.data = Bytes::new();
        s.fin = true;
        assert!(!s.is_pure_ack());
    }

    #[test]
    fn describe_is_informative() {
        let mut s = TcpSegment::new(sa(1), sa(2));
        s.syn = true;
        assert_eq!(s.describe(), "SYN seq=0");
        s.syn = false;
        s.ack_flag = true;
        s.ack = 42;
        assert_eq!(s.describe(), "ACK=42");
        s.data = Bytes::from_static(b"hello");
        s.seq = 7;
        assert_eq!(s.describe(), "seq=7 len=5 ACK=42");
    }

    #[test]
    fn socket_addr_displays() {
        assert_eq!(sa(8080).to_string(), "10.0.0.1:8080");
    }
}
