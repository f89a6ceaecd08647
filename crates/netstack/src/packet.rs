//! IP datagrams.
//!
//! An [`IpPacket`] carries an opaque [`Payload`] tagged with a
//! [`Protocol`]; upper layers downcast the payload back to their own
//! segment types. IP-in-IP encapsulation (used by Mobile IP tunnels) nests
//! a whole packet as the payload of another.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use simnet::link::Wire;

use crate::addr::Ip;

/// Size of the simulated IP header in bytes.
pub(crate) const IP_HEADER_BYTES: usize = 20;

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// The transport (or tunnel/control) protocol of a packet's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Transmission Control Protocol segments.
    Tcp,
    /// User Datagram Protocol datagrams.
    Udp,
    /// IP-in-IP: the payload is a complete inner [`IpPacket`].
    IpInIp,
    /// Mobile IP control messages (registration request/reply,
    /// advertisements).
    MipControl,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
            Protocol::IpInIp => "ip-in-ip",
            Protocol::MipControl => "mip",
        })
    }
}

/// An opaque, cheaply clonable payload with an explicit wire size.
///
/// Upper layers store their own segment structs in here and downcast on
/// receive; the network layers only ever look at the size.
#[derive(Clone)]
pub struct Payload {
    data: Rc<dyn Any>,
    size: usize,
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload").field("size", &self.size).finish()
    }
}

impl Payload {
    /// Wraps `data`, declaring it occupies `size` bytes on the wire.
    pub fn new<T: Any>(data: T, size: usize) -> Self {
        Payload {
            data: Rc::new(data),
            size,
        }
    }

    /// Declared wire size in bytes.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Attempts to view the payload as a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.data.downcast_ref()
    }
}

/// A simulated IP datagram.
#[derive(Debug, Clone)]
pub struct IpPacket {
    /// Source address.
    pub src: Ip,
    /// Destination address.
    pub dst: Ip,
    /// Remaining hop budget; the packet is discarded when it hits zero.
    pub ttl: u8,
    /// Payload protocol tag.
    pub proto: Protocol,
    /// The payload itself.
    pub payload: Payload,
}

impl IpPacket {
    /// Builds a packet with the default TTL.
    pub fn new(src: Ip, dst: Ip, proto: Protocol, payload: Payload) -> Self {
        IpPacket {
            src,
            dst,
            ttl: DEFAULT_TTL,
            proto,
            payload,
        }
    }

    /// Encapsulates `self` in an outer packet from `tunnel_src` to
    /// `tunnel_dst` (IP-in-IP, as a Mobile IP home agent does toward the
    /// care-of address).
    pub(crate) fn encapsulate(self, tunnel_src: Ip, tunnel_dst: Ip) -> IpPacket {
        let size = self.wire_size();
        IpPacket::new(
            tunnel_src,
            tunnel_dst,
            Protocol::IpInIp,
            Payload::new(self, size),
        )
    }

    /// Recovers the inner packet of an IP-in-IP tunnel packet.
    ///
    /// Returns `None` when the packet is not a tunnel packet.
    pub(crate) fn decapsulate(&self) -> Option<IpPacket> {
        if self.proto != Protocol::IpInIp {
            return None;
        }
        self.payload.downcast_ref::<IpPacket>().cloned()
    }
}

impl Wire for IpPacket {
    fn wire_size(&self) -> usize {
        IP_HEADER_BYTES + self.payload.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(d: u8) -> Ip {
        Ip::new(10, 0, 0, d)
    }

    #[test]
    fn wire_size_is_header_plus_payload() {
        let p = IpPacket::new(
            ip(1),
            ip(2),
            Protocol::Udp,
            Payload::new(vec![0u8; 100], 100),
        );
        assert_eq!(p.wire_size(), 120);
        let empty = IpPacket::new(ip(1), ip(2), Protocol::MipControl, Payload::new((), 0));
        assert_eq!(empty.wire_size(), 20);
    }

    #[test]
    fn payload_downcasts_to_the_stored_type() {
        #[derive(Debug, PartialEq)]
        struct Seg(u32);
        let p = Payload::new(Seg(7), 4);
        assert_eq!(p.downcast_ref::<Seg>(), Some(&Seg(7)));
        assert!(p.downcast_ref::<String>().is_none());
    }

    #[test]
    fn encapsulation_nests_and_charges_an_extra_header() {
        let inner = IpPacket::new(ip(1), ip(2), Protocol::Tcp, Payload::new((), 500));
        let inner_size = inner.wire_size();
        let outer = inner.encapsulate(ip(10), ip(20));
        assert_eq!(outer.proto, Protocol::IpInIp);
        assert_eq!(outer.wire_size(), inner_size + IP_HEADER_BYTES);
        let back = outer.decapsulate().expect("tunnel packet");
        assert_eq!(back.src, ip(1));
        assert_eq!(back.dst, ip(2));
        assert_eq!(back.payload.size(), 500);
    }

    #[test]
    fn decapsulating_a_plain_packet_is_none() {
        let p = IpPacket::new(ip(1), ip(2), Protocol::Udp, Payload::new((), 0));
        assert!(p.decapsulate().is_none());
    }

    #[test]
    fn double_encapsulation_unwraps_one_layer_at_a_time() {
        let inner = IpPacket::new(ip(1), ip(2), Protocol::Tcp, Payload::new((), 100));
        let mid = inner.encapsulate(ip(3), ip(4));
        let outer = mid.encapsulate(ip(5), ip(6));
        assert_eq!(outer.wire_size(), 100 + 3 * IP_HEADER_BYTES);
        let mid2 = outer.decapsulate().unwrap();
        assert_eq!(mid2.dst, ip(4));
        let inner2 = mid2.decapsulate().unwrap();
        assert_eq!(inner2.dst, ip(2));
        assert!(inner2.decapsulate().is_none());
    }
}
