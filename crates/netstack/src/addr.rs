//! IPv4-style addresses and subnets.

use std::fmt;
use std::str::FromStr;

/// A 32-bit network address, displayed dotted-quad.
///
/// ```
/// use netstack::Ip;
/// let ip: Ip = "10.0.0.7".parse()?;
/// assert_eq!(ip.to_string(), "10.0.0.7");
/// assert_eq!(ip.octets(), [10, 0, 0, 7]);
/// # Ok::<(), netstack::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(pub u32);

impl Ip {
    /// Builds an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error parsing an [`Ip`] or [`Subnet`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    input: String,
}

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Ip {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddrError {
            input: s.to_owned(),
        };
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for slot in &mut octets {
            *slot = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        let [a, b, c, d] = octets;
        Ok(Ip::new(a, b, c, d))
    }
}

/// A CIDR subnet, e.g. `10.0.1.0/24`.
///
/// ```
/// use netstack::{Ip, Subnet};
/// let net: Subnet = "10.0.1.0/24".parse()?;
/// assert!(net.contains("10.0.1.200".parse()?));
/// assert!(!net.contains("10.0.2.1".parse()?));
/// # Ok::<(), netstack::addr::ParseAddrError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subnet {
    base: Ip,
    prefix_len: u8,
}

impl Subnet {
    /// Builds a subnet; host bits in `base` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(base: Ip, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length must be at most 32");
        Subnet {
            base: Ip(base.0 & Self::mask(prefix_len)),
            prefix_len,
        }
    }

    /// The all-addresses subnet `0.0.0.0/0` — the default route.
    pub const DEFAULT: Subnet = Subnet {
        base: Ip(0),
        prefix_len: 0,
    };

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }

    /// The network base address.
    pub fn base(self) -> Ip {
        self.base
    }

    /// The prefix length.
    pub(crate) fn prefix_len(self) -> u8 {
        self.prefix_len
    }

    /// True if `ip` lies inside the subnet.
    pub fn contains(self, ip: Ip) -> bool {
        (ip.0 & Self::mask(self.prefix_len)) == self.base.0
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix_len)
    }
}

impl FromStr for Subnet {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddrError {
            input: s.to_owned(),
        };
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let base: Ip = addr.parse().map_err(|_| err())?;
        let prefix_len: u8 = len.parse().map_err(|_| err())?;
        if prefix_len > 32 {
            return Err(err());
        }
        Ok(Subnet::new(base, prefix_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_round_trips_text() {
        for text in ["0.0.0.0", "10.0.1.2", "255.255.255.255", "192.168.4.1"] {
            let ip: Ip = text.parse().unwrap();
            assert_eq!(ip.to_string(), text);
        }
    }

    #[test]
    fn bad_ips_fail_to_parse() {
        for text in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"] {
            assert!(text.parse::<Ip>().is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn subnet_membership() {
        let net = Subnet::new(Ip::new(10, 0, 1, 0), 24);
        assert!(net.contains(Ip::new(10, 0, 1, 0)));
        assert!(net.contains(Ip::new(10, 0, 1, 255)));
        assert!(!net.contains(Ip::new(10, 0, 2, 0)));
        assert!(Subnet::DEFAULT.contains(Ip::new(203, 1, 2, 3)));
    }

    #[test]
    fn subnet_masks_host_bits() {
        let net = Subnet::new(Ip::new(10, 0, 1, 77), 24);
        assert_eq!(net.base(), Ip::new(10, 0, 1, 0));
    }

    #[test]
    fn subnet_parses_and_displays() {
        let net: Subnet = "172.16.0.0/12".parse().unwrap();
        assert_eq!(net.to_string(), "172.16.0.0/12");
        assert_eq!(net.prefix_len(), 12);
        assert!("10.0.0.0/33".parse::<Subnet>().is_err());
        assert!("10.0.0.0".parse::<Subnet>().is_err());
    }

    #[test]
    fn prefix_zero_mask_is_empty() {
        assert_eq!(Subnet::mask(0), 0);
        assert_eq!(Subnet::mask(32), u32::MAX);
        assert_eq!(Subnet::mask(24), 0xffff_ff00);
    }
}
