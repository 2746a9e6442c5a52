//! IPv4 prefixes.
//!
//! The paper announces 28 /24 prefixes (one anchor plus three beacons per
//! site). The simulator only ever routes on exact prefixes — no longest-
//! prefix matching is needed because every beacon prefix is distinct — but
//! [`Prefix`] still models real CIDR semantics (mask normalisation,
//! containment) so prefix-length-dependent RFD policies can be expressed.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// An IPv4 CIDR prefix, stored normalised (host bits cleared).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

/// Error parsing a prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl Prefix {
    /// Build from a 32-bit address and prefix length (0–32). Host bits are
    /// cleared, so `10.0.0.7/24` normalises to `10.0.0.0/24`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} exceeds 32");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The `i`-th /24 inside the 10.0.0.0/8 experiment block. The
    /// reproduction allocates beacon prefixes from this space, mirroring
    /// the paper's per-site /24s.
    pub fn experiment_slot(i: u32) -> Self {
        assert!(i < (1 << 16), "experiment slot out of the /8 block");
        Self::new((10u32 << 24) | (i << 8), 24)
    }

    /// Network address (host bits zero).
    pub fn addr(self) -> u32 {
        self.addr
    }

    /// Prefix length in bits.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// The netmask for a given prefix length.
    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// True if `self` contains `other` (equal or more specific).
    pub fn contains(self, other: Prefix) -> bool {
        self.len <= other.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// Dotted-quad network address.
    fn octets(self) -> [u8; 4] {
        self.addr.to_be_bytes()
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}/{}", o[0], o[1], o[2], o[3], self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePrefixError(s.to_string());
        let (ip, len) = s.split_once('/').ok_or_else(err)?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        let mut octets = [0u8; 4];
        let mut parts = ip.split('.');
        for o in &mut octets {
            *o = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Prefix::new(u32::from_be_bytes(octets), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_host_bits() {
        let p = Prefix::new(u32::from_be_bytes([10, 0, 0, 7]), 24);
        assert_eq!(p.to_string(), "10.0.0.0/24");
    }

    #[test]
    fn parse_roundtrip() {
        for s in [
            "0.0.0.0/0",
            "10.0.3.0/24",
            "147.28.241.0/24",
            "192.168.1.128/25",
        ] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "10.0.0.0",
            "10.0.0.0/33",
            "10.0.0/24",
            "a.b.c.d/24",
            "10.0.0.0.0/24",
            "",
        ] {
            assert!(s.parse::<Prefix>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn containment() {
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p24: Prefix = "10.1.2.0/24".parse().unwrap();
        let other: Prefix = "11.0.0.0/24".parse().unwrap();
        assert!(p8.contains(p24));
        assert!(!p24.contains(p8));
        assert!(p8.contains(p8));
        assert!(!p8.contains(other));
    }

    #[test]
    fn zero_length_contains_everything() {
        let default: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(default.contains("203.0.113.0/24".parse().unwrap()));
    }

    #[test]
    fn experiment_slots_are_distinct_24s() {
        let a = Prefix::experiment_slot(0);
        let b = Prefix::experiment_slot(1);
        assert_eq!(a.len(), 24);
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "10.0.0.0/24");
        assert_eq!(b.to_string(), "10.0.1.0/24");
        assert_eq!(Prefix::experiment_slot(256).to_string(), "10.1.0.0/24");
    }

    #[test]
    fn ordering_is_total() {
        let mut v: Vec<Prefix> = ["10.0.1.0/24", "10.0.0.0/24", "9.0.0.0/8"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        v.sort();
        assert_eq!(v[0].to_string(), "9.0.0.0/8");
    }
}
