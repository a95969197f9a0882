//! MAC-layer addressing: 48-bit IEEE 802 MAC addresses.

use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// Stored in canonical transmission (big-endian byte) order, i.e.
/// `MacAddr([0x00, 0x11, 0x22, 0x33, 0x44, 0x55])` displays as
/// `00:11:22:33:44:55`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a placeholder before assignment.
    pub const ZERO: MacAddr = MacAddr([0x00; 6]);

    /// Builds an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets in transmission order.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True for the broadcast address.
    pub const fn is_broadcast(&self) -> bool {
        matches!(self.0, [0xff, 0xff, 0xff, 0xff, 0xff, 0xff])
    }

    /// True when the group (multicast) bit — the least-significant bit of the
    /// first octet — is set. Broadcast is a special case of multicast.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for unicast (non-group) addresses.
    pub const fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// True when the locally-administered bit is set.
    pub const fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Deterministically derives a locally-administered unicast address from a
    /// small integer id. Useful for simulations that need many distinct
    /// stations: ids map 1:1 onto addresses and never collide with broadcast.
    pub fn from_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 prefix: locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

/// Error returned by [`MacAddr::from_str`] for malformed address text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed MAC address (expected aa:bb:cc:dd:ee:ff)")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in octets.iter_mut() {
            let part = parts.next().ok_or(ParseMacError)?;
            if part.len() != 2 {
                return Err(ParseMacError);
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let a = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        assert_eq!(a.to_string(), "de:ad:be:ef:00:42");
        assert_eq!("de:ad:be:ef:00:42".parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:42:17".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:zz:42".parse::<MacAddr>().is_err());
        assert!("dead:be:ef:00:42".parse::<MacAddr>().is_err());
        assert!("d:ad:be:ef:00:42".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());
        let mcast = MacAddr([0x01, 0x00, 0x5e, 0x00, 0x00, 0x01]);
        assert!(mcast.is_multicast());
        assert!(!mcast.is_broadcast());
        let ucast = MacAddr([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]);
        assert!(ucast.is_unicast());
        assert!(!ucast.is_multicast());
    }

    #[test]
    fn ids_are_locally_administered_unicast() {
        for id in [0u32, 1, 42, 65_535, u32::MAX] {
            let a = MacAddr::from_id(id);
            assert!(a.is_unicast(), "{a} must be unicast");
            assert!(a.is_locally_administered());
        }
    }

    #[test]
    fn distinct_ids_distinct_addresses() {
        let a: Vec<MacAddr> = (0..1000).map(MacAddr::from_id).collect();
        let mut b = a.clone();
        b.sort();
        b.dedup();
        assert_eq!(a.len(), b.len());
    }
}
