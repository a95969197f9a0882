//! 802.11 frame layout constants and the Sequence Control field.
//!
//! The pipeline carries frames as [`crate::record::FrameRecord`]s: the MAC
//! header plus the original length, all a 250-byte snaplen capture keeps.
//! [`crate::wire`] encodes a record to its on-air bytes and parses the
//! header back; the sizes here are the layout both sides agree on.

/// Sequence Control: a 12-bit sequence number and 4-bit fragment number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SeqCtl {
    /// Sequence number, modulo 4096.
    pub seq: u16,
    /// Fragment number, 0–15.
    pub frag: u8,
}

impl SeqCtl {
    /// Builds a sequence control, wrapping inputs into range.
    pub const fn new(seq: u16, frag: u8) -> SeqCtl {
        SeqCtl {
            seq: seq % 4096,
            frag: frag % 16,
        }
    }

    /// Encodes to the 16-bit wire value (fragment in the low nibble).
    pub const fn to_raw(self) -> u16 {
        (self.seq << 4) | self.frag as u16
    }

    /// Decodes from the 16-bit wire value.
    pub const fn from_raw(raw: u16) -> SeqCtl {
        SeqCtl {
            seq: raw >> 4,
            frag: (raw & 0x0f) as u8,
        }
    }
}

/// MAC header + FCS overhead of a data frame (24 + 4 bytes).
pub const DATA_OVERHEAD_BYTES: usize = 28;
/// On-air size of an RTS frame.
pub const RTS_BYTES: usize = 20;
/// On-air size of a CTS frame.
pub const CTS_BYTES: usize = 14;
/// On-air size of an ACK frame.
pub const ACK_BYTES: usize = 14;
/// Management header + FCS overhead (same 24 + 4 layout as data).
pub const MGMT_OVERHEAD_BYTES: usize = 28;
/// Fixed beacon body ahead of the IEs: timestamp (8) + interval (2) +
/// capability (2).
pub const BEACON_FIXED_BODY_BYTES: usize = 12;
/// The beacon information elements other than the SSID itself: the SSID
/// IE header (2), Supported Rates (2 + 4) and DS Parameter Set (2 + 1).
/// A beacon body is `BEACON_FIXED_BODY_BYTES + BEACON_IE_BYTES` plus the
/// SSID length.
pub const BEACON_IE_BYTES: usize = 11;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqctl_roundtrip() {
        for (seq, frag) in [(0u16, 0u8), (1, 0), (4095, 15), (2048, 7)] {
            let s = SeqCtl::new(seq, frag);
            assert_eq!(SeqCtl::from_raw(s.to_raw()), s);
        }
    }

    #[test]
    fn seqctl_wraps() {
        assert_eq!(SeqCtl::new(4096, 16), SeqCtl::new(0, 0));
        assert_eq!(SeqCtl::new(4097, 17), SeqCtl::new(1, 1));
    }
}
