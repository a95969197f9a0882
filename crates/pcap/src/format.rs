//! Wire-level constants and shared types of the classic pcap format.

use core::fmt;
use std::io;

/// Little-endian microsecond magic (`d4 c3 b2 a1` on disk).
pub const MAGIC_LE: u32 = 0xa1b2_c3d4;
/// Big-endian microsecond magic as read by a little-endian parser.
pub const MAGIC_BE: u32 = 0xd4c3_b2a1;
/// Little-endian nanosecond magic.
pub const MAGIC_NS_LE: u32 = 0xa1b2_3c4d;
/// Big-endian nanosecond magic as read by a little-endian parser.
pub const MAGIC_NS_BE: u32 = 0x4d3c_b2a1;

/// Major format version written (and the only one accepted).
pub const VERSION_MAJOR: u16 = 2;
/// Minor format version written.
pub const VERSION_MINOR: u16 = 4;

/// Global header length in bytes.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Per-record header length in bytes.
pub const RECORD_HEADER_LEN: usize = 16;

/// Upper bound on a single record's captured length; anything larger is
/// treated as file corruption rather than a 2 GB allocation request.
pub const MAX_SANE_CAPLEN: u32 = 1 << 20;

/// The data-link type stored in the pcap global header.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkType {
    /// DLT 1: Ethernet.
    Ethernet,
    /// DLT 105: IEEE 802.11 frames without a capture pseudo-header.
    Ieee80211,
    /// DLT 127: radiotap header followed by an 802.11 frame — what RFMon
    /// sniffers write and what this workspace uses.
    Radiotap,
    /// Any other registered link type.
    Other(u32),
}

impl LinkType {
    /// The registry number.
    pub const fn code(self) -> u32 {
        match self {
            LinkType::Ethernet => 1,
            LinkType::Ieee80211 => 105,
            LinkType::Radiotap => 127,
            LinkType::Other(n) => n,
        }
    }

    /// Decodes a registry number.
    pub const fn from_code(code: u32) -> LinkType {
        match code {
            1 => LinkType::Ethernet,
            105 => LinkType::Ieee80211,
            127 => LinkType::Radiotap,
            n => LinkType::Other(n),
        }
    }
}

/// One captured record, yielded by [`crate::PcapStream`] from either
/// container. The data slice lives in the stream's window and is only valid
/// until the next read call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketRef<'a> {
    /// The data-link type: the classic global header's, or the pcapng
    /// interface's the record was captured on.
    pub link: LinkType,
    /// Capture timestamp in microseconds since the epoch the file uses.
    pub timestamp_us: u64,
    /// Original on-air length; `data.len()` may be smaller if the capture was
    /// snaplen-truncated.
    pub orig_len: u32,
    /// The captured bytes, borrowed from the reader's buffer.
    pub data: &'a [u8],
}

/// The `u16` at `bytes[off..off + 2]` in the capture's byte order.
pub(crate) fn u16_at(big_endian: bool, bytes: &[u8], off: usize) -> u16 {
    let b = [bytes[off], bytes[off + 1]];
    if big_endian {
        u16::from_be_bytes(b)
    } else {
        u16::from_le_bytes(b)
    }
}

/// The `u32` at `bytes[off..off + 4]` in the capture's byte order.
pub(crate) fn u32_at(big_endian: bool, bytes: &[u8], off: usize) -> u32 {
    let b = [bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]];
    if big_endian {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

/// Errors produced by pcap reading or writing.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not begin with a recognized pcap magic number.
    BadMagic(u32),
    /// The file version is not 2.4.
    UnsupportedVersion(u16, u16),
    /// The stream ended inside a header or record body.
    TruncatedFile,
    /// A record header declared an implausible captured length.
    OversizedRecord(u32),
    /// A pcapng block declared a structurally invalid total length
    /// (below the 12-byte minimum, not a multiple of four, or a trailing
    /// length that disagrees with the leading one).
    BadBlockLength(u32),
    /// An interface declared an `if_tsresol` whose ticks-per-second does
    /// not fit in `u64` (decimal exponent > 19 or binary exponent > 63).
    BadTimestampResolution(u8),
    /// A record's captured length exceeds its original length.
    InconsistentLengths {
        /// Captured length from the record header.
        caplen: u32,
        /// Original length from the record header.
        orig_len: u32,
    },
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::UnsupportedVersion(maj, min) => {
                write!(f, "unsupported pcap version {maj}.{min}")
            }
            PcapError::TruncatedFile => write!(f, "pcap stream ended mid-record"),
            PcapError::OversizedRecord(len) => {
                write!(f, "record claims implausible caplen {len}")
            }
            PcapError::BadBlockLength(len) => {
                write!(f, "pcapng block declares invalid total length {len}")
            }
            PcapError::BadTimestampResolution(raw) => {
                write!(f, "if_tsresol {raw:#04x} overflows u64 ticks-per-second")
            }
            PcapError::InconsistentLengths { caplen, orig_len } => {
                write!(
                    f,
                    "record caplen {caplen} exceeds original length {orig_len}"
                )
            }
        }
    }
}

impl std::error::Error for PcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linktype_codes_roundtrip() {
        for lt in [
            LinkType::Ethernet,
            LinkType::Ieee80211,
            LinkType::Radiotap,
            LinkType::Other(228),
        ] {
            assert_eq!(LinkType::from_code(lt.code()), lt);
        }
        assert_eq!(LinkType::Radiotap.code(), 127);
        assert_eq!(LinkType::Ieee80211.code(), 105);
    }

    #[test]
    fn error_display_is_informative() {
        let s = PcapError::BadMagic(0xdeadbeef).to_string();
        assert!(s.contains("0xdeadbeef"));
        let s = PcapError::InconsistentLengths {
            caplen: 100,
            orig_len: 50,
        }
        .to_string();
        assert!(s.contains("100") && s.contains("50"));
    }
}
