//! On-air byte layout of 802.11 frames: the one encoder and the one
//! header parser.
//!
//! [`encode`] turns a [`FrameRecord`] into the exact transmitted octets, FCS
//! included, and [`parse_header`] recovers the MAC header from a capture cut
//! short by its snap length (the study's sniffers kept only the first 250
//! bytes of every frame). [`FrameRecord::from_header`] with the original
//! length inverts [`encode`] exactly.

use crate::fc::{FcError, FrameClass, FrameControl, FrameKind};
use crate::fcs;
use crate::frame::{SeqCtl, BEACON_FIXED_BODY_BYTES, BEACON_IE_BYTES, MGMT_OVERHEAD_BYTES};
use crate::mac::MacAddr;
use crate::phy::Rate;
use crate::record::FrameRecord;
use core::fmt;

/// Information element ids used in beacon bodies.
mod ie {
    pub const SSID: u8 = 0;
    pub const SUPPORTED_RATES: u8 = 1;
    pub const DS_PARAMS: u8 = 3;
}

/// Errors produced while parsing frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Fewer bytes than the header of the indicated kind.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Frame Control field was undecodable.
    FrameControl(FcError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { needed, got } => {
                write!(f, "frame truncated: needed {needed} bytes, got {got}")
            }
            ParseError::FrameControl(e) => write!(f, "bad frame control: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<FcError> for ParseError {
    fn from(e: FcError) -> Self {
        ParseError::FrameControl(e)
    }
}

/// Serializes a record to the on-air octets of the frame it summarizes, FCS
/// included: the exact inverse of [`parse_header`] followed by
/// [`FrameRecord::from_header`] with the frame's length as `orig_len`.
///
/// The frame is `mac_bytes` long: the header, a body, then the FCS. A
/// beacon's body holds its fixed fields and its SSID, rates and DS
/// information elements, the SSID sized to fill the frame; every other body
/// is zero-filled. Absent addresses are written as zeros. A data or null frame is to-DS when its BSSID is its
/// destination and from-DS otherwise. A beacon goes to broadcast with a
/// zero duration. RTS, CTS, ACK and beacons never carry the retry bit.
pub fn encode(r: &FrameRecord) -> Vec<u8> {
    let mut fc = FrameControl::new(r.kind);
    fc.flags.retry = r.retry
        && !matches!(
            r.kind,
            FrameKind::Rts | FrameKind::Cts | FrameKind::Ack | FrameKind::Beacon
        );
    if matches!(r.kind, FrameKind::Data | FrameKind::NullData) {
        fc.flags.to_ds = r.bssid == Some(r.dst);
        fc.flags.from_ds = !fc.flags.to_ds;
    }
    let beacon = r.kind == FrameKind::Beacon;
    let (dst, duration) = if beacon {
        (MacAddr::BROADCAST, 0)
    } else {
        (r.dst, r.duration_us)
    };
    let mac_bytes = r.mac_bytes as usize;
    let mut out = Vec::with_capacity(mac_bytes);
    out.extend_from_slice(&fc.to_le_bytes());
    out.extend_from_slice(&duration.to_le_bytes());
    out.extend_from_slice(&dst.octets());
    if !matches!(r.kind, FrameKind::Cts | FrameKind::Ack) {
        out.extend_from_slice(&r.src.unwrap_or(MacAddr::ZERO).octets());
    }
    if r.kind.class() != FrameClass::Control {
        out.extend_from_slice(&r.bssid.unwrap_or(MacAddr::ZERO).octets());
        let seq = SeqCtl::new(r.seq.unwrap_or(0), 0);
        out.extend_from_slice(&seq.to_raw().to_le_bytes());
    }
    if beacon {
        let ssid_len = mac_bytes
            .saturating_sub(MGMT_OVERHEAD_BYTES + BEACON_FIXED_BODY_BYTES + BEACON_IE_BYTES);
        out.extend_from_slice(&r.timestamp_us.to_le_bytes());
        // Beacon interval 100 TU; capability ESS + short slot time.
        out.extend_from_slice(&100u16.to_le_bytes());
        out.extend_from_slice(&0x0401u16.to_le_bytes());
        out.extend_from_slice(&[ie::SSID, ssid_len as u8]);
        out.resize(out.len() + ssid_len, b'x');
        // Supported Rates: the four 802.11b rates, 1 and 2 Mbps basic.
        out.extend_from_slice(&[
            ie::SUPPORTED_RATES,
            4,
            Rate::R1.units_500kbps() | 0x80,
            Rate::R2.units_500kbps() | 0x80,
            Rate::R5_5.units_500kbps(),
            Rate::R11.units_500kbps(),
        ]);
        out.extend_from_slice(&[ie::DS_PARAMS, 1, r.channel.number()]);
    }
    out.resize(out.len().max(mac_bytes.saturating_sub(4)), 0);
    fcs::append_fcs(&mut out);
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        if self.buf.len() - self.pos < n {
            return Err(ParseError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16_le(&mut self) -> Result<u16, ParseError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn mac(&mut self) -> Result<MacAddr, ParseError> {
        let b = self.take(6)?;
        Ok(MacAddr(b.try_into().expect("len checked")))
    }
}

/// The MAC header fields recoverable from a truncated capture.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeaderInfo {
    /// Frame kind.
    pub kind: FrameKind,
    /// Frame Control.
    pub fc: FrameControl,
    /// NAV duration.
    pub duration: u16,
    /// Receiver (addr1).
    pub receiver: MacAddr,
    /// Transmitter (addr2), absent for CTS/ACK.
    pub transmitter: Option<MacAddr>,
    /// Addr3 (BSSID for mgmt; DS-dependent for data), when present.
    pub addr3: Option<MacAddr>,
    /// Sequence control, when present.
    pub seq: Option<SeqCtl>,
}

/// Parses only the MAC header, tolerating a body truncated by the capture
/// snap length. The FCS is not checked (it is usually not captured). CTS
/// and ACK carry addr1 alone, the other control frames (RTS, PS-Poll,
/// CF-End) addr1 and addr2, and every other frame three addresses and a
/// sequence control.
pub fn parse_header(bytes: &[u8]) -> Result<HeaderInfo, ParseError> {
    let mut c = Cursor::new(bytes);
    let fc_bytes = c.take(2)?;
    let fc = FrameControl::from_le_bytes([fc_bytes[0], fc_bytes[1]])?;
    let duration = c.u16_le()?;
    let receiver = c.mac()?;
    let mut header = HeaderInfo {
        kind: fc.kind,
        fc,
        duration,
        receiver,
        transmitter: None,
        addr3: None,
        seq: None,
    };
    if !matches!(fc.kind, FrameKind::Cts | FrameKind::Ack) {
        header.transmitter = Some(c.mac()?);
    }
    if fc.kind.class() != FrameClass::Control {
        header.addr3 = Some(c.mac()?);
        header.seq = Some(SeqCtl::from_raw(c.u16_le()?));
    }
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::Channel;

    fn sta(i: u32) -> MacAddr {
        MacAddr::from_id(i)
    }

    fn record(kind: FrameKind, mac_bytes: u32) -> FrameRecord {
        FrameRecord {
            timestamp_us: 0x0102_0304_0506_0708,
            kind,
            rate: Rate::R11,
            channel: Channel::new(11).unwrap(),
            dst: sta(1),
            src: Some(sta(2)),
            bssid: Some(sta(1)),
            retry: true,
            seq: Some(777),
            mac_bytes,
            payload_bytes: mac_bytes.saturating_sub(28),
            signal_dbm: -60,
            duration_us: 314,
        }
    }

    #[test]
    fn parse_header_from_truncated_data_frame() {
        let bytes = encode(&record(FrameKind::Data, 1500));
        assert_eq!(bytes.len(), 1500);
        // Emulate the study's 250-byte snap length.
        let h = parse_header(&bytes[..250]).unwrap();
        assert_eq!(h.kind, FrameKind::Data);
        assert_eq!(h.receiver, sta(1));
        assert_eq!(h.transmitter, Some(sta(2)));
        assert_eq!(h.addr3, Some(sta(1)));
        assert_eq!(h.seq, Some(SeqCtl::new(777, 0)));
        assert!(h.fc.flags.retry && h.fc.flags.to_ds && !h.fc.flags.from_ds);
        assert_eq!(h.duration, 314);
    }

    #[test]
    fn parse_header_control_frames() {
        let mut ack = record(FrameKind::Ack, 14);
        ack.retry = false;
        let bytes = encode(&ack);
        assert_eq!(bytes.len(), 14);
        let h = parse_header(&bytes).unwrap();
        assert_eq!(h.kind, FrameKind::Ack);
        assert_eq!(h.transmitter, None);
        assert_eq!(h.seq, None);
        let bytes = encode(&record(FrameKind::Rts, 20));
        let h = parse_header(&bytes).unwrap();
        assert_eq!(h.kind, FrameKind::Rts);
        assert_eq!(h.transmitter, Some(sta(2)));
        assert_eq!(h.addr3, None);
        assert!(!h.fc.flags.retry, "RTS never carries the retry bit");
    }

    /// A hand-built 20-byte control frame: fc byte 0, then duration (or
    /// AID), two addresses and an FCS.
    fn two_address_control(fc0: u8) -> Vec<u8> {
        let mut bytes = vec![fc0, 0x00, 0x01, 0xC0];
        bytes.extend_from_slice(&sta(1).octets());
        bytes.extend_from_slice(&sta(2).octets());
        fcs::append_fcs(&mut bytes);
        bytes
    }

    #[test]
    fn ps_poll_header_has_two_addresses() {
        // PS-Poll: control subtype 0b1010, fc byte 0 = 1010_01_00 = 0xA4,
        // then AID(2) + BSSID(6) + TA(6).
        let h = parse_header(&two_address_control(0xA4)).unwrap();
        assert_eq!(
            h.kind,
            FrameKind::Other {
                class: FrameClass::Control,
                subtype: 0b1010
            }
        );
        assert_eq!(h.receiver, sta(1));
        assert_eq!(h.transmitter, Some(sta(2)));
        assert_eq!((h.addr3, h.seq), (None, None));
    }

    #[test]
    fn cf_end_header_has_two_addresses() {
        // CF-End: control subtype 0b1110, fc byte 0 = 1110_01_00 = 0xE4,
        // then duration(2) + RA(6) + BSSID(6).
        let bytes = two_address_control(0xE4);
        let h = parse_header(&bytes).unwrap();
        assert_eq!(
            h.kind,
            FrameKind::Other {
                class: FrameClass::Control,
                subtype: 0b1110
            }
        );
        assert_eq!(h.transmitter, Some(sta(2)));
        assert_eq!(
            parse_header(&bytes[..15]),
            Err(ParseError::Truncated {
                needed: 16,
                got: 15
            })
        );
    }

    #[test]
    fn beacon_body_carries_ssid_rates_and_channel() {
        // 28 overhead + 12 fixed + (2 + 6 SSID) + 6 rates + 3 DS = 57.
        let bytes = encode(&record(FrameKind::Beacon, 57));
        assert_eq!(bytes.len(), 57);
        assert_eq!(&bytes[4..10], &MacAddr::BROADCAST.octets());
        assert_eq!(&bytes[2..4], &[0, 0], "beacons carry no duration");
        assert_eq!(bytes[1], 0, "beacons carry no retry bit");
        assert_eq!(&bytes[24..32], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&bytes[36..44], b"\x00\x06xxxxxx");
        assert_eq!(&bytes[44..50], &[1, 4, 0x82, 0x84, 11, 22]);
        assert_eq!(&bytes[50..53], &[3, 1, 11]);
        assert_eq!(fcs::crc32(&bytes[..53]).to_le_bytes(), bytes[53..]);
    }
}
