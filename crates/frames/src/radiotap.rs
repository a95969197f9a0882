//! Radiotap capture headers — the per-frame metadata an RFMon-mode sniffer
//! records (timestamp, rate, channel, signal strength).
//!
//! This is a from-scratch implementation of the de-facto radiotap standard,
//! restricted to the fields a 2005-era 802.11b capture carries. Encoding
//! emits a fixed field set; parsing accepts any subset of the defined bits
//! 0–14 (with correct per-field alignment), so captures from other tools
//! remain readable.

use crate::phy::{Channel, Rate};
use core::fmt;

/// Radiotap `Flags` bit: the frame includes an FCS at the end.
pub const FLAG_FCS_AT_END: u8 = 0x10;
/// Radiotap channel flag: 2.4 GHz spectrum.
pub const CHAN_2GHZ: u16 = 0x0080;
/// Radiotap channel flag: CCK modulation.
pub const CHAN_CCK: u16 = 0x0020;

/// The capture metadata attached to every sniffed frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CaptureMeta {
    /// TSFT: microseconds timestamp of capture (end of frame reception).
    pub tsft_us: u64,
    /// Radiotap flags (e.g. [`FLAG_FCS_AT_END`]).
    pub flags: u8,
    /// The data rate the frame was received at.
    pub rate: Rate,
    /// The channel the sniffer was tuned to.
    pub channel: Channel,
    /// Received signal strength in dBm.
    pub signal_dbm: i8,
    /// Noise floor in dBm.
    pub noise_dbm: i8,
    /// Antenna index.
    pub antenna: u8,
}

/// Errors produced while parsing a radiotap header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadiotapError {
    /// Input shorter than the radiotap header or its declared length.
    Truncated,
    /// Version byte was not zero.
    BadVersion(u8),
    /// The present bitmap requests a field this parser does not know.
    UnknownField(u32),
    /// A required field (rate or channel) was absent.
    MissingField(&'static str),
    /// The rate field was not an 802.11b rate.
    BadRate(u8),
    /// The channel frequency did not map to a 2.4 GHz channel.
    BadChannel(u16),
}

impl fmt::Display for RadiotapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadiotapError::Truncated => write!(f, "radiotap header truncated"),
            RadiotapError::BadVersion(v) => write!(f, "radiotap version {v} unsupported"),
            RadiotapError::UnknownField(bit) => write!(f, "unknown radiotap field bit {bit}"),
            RadiotapError::MissingField(name) => write!(f, "radiotap field {name} missing"),
            RadiotapError::BadRate(r) => write!(f, "rate {r} (500 kbps units) not 802.11b"),
            RadiotapError::BadChannel(mhz) => {
                write!(f, "frequency {mhz} MHz not a 2.4 GHz channel")
            }
        }
    }
}

impl std::error::Error for RadiotapError {}

const BIT_TSFT: u32 = 0;
const BIT_FLAGS: u32 = 1;
const BIT_RATE: u32 = 2;
const BIT_CHANNEL: u32 = 3;
const BIT_DBM_SIGNAL: u32 = 5;
const BIT_DBM_NOISE: u32 = 6;
const BIT_ANTENNA: u32 = 11;
const BIT_EXT: u32 = 31;

/// (size, alignment) of each radiotap field bit 0–14.
const FIELD_LAYOUT: [(usize, usize); 15] = [
    (8, 8), // 0 TSFT
    (1, 1), // 1 Flags
    (1, 1), // 2 Rate
    (4, 2), // 3 Channel (u16 freq + u16 flags)
    (2, 1), // 4 FHSS
    (1, 1), // 5 dBm antenna signal
    (1, 1), // 6 dBm antenna noise
    (2, 2), // 7 lock quality
    (2, 2), // 8 TX attenuation
    (2, 2), // 9 dB TX attenuation
    (1, 1), // 10 dBm TX power
    (1, 1), // 11 antenna
    (1, 1), // 12 dB antenna signal
    (1, 1), // 13 dB antenna noise
    (2, 2), // 14 RX flags
];

// `parse_packet` aligns with a mask, which needs power-of-two alignments.
const _: () = {
    let mut bit = 0;
    while bit < FIELD_LAYOUT.len() {
        assert!(FIELD_LAYOUT[bit].1.is_power_of_two());
        bit += 1;
    }
};

/// Length of the radiotap header [`encode_packet`] writes: header(8)
/// tsft(8) flags(1) rate(1) chan(4 at align 2) signal(1) noise(1)
/// antenna(1).
pub const ENCODED_HEADER_LEN: usize = 25;

/// Serializes a capture record: radiotap header followed by the frame bytes.
pub fn encode_packet(meta: &CaptureMeta, frame: &[u8]) -> Vec<u8> {
    const LEN: u16 = ENCODED_HEADER_LEN as u16;
    let present: u32 = 1 << BIT_TSFT
        | 1 << BIT_FLAGS
        | 1 << BIT_RATE
        | 1 << BIT_CHANNEL
        | 1 << BIT_DBM_SIGNAL
        | 1 << BIT_DBM_NOISE
        | 1 << BIT_ANTENNA;
    let mut out = Vec::with_capacity(LEN as usize + frame.len());
    out.push(0); // version
    out.push(0); // pad
    out.extend_from_slice(&LEN.to_le_bytes());
    out.extend_from_slice(&present.to_le_bytes());
    out.extend_from_slice(&meta.tsft_us.to_le_bytes());
    out.push(meta.flags);
    out.push(meta.rate.units_500kbps());
    out.extend_from_slice(&(meta.channel.center_mhz()).to_le_bytes());
    out.extend_from_slice(&(CHAN_2GHZ | CHAN_CCK).to_le_bytes());
    out.push(meta.signal_dbm as u8);
    out.push(meta.noise_dbm as u8);
    out.push(meta.antenna);
    debug_assert_eq!(out.len(), LEN as usize);
    out.extend_from_slice(frame);
    out
}

fn channel_from_mhz(mhz: u16) -> Option<Channel> {
    if mhz == 2484 {
        return Channel::new(14);
    }
    if (2412..=2472).contains(&mhz) && (mhz - 2407).is_multiple_of(5) {
        return Channel::new(((mhz - 2407) / 5) as u8);
    }
    None
}

/// Parses a capture record into metadata plus the frame bytes that follow the
/// radiotap header.
pub fn parse_packet(bytes: &[u8]) -> Result<(CaptureMeta, &[u8]), RadiotapError> {
    if bytes.len() < 8 {
        return Err(RadiotapError::Truncated);
    }
    if bytes[0] != 0 {
        return Err(RadiotapError::BadVersion(bytes[0]));
    }
    let header_len = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
    if header_len < 8 || bytes.len() < header_len {
        return Err(RadiotapError::Truncated);
    }
    let present = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if present & (1 << BIT_EXT) != 0 {
        return Err(RadiotapError::UnknownField(BIT_EXT));
    }

    let mut pos = 8usize;
    let mut tsft = 0u64;
    let mut flags = 0u8;
    let mut rate = None;
    let mut channel = None;
    let mut signal = 0i8;
    let mut noise = i8::MIN; // default noise floor if absent
    let mut antenna = 0u8;

    // Visit only the set bits, lowest first: the field order of the
    // standard, so the first unknown or truncated field is the one reported.
    let mut rest = present;
    while rest != 0 {
        let bit = rest.trailing_zeros();
        rest &= rest - 1;
        let (size, align) = *FIELD_LAYOUT
            .get(bit as usize)
            .ok_or(RadiotapError::UnknownField(bit))?;
        pos = (pos + align - 1) & !(align - 1);
        if pos + size > header_len {
            return Err(RadiotapError::Truncated);
        }
        let field = &bytes[pos..pos + size];
        match bit {
            BIT_TSFT => tsft = u64::from_le_bytes(field.try_into().expect("size checked")),
            BIT_FLAGS => flags = field[0],
            BIT_RATE => {
                rate = Some(
                    Rate::from_units_500kbps(field[0]).ok_or(RadiotapError::BadRate(field[0]))?,
                )
            }
            BIT_CHANNEL => {
                let mhz = u16::from_le_bytes([field[0], field[1]]);
                channel = Some(channel_from_mhz(mhz).ok_or(RadiotapError::BadChannel(mhz))?);
            }
            BIT_DBM_SIGNAL => signal = field[0] as i8,
            BIT_DBM_NOISE => noise = field[0] as i8,
            BIT_ANTENNA => antenna = field[0],
            _ => {} // known size, ignored content
        }
        pos += size;
    }

    let meta = CaptureMeta {
        tsft_us: tsft,
        flags,
        rate: rate.ok_or(RadiotapError::MissingField("rate"))?,
        channel: channel.ok_or(RadiotapError::MissingField("channel"))?,
        signal_dbm: signal,
        noise_dbm: noise,
        antenna,
    };
    Ok((meta, &bytes[header_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> CaptureMeta {
        CaptureMeta {
            tsft_us: 1_234_567_890,
            flags: FLAG_FCS_AT_END,
            rate: Rate::R11,
            channel: Channel::new(6).unwrap(),
            signal_dbm: -58,
            noise_dbm: -95,
            antenna: 1,
        }
    }

    #[test]
    fn roundtrip() {
        let frame = vec![0xB4, 0x00, 0x12, 0x34];
        let pkt = encode_packet(&meta(), &frame);
        let (m, f) = parse_packet(&pkt).unwrap();
        assert_eq!(m, meta());
        assert_eq!(f, &frame[..]);
    }

    #[test]
    fn roundtrip_all_rates_and_channels() {
        for rate in Rate::ALL {
            for ch in Channel::ORTHOGONAL {
                let m = CaptureMeta {
                    rate,
                    channel: ch,
                    ..meta()
                };
                let pkt = encode_packet(&m, b"x");
                assert_eq!(parse_packet(&pkt).unwrap().0, m);
            }
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut pkt = encode_packet(&meta(), b"");
        pkt[0] = 1;
        assert_eq!(parse_packet(&pkt), Err(RadiotapError::BadVersion(1)));
    }

    #[test]
    fn rejects_truncation() {
        let pkt = encode_packet(&meta(), b"");
        assert_eq!(parse_packet(&pkt[..7]), Err(RadiotapError::Truncated));
        assert_eq!(parse_packet(&pkt[..20]), Err(RadiotapError::Truncated));
    }

    #[test]
    fn rejects_non_11b_rate() {
        let mut pkt = encode_packet(&meta(), b"");
        pkt[17] = 12; // 6 Mbps: an OFDM rate
        assert_eq!(parse_packet(&pkt), Err(RadiotapError::BadRate(12)));
    }

    #[test]
    fn rejects_5ghz_channel() {
        let mut pkt = encode_packet(&meta(), b"");
        pkt[18..20].copy_from_slice(&5180u16.to_le_bytes());
        assert_eq!(parse_packet(&pkt), Err(RadiotapError::BadChannel(5180)));
    }

    #[test]
    fn parses_minimal_foreign_header() {
        // A header with only rate + channel present (no TSFT), as another
        // capture tool might write: present = bits 2,3.
        let present: u32 = 1 << 2 | 1 << 3;
        let mut pkt = vec![0u8, 0];
        // header: 8 + rate(1 at 8) + pad to 10 + channel(4) = 14.
        pkt.extend_from_slice(&14u16.to_le_bytes());
        pkt.extend_from_slice(&present.to_le_bytes());
        pkt.push(Rate::R5_5.units_500kbps());
        pkt.push(0); // alignment pad for channel
        pkt.extend_from_slice(&2412u16.to_le_bytes());
        pkt.extend_from_slice(&(CHAN_2GHZ | CHAN_CCK).to_le_bytes());
        pkt.extend_from_slice(b"frame");
        let (m, f) = parse_packet(&pkt).unwrap();
        assert_eq!(m.rate, Rate::R5_5);
        assert_eq!(m.channel, Channel::new(1).unwrap());
        assert_eq!(m.tsft_us, 0);
        assert_eq!(f, b"frame");
    }

    #[test]
    fn missing_rate_is_an_error() {
        // Only TSFT present.
        let present: u32 = 1;
        let mut pkt = vec![0u8, 0];
        pkt.extend_from_slice(&16u16.to_le_bytes());
        pkt.extend_from_slice(&present.to_le_bytes());
        pkt.extend_from_slice(&42u64.to_le_bytes());
        assert_eq!(parse_packet(&pkt), Err(RadiotapError::MissingField("rate")));
    }

    #[test]
    fn unknown_and_extended_bits_are_rejected() {
        // Bits 15–30 are fields this parser does not know; bit 31 extends
        // the bitmap.
        for bit in 15..32 {
            let mut pkt = encode_packet(&meta(), b"");
            pkt[4 + bit / 8] |= 1 << (bit % 8);
            assert_eq!(
                parse_packet(&pkt),
                Err(RadiotapError::UnknownField(bit as u32))
            );
        }
    }

    #[test]
    fn channel_mapping() {
        assert_eq!(channel_from_mhz(2412), Channel::new(1));
        assert_eq!(channel_from_mhz(2437), Channel::new(6));
        assert_eq!(channel_from_mhz(2462), Channel::new(11));
        assert_eq!(channel_from_mhz(2484), Channel::new(14));
        assert_eq!(channel_from_mhz(2413), None);
        assert_eq!(channel_from_mhz(5180), None);
    }
}
