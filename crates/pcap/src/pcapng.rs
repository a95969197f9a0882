//! pcapng (pcap-next-generation) support — the block-structured capture
//! format modern tools (Wireshark, tcpdump ≥ 4.1) write by default.
//!
//! Implemented from the specification, supporting what a trace-analysis
//! pipeline needs:
//!
//! * Section Header Blocks in either byte order, including mid-stream new
//!   sections (each resets the interface list and may change endianness);
//! * Interface Description Blocks with the `if_tsresol` option (decimal and
//!   binary resolutions), per-interface link type and snap length;
//! * Enhanced Packet Blocks and Simple Packet Blocks;
//! * unknown block types and options are skipped by length, as required.
//!
//! Timestamps are normalized to microseconds on read, matching the classic
//! reader. The block-body parsers live here; the block-framing decode loop
//! is [`crate::PcapNgStream`].

use crate::format::{u16_at, u32_at, LinkType, PcapError, PcapPacket, MAX_SANE_CAPLEN};

/// Block type: Section Header Block.
pub const BT_SHB: u32 = 0x0A0D_0D0A;
/// Block type: Interface Description Block.
pub const BT_IDB: u32 = 0x0000_0001;
/// Block type: Enhanced Packet Block.
pub const BT_EPB: u32 = 0x0000_0006;
/// Block type: Simple Packet Block.
pub const BT_SPB: u32 = 0x0000_0003;
/// The byte-order magic inside an SHB.
pub const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;

#[derive(Clone, Copy, Debug)]
pub(crate) struct Interface {
    pub(crate) link: LinkType,
    pub(crate) snaplen: u32,
    /// Timestamp units per second.
    pub(crate) ticks_per_sec: u64,
}

/// A packet read from a pcapng stream, tagged with its interface's link
/// type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NgPacket {
    /// The interface's data-link type.
    pub link: LinkType,
    /// The packet record (timestamp in microseconds).
    pub packet: PcapPacket,
}

/// A borrowed view of one pcapng packet, yielded by
/// [`crate::PcapNgStream`]. The data slice lives in the stream's window and
/// is only valid until the next read call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NgPacketRef<'a> {
    /// The interface's data-link type.
    pub link: LinkType,
    /// Capture timestamp in microseconds.
    pub timestamp_us: u64,
    /// Original on-air length.
    pub orig_len: u32,
    /// The captured bytes, borrowed from the stream's window.
    pub data: &'a [u8],
}

impl NgPacketRef<'_> {
    /// Copies the packet into an owned [`NgPacket`].
    pub fn to_owned(&self) -> NgPacket {
        NgPacket {
            link: self.link,
            packet: PcapPacket {
                timestamp_us: self.timestamp_us,
                orig_len: self.orig_len,
                data: self.data.to_vec(),
            },
        }
    }
}

/// Decodes an `if_tsresol` option byte into ticks per second, rejecting
/// resolutions whose tick rate overflows `u64` (which would otherwise
/// silently collapse every timestamp toward zero).
pub(crate) fn ticks_per_sec_of(raw: u8) -> Result<u64, PcapError> {
    let exp = raw & 0x7f;
    if raw & 0x80 == 0 {
        // Decimal: 10^exp; 10^19 < 2^64 < 10^20.
        if exp > 19 {
            return Err(PcapError::BadTimestampResolution(raw));
        }
        Ok(10u64.pow(exp as u32))
    } else {
        // Binary: 2^exp; 2^63 is the largest representable power.
        if exp > 63 {
            return Err(PcapError::BadTimestampResolution(raw));
        }
        Ok(1u64 << exp)
    }
}

/// Parses an Interface Description Block body.
pub(crate) fn parse_idb(big_endian: bool, body: &[u8]) -> Result<Interface, PcapError> {
    if body.len() < 8 {
        return Err(PcapError::TruncatedFile);
    }
    let link = LinkType::from_code(u16_at(big_endian, body, 0) as u32);
    let snaplen = u32_at(big_endian, body, 4);
    // Default resolution: microseconds; overridden by if_tsresol (9).
    let mut ticks_per_sec: u64 = 1_000_000;
    let mut off = 8;
    while off + 4 <= body.len() {
        let code = u16_at(big_endian, body, off);
        let len = u16_at(big_endian, body, off + 2) as usize;
        let val_off = off + 4;
        if code == 0 {
            break; // opt_endofopt
        }
        if val_off + len > body.len() {
            return Err(PcapError::TruncatedFile);
        }
        if code == 9 && len >= 1 {
            ticks_per_sec = ticks_per_sec_of(body[val_off])?;
        }
        off = val_off + len.div_ceil(4) * 4;
    }
    Ok(Interface {
        link,
        snaplen,
        ticks_per_sec,
    })
}

/// Parses an Enhanced Packet Block body against the section's interfaces,
/// borrowing the packet bytes from `body`.
pub(crate) fn parse_epb_ref<'a>(
    big_endian: bool,
    body: &'a [u8],
    interfaces: &[Option<Interface>],
) -> Result<NgPacketRef<'a>, PcapError> {
    if body.len() < 20 {
        return Err(PcapError::TruncatedFile);
    }
    let iface_id = u32_at(big_endian, body, 0) as usize;
    let ts_high = u32_at(big_endian, body, 4) as u64;
    let ts_low = u32_at(big_endian, body, 8) as u64;
    let caplen = u32_at(big_endian, body, 12);
    let orig_len = u32_at(big_endian, body, 16);
    if caplen > MAX_SANE_CAPLEN {
        return Err(PcapError::OversizedRecord(caplen));
    }
    if caplen > orig_len {
        return Err(PcapError::InconsistentLengths { caplen, orig_len });
    }
    let iface = interfaces
        .get(iface_id)
        .copied()
        .flatten()
        .ok_or(PcapError::TruncatedFile)?;
    if 20 + caplen as usize > body.len() {
        return Err(PcapError::TruncatedFile);
    }
    let data = &body[20..20 + caplen as usize];
    let ticks = (ts_high << 32) | ts_low;
    // Widen through u128 so sub-microsecond resolutions keep precision
    // instead of saturating.
    let timestamp_us =
        ((ticks as u128 * 1_000_000) / iface.ticks_per_sec as u128).min(u64::MAX as u128) as u64;
    Ok(NgPacketRef {
        link: iface.link,
        timestamp_us,
        orig_len,
        data,
    })
}

/// Parses the body of a packet-bearing block: an EPB, or else an SPB.
pub(crate) fn parse_packet_block<'a>(
    block_type: u32,
    big_endian: bool,
    body: &'a [u8],
    interfaces: &[Option<Interface>],
) -> Result<NgPacketRef<'a>, PcapError> {
    if block_type == BT_EPB {
        parse_epb_ref(big_endian, body, interfaces)
    } else {
        parse_spb_ref(big_endian, body, interfaces)
    }
}

/// Parses a Simple Packet Block body (always interface 0), borrowing the
/// packet bytes from `body`.
pub(crate) fn parse_spb_ref<'a>(
    big_endian: bool,
    body: &'a [u8],
    interfaces: &[Option<Interface>],
) -> Result<NgPacketRef<'a>, PcapError> {
    if body.len() < 4 {
        return Err(PcapError::TruncatedFile);
    }
    let orig_len = u32_at(big_endian, body, 0);
    let iface = interfaces
        .first()
        .copied()
        .flatten()
        .ok_or(PcapError::TruncatedFile)?;
    let caplen = orig_len.min(iface.snaplen.max(1)) as usize;
    if 4 + caplen > body.len() {
        return Err(PcapError::TruncatedFile);
    }
    Ok(NgPacketRef {
        link: iface.link,
        timestamp_us: 0, // SPBs carry no timestamp
        orig_len,
        data: &body[4..4 + caplen],
    })
}

/// A minimal pcapng writer: one section, one interface, Enhanced Packet
/// Blocks with microsecond timestamps.
pub struct PcapNgWriter<W: std::io::Write> {
    inner: W,
    snaplen: u32,
}

impl<W: std::io::Write> PcapNgWriter<W> {
    /// Writes the SHB and one IDB. `snaplen` 0 means unlimited.
    pub fn new(mut inner: W, link: LinkType, snaplen: u32) -> Result<Self, PcapError> {
        // SHB: 28 bytes, no options.
        inner.write_all(&BT_SHB.to_le_bytes())?;
        inner.write_all(&28u32.to_le_bytes())?;
        inner.write_all(&BYTE_ORDER_MAGIC.to_le_bytes())?;
        inner.write_all(&1u16.to_le_bytes())?; // major
        inner.write_all(&0u16.to_le_bytes())?; // minor
        inner.write_all(&u64::MAX.to_le_bytes())?; // section length unknown
        inner.write_all(&28u32.to_le_bytes())?;
        // IDB: 20 bytes, no options (default µs resolution).
        inner.write_all(&BT_IDB.to_le_bytes())?;
        inner.write_all(&20u32.to_le_bytes())?;
        inner.write_all(&(link.code() as u16).to_le_bytes())?;
        inner.write_all(&0u16.to_le_bytes())?;
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&20u32.to_le_bytes())?;
        Ok(PcapNgWriter { inner, snaplen })
    }

    /// Writes one packet as an EPB, truncating to the snap length.
    pub fn write_packet(&mut self, timestamp_us: u64, data: &[u8]) -> Result<(), PcapError> {
        let caplen = if self.snaplen == 0 {
            data.len()
        } else {
            data.len().min(self.snaplen as usize)
        };
        let padded = caplen.div_ceil(4) * 4;
        let total = (32 + padded) as u32;
        self.inner.write_all(&BT_EPB.to_le_bytes())?;
        self.inner.write_all(&total.to_le_bytes())?;
        self.inner.write_all(&0u32.to_le_bytes())?; // interface 0
        self.inner
            .write_all(&((timestamp_us >> 32) as u32).to_le_bytes())?;
        self.inner.write_all(&(timestamp_us as u32).to_le_bytes())?;
        self.inner.write_all(&(caplen as u32).to_le_bytes())?;
        self.inner.write_all(&(data.len() as u32).to_le_bytes())?;
        self.inner.write_all(&data[..caplen])?;
        self.inner.write_all(&vec![0u8; padded - caplen])?;
        self.inner.write_all(&total.to_le_bytes())?;
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> Result<(), PcapError> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IngestReport, PcapNgStream};

    /// Every packet of a read, and its final report.
    fn read(bytes: &[u8]) -> (Vec<NgPacket>, IngestReport) {
        let mut r = PcapNgStream::new(bytes);
        let mut out = Vec::new();
        while let Some(p) = r.next_packet().expect("in-memory source") {
            out.push(p.to_owned());
        }
        (out, *r.report())
    }

    /// Every packet of a read that must see no damage.
    fn read_clean(bytes: &[u8]) -> Vec<NgPacket> {
        let (packets, report) = read(bytes);
        assert!(report.is_clean(), "{report:?}");
        packets
    }

    fn roundtrip(packets: &[(u64, Vec<u8>)], snaplen: u32) -> Vec<NgPacket> {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, snaplen).unwrap();
            for (ts, data) in packets {
                w.write_packet(*ts, data).unwrap();
            }
        }
        read_clean(&buf)
    }

    #[test]
    fn writer_reader_roundtrip() {
        let packets = vec![
            (1_000_000u64, vec![1, 2, 3, 4, 5]),
            (2_500_001, vec![9; 100]),
            (u32::MAX as u64 + 17, vec![0xAB; 7]), // exercises ts_high
        ];
        let got = roundtrip(&packets, 0);
        assert_eq!(got.len(), 3);
        for (g, (ts, data)) in got.iter().zip(&packets) {
            assert_eq!(g.link, LinkType::Radiotap);
            assert_eq!(g.packet.timestamp_us, *ts);
            assert_eq!(&g.packet.data, data);
            assert_eq!(g.packet.orig_len as usize, data.len());
        }
    }

    #[test]
    fn snaplen_truncates_epb() {
        let got = roundtrip(&[(0, vec![7u8; 500])], 250);
        assert_eq!(got[0].packet.data.len(), 250);
        assert_eq!(got[0].packet.orig_len, 500);
        assert!(got[0].packet.is_truncated());
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        assert!(read_clean(&[]).is_empty());
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Ieee80211, 0).unwrap();
            w.write_packet(1, &[0xAA]).unwrap();
        }
        // Splice a custom block (type 0x0BAD) between IDB and EPB.
        let idb_end = 28 + 20;
        let mut custom = Vec::new();
        custom.extend_from_slice(&0x0BADu32.to_le_bytes());
        custom.extend_from_slice(&16u32.to_le_bytes());
        custom.extend_from_slice(&[0xFF; 4]);
        custom.extend_from_slice(&16u32.to_le_bytes());
        let mut spliced = buf[..idb_end].to_vec();
        spliced.extend_from_slice(&custom);
        spliced.extend_from_slice(&buf[idb_end..]);
        let p = &read_clean(&spliced)[0];
        assert_eq!(p.packet.data, vec![0xAA]);
        assert_eq!(p.link, LinkType::Ieee80211);
    }

    #[test]
    fn big_endian_section() {
        // Hand-build a big-endian SHB + IDB + EPB.
        let mut buf = Vec::new();
        // SHB (type bytes are palindromic; lengths big-endian).
        buf.extend_from_slice(&BT_SHB.to_be_bytes());
        buf.extend_from_slice(&28u32.to_be_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        buf.extend_from_slice(&28u32.to_be_bytes());
        // IDB.
        buf.extend_from_slice(&BT_IDB.to_be_bytes());
        buf.extend_from_slice(&20u32.to_be_bytes());
        buf.extend_from_slice(&127u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&20u32.to_be_bytes());
        // EPB with 2 bytes of data.
        buf.extend_from_slice(&BT_EPB.to_be_bytes());
        buf.extend_from_slice(&36u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // ts hi
        buf.extend_from_slice(&42u32.to_be_bytes()); // ts lo
        buf.extend_from_slice(&2u32.to_be_bytes()); // caplen
        buf.extend_from_slice(&2u32.to_be_bytes()); // origlen
        buf.extend_from_slice(&[0xCA, 0xFE, 0, 0]); // padded
        buf.extend_from_slice(&36u32.to_be_bytes());
        let p = &read_clean(&buf)[0];
        assert_eq!(p.link, LinkType::Radiotap);
        assert_eq!(p.packet.timestamp_us, 42);
        assert_eq!(p.packet.data, vec![0xCA, 0xFE]);
    }

    #[test]
    fn tsresol_option_nanoseconds() {
        // IDB with if_tsresol = 9 (nanoseconds); EPB timestamp in ns.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BT_SHB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        // IDB with one option: code 9, len 1, value 9 (10^-9), padded.
        buf.extend_from_slice(&BT_IDB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&127u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&[9, 0, 0, 0]); // value + pad
        buf.extend_from_slice(&28u32.to_le_bytes());
        // EPB at 5_000_000 ns = 5_000 µs.
        buf.extend_from_slice(&BT_EPB.to_le_bytes());
        buf.extend_from_slice(&36u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&5_000_000u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0x55, 0, 0, 0]);
        buf.extend_from_slice(&36u32.to_le_bytes());
        assert_eq!(read_clean(&buf)[0].packet.timestamp_us, 5_000);
    }

    /// SHB + IDB carrying `if_tsresol = raw` + one EPB with the given ticks.
    fn file_with_tsresol(raw: u8, ticks: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&BT_SHB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BT_IDB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&127u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&[raw, 0, 0, 0]); // value + pad
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BT_EPB.to_le_bytes());
        buf.extend_from_slice(&36u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&ticks.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0x55, 0, 0, 0]);
        buf.extend_from_slice(&36u32.to_le_bytes());
        buf
    }

    #[test]
    fn tsresol_decimal_edge_is_exact() {
        // 10^19 ticks/s is the largest decimal resolution that fits u64:
        // 10^19 ticks = 1 second = 1_000_000 µs... but a u32 ts_low can
        // only carry small tick counts, which round to 0 µs. Use a ticks
        // value that lands on an exact microsecond via the u128 path.
        let buf = file_with_tsresol(19, u32::MAX);
        // 4294967295 ticks at 10^19/s = 4.29e-10 s -> 0 µs, no saturation.
        assert_eq!(read_clean(&buf)[0].packet.timestamp_us, 0);
    }

    /// `parse_idb` over the IDB body of a [`file_with_tsresol`] file.
    fn idb_of(buf: &[u8]) -> Result<Interface, PcapError> {
        parse_idb(false, &buf[28 + 8..28 + 28 - 4])
    }

    /// An unusable IDB is skipped, and so is the EPB on its interface.
    fn assert_idb_and_packet_skipped(buf: &[u8]) {
        let (packets, report) = read(buf);
        assert!(packets.is_empty());
        assert_eq!(report.blocks_skipped, 2);
    }

    #[test]
    fn tsresol_decimal_overflow_rejected() {
        let buf = file_with_tsresol(20, 1);
        assert!(matches!(
            idb_of(&buf),
            Err(PcapError::BadTimestampResolution(20))
        ));
        assert_idb_and_packet_skipped(&buf);
    }

    #[test]
    fn tsresol_binary_edge_and_overflow() {
        // 2^63 ticks/s parses; 1<<20 ticks = 1<<20 * 1e6 / 2^63 µs ≈ 0.
        let buf = file_with_tsresol(0x80 | 63, 1 << 20);
        assert_eq!(read_clean(&buf)[0].packet.timestamp_us, 0);
        // 2^64 does not fit.
        let buf = file_with_tsresol(0x80 | 64, 1);
        assert!(matches!(
            idb_of(&buf),
            Err(PcapError::BadTimestampResolution(raw)) if raw == (0x80 | 64)
        ));
        assert_idb_and_packet_skipped(&buf);
    }

    #[test]
    fn tsresol_binary_microsecond_neighbour() {
        // 2^20 ticks/s (binary ~µs): 2^20 ticks = exactly 1 second.
        let buf = file_with_tsresol(0x80 | 20, 1 << 20);
        assert_eq!(read_clean(&buf)[0].packet.timestamp_us, 1_000_000);
    }

    #[test]
    fn second_section_resets_interfaces() {
        let mut buf = Vec::new();
        {
            let mut w = PcapNgWriter::new(&mut buf, LinkType::Ethernet, 0).unwrap();
            w.write_packet(1, &[1]).unwrap();
        }
        // Append a whole second section with a different link type.
        {
            let mut second = Vec::new();
            let mut w = PcapNgWriter::new(&mut second, LinkType::Radiotap, 0).unwrap();
            w.write_packet(2, &[2]).unwrap();
            buf.extend_from_slice(&second);
        }
        let got = read_clean(&buf);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].link, LinkType::Ethernet);
        assert_eq!(got[1].link, LinkType::Radiotap);
    }
}
