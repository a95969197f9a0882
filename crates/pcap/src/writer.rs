//! Streaming pcap writer (little-endian, microsecond timestamps).

use crate::format::{LinkType, PcapError, MAGIC_LE, VERSION_MAJOR, VERSION_MINOR};
use std::io::Write;

/// A streaming writer producing a classic little-endian, microsecond pcap
/// file. Packets longer than the snap length are truncated on write, with the
/// original length recorded — the same behaviour as a live capture.
pub struct PcapWriter<W: Write> {
    inner: W,
    snaplen: u32,
    packets_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header. `snaplen` of 0 is normalized to 65535
    /// (no truncation), matching tcpdump's convention.
    pub fn new(mut inner: W, link: LinkType, snaplen: u32) -> Result<Self, PcapError> {
        let snaplen = if snaplen == 0 { 65_535 } else { snaplen };
        inner.write_all(&MAGIC_LE.to_le_bytes())?;
        inner.write_all(&VERSION_MAJOR.to_le_bytes())?;
        inner.write_all(&VERSION_MINOR.to_le_bytes())?;
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&link.code().to_le_bytes())?;
        Ok(PcapWriter {
            inner,
            snaplen,
            packets_written: 0,
        })
    }

    /// Number of records written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Writes one record, truncating `data` to the snap length. `orig_len`
    /// is the frame's on-air length: `data.len()` for a whole frame, more
    /// for one a capture already truncated.
    ///
    /// # Panics
    ///
    /// If `data` is longer than `orig_len`.
    pub fn write_packet(
        &mut self,
        timestamp_us: u64,
        data: &[u8],
        orig_len: u32,
    ) -> Result<(), PcapError> {
        assert!(
            data.len() as u32 <= orig_len,
            "a record cannot hold more bytes than its original length"
        );
        let caplen = (data.len() as u32).min(self.snaplen);
        self.inner
            .write_all(&((timestamp_us / 1_000_000) as u32).to_le_bytes())?;
        self.inner
            .write_all(&((timestamp_us % 1_000_000) as u32).to_le_bytes())?;
        self.inner.write_all(&caplen.to_le_bytes())?;
        self.inner.write_all(&orig_len.to_le_bytes())?;
        self.inner.write_all(&data[..caplen as usize])?;
        self.packets_written += 1;
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
    use crate::format::GLOBAL_HEADER_LEN;
    use crate::stream::PcapStream;

    #[test]
    fn global_header_layout() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf, LinkType::Radiotap, 250).unwrap();
        assert_eq!(buf.len(), GLOBAL_HEADER_LEN);
        assert_eq!(&buf[0..4], &[0xd4, 0xc3, 0xb2, 0xa1]);
        assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), 2);
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]),
            250
        );
        assert_eq!(
            u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]),
            127
        );
    }

    #[test]
    fn snaplen_zero_becomes_unlimited() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf, LinkType::Ethernet, 0).unwrap();
        assert_eq!(&buf[16..20], &65_535u32.to_le_bytes());
    }

    #[test]
    fn truncates_to_snaplen_and_records_orig_len() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 250).unwrap();
            w.write_packet(42, &vec![0xCC; 1500], 1500).unwrap();
            assert_eq!(w.packets_written(), 1);
        }
        let mut r = PcapStream::new(&buf[..]).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.data.len(), 250);
        assert_eq!(p.orig_len, 1500);
        assert!(r.next_packet().unwrap().is_none() && r.report().is_clean());
    }

    #[test]
    fn timestamp_split_is_exact() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
            w.write_packet(123_456_789_012, &[1], 1).unwrap();
        }
        let mut r = PcapStream::new(&buf[..]).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_us, 123_456_789_012);
        assert!(r.next_packet().unwrap().is_none() && r.report().is_clean());
    }

    #[test]
    fn write_pretruncated_record() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
            w.write_packet(0, &[0xAB; 250], 1500).unwrap();
        }
        let mut r = PcapStream::new(&buf[..]).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.data.len(), 250);
        assert_eq!(p.orig_len, 1500);
        assert!(r.next_packet().unwrap().is_none() && r.report().is_clean());
    }
}
