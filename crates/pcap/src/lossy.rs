//! Damage accounting for capture ingestion.
//!
//! Real vicinity captures arrive truncated, bit-flipped and spliced, so the
//! decoders in [`crate::stream`] skip damaged regions and *resynchronize*:
//!
//! * **classic pcap** has no per-record framing, so recovery scans forward
//!   byte-by-byte for a *plausible* record header — sane lengths, a
//!   sub-second fraction field in range, a timestamp near the last good
//!   record — and demands the following record also look sane (or the
//!   stream end there) before accepting it;
//! * **pcapng** is self-framing: every block states its length twice (lead
//!   and trail), so recovery scans for the next known block type whose two
//!   lengths agree and whose body fits the buffer — a ~2⁻³² false-positive
//!   rate per scanned offset.
//!
//! Every decision is accounted in an [`IngestReport`]: how many records
//! decoded cleanly, how many were recovered after a resync, how many
//! blocks were abandoned, and how many bytes were discarded. An undamaged
//! file reads back with a clean report, so "is this exactly what the writer
//! wrote?" is [`IngestReport::is_clean`].
//!
//! The decoders run over a bounded rolling window, so captures larger than
//! RAM ingest in O(window) memory.

use crate::pcapng::BT_SHB;

/// Accounting of one ingestion pass. All counters are cumulative;
/// [`IngestReport::merge`] folds per-file reports into a campaign total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Records decoded cleanly, with no resync since the previous record.
    pub records_ok: u64,
    /// Records decoded immediately after a resync scan — data that stopping
    /// at the first damage would have thrown away.
    pub records_recovered: u64,
    /// Damaged records/blocks abandoned (undecodable, oversized, or
    /// referencing an unusable interface).
    pub blocks_skipped: u64,
    /// Forward scans performed to re-find a record or block boundary.
    pub resyncs: u64,
    /// Bytes discarded by resync scans and abandoned tails.
    pub bytes_skipped: u64,
    /// Radiotap headers that failed to decode (filled by the trace layer,
    /// which owns radiotap parsing).
    pub undecodable_radiotap: u64,
    /// 802.11 frame headers behind a good radiotap header that failed to
    /// parse (also filled by the trace layer).
    pub undecodable_frames: u64,
    /// The stream ended inside a record or block body.
    pub truncated_tail: bool,
}

impl IngestReport {
    /// Records that made it out, clean or recovered.
    pub fn records_total(&self) -> u64 {
        self.records_ok + self.records_recovered
    }

    /// True when the pass saw no damage at all.
    pub fn is_clean(&self) -> bool {
        self.records_recovered == 0
            && self.blocks_skipped == 0
            && self.resyncs == 0
            && self.bytes_skipped == 0
            && self.undecodable_radiotap == 0
            && self.undecodable_frames == 0
            && !self.truncated_tail
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &IngestReport) {
        self.records_ok += other.records_ok;
        self.records_recovered += other.records_recovered;
        self.blocks_skipped += other.blocks_skipped;
        self.resyncs += other.resyncs;
        self.bytes_skipped += other.bytes_skipped;
        self.undecodable_radiotap += other.undecodable_radiotap;
        self.undecodable_frames += other.undecodable_frames;
        self.truncated_tail |= other.truncated_tail;
    }

    /// The report as a single-line JSON object, for embedding in the run
    /// reports under `results/`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"records_ok\": {}, \"records_recovered\": {}, \"blocks_skipped\": {}, \
             \"resyncs\": {}, \"bytes_skipped\": {}, \"undecodable_radiotap\": {}, \
             \"undecodable_frames\": {}, \"truncated_tail\": {}}}",
            self.records_ok,
            self.records_recovered,
            self.blocks_skipped,
            self.resyncs,
            self.bytes_skipped,
            self.undecodable_radiotap,
            self.undecodable_frames,
            self.truncated_tail,
        )
    }
}

/// True when the buffer leads with a pcapng Section Header Block. The SHB
/// type bytes are byte-order palindromic, so one comparison covers both
/// endiannesses.
pub fn is_pcapng(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) == BT_SHB
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{LinkType, PcapError, PcapPacket, GLOBAL_HEADER_LEN};
    use crate::pcapng::{NgPacket, PcapNgWriter, BT_EPB, BT_IDB, BYTE_ORDER_MAGIC};
    use crate::stream::{PcapNgStream, PcapStream};
    use crate::writer::PcapWriter;

    /// What a lossy read of a whole buffer yields.
    struct Ingest<P> {
        packets: Vec<P>,
        report: IngestReport,
    }

    /// Collects a lossy classic-pcap stream over `bytes`.
    fn collect_pcap(bytes: &[u8]) -> Result<Ingest<PcapPacket>, PcapError> {
        let mut stream = PcapStream::new(bytes)?;
        let mut packets = Vec::new();
        while let Some(pkt) = stream.next_packet().expect("in-memory source") {
            packets.push(pkt.to_owned());
        }
        let report = *stream.report();
        Ok(Ingest { packets, report })
    }

    /// Collects a lossy pcapng stream over `bytes`.
    fn collect_pcapng(bytes: &[u8]) -> Ingest<NgPacket> {
        let mut stream = PcapNgStream::new(bytes);
        let mut packets = Vec::new();
        while let Some(pkt) = stream.next_packet().expect("in-memory source") {
            packets.push(pkt.to_owned());
        }
        let report = *stream.report();
        Ingest { packets, report }
    }

    fn classic_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data).unwrap();
        }
        buf
    }

    fn ng_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data).unwrap();
        }
        buf
    }

    #[test]
    fn classic_resyncs_over_a_corrupted_record() {
        let mut buf = classic_file(10);
        // Blast the caplen of record 4 (records are 16 + 40 bytes each).
        let rec4 = GLOBAL_HEADER_LEN + 4 * 56;
        buf[rec4 + 8..rec4 + 12].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let out = collect_pcap(&buf).unwrap();
        assert_eq!(out.report.resyncs, 1);
        assert!(out.report.records_recovered >= 1);
        // All other records survive: 9 of 10 (the damaged one is lost).
        assert_eq!(out.packets.len(), 9);
        assert!(out.packets.iter().all(|p| p.data.len() == 40));
    }

    #[test]
    fn classic_truncated_tail_is_flagged() {
        let mut buf = classic_file(5);
        buf.truncate(buf.len() - 17);
        let out = collect_pcap(&buf).unwrap();
        assert!(out.report.truncated_tail);
        assert_eq!(out.packets.len(), 4);
    }

    #[test]
    fn ng_resyncs_over_spliced_garbage() {
        let base = ng_file(6);
        // Splice garbage between the 3rd and 4th EPB. Block sizes: SHB 28,
        // IDB 20, EPB 32 + 40 = 72.
        let cut = 28 + 20 + 3 * 72;
        let mut buf = base[..cut].to_vec();
        buf.extend_from_slice(&[0x5A; 37]);
        buf.extend_from_slice(&base[cut..]);
        let out = collect_pcapng(&buf);
        assert_eq!(out.packets.len(), 6, "all six packets survive");
        assert_eq!(out.report.resyncs, 1);
        assert_eq!(out.report.records_recovered, 1);
        assert_eq!(out.report.bytes_skipped, 37);
    }

    #[test]
    fn ng_bad_idb_keeps_interface_ids_aligned() {
        // Section with two IDBs where the first carries an overflowing
        // if_tsresol: packets on interface 0 are skipped, interface 1 still
        // decodes.
        let mut buf = Vec::new();
        buf.extend_from_slice(&crate::pcapng::BT_SHB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        // IDB 0 with if_tsresol = 20 (10^20: overflow).
        buf.extend_from_slice(&BT_IDB.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&127u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&[20, 0, 0, 0]);
        buf.extend_from_slice(&28u32.to_le_bytes());
        // IDB 1, plain microseconds.
        buf.extend_from_slice(&BT_IDB.to_le_bytes());
        buf.extend_from_slice(&20u32.to_le_bytes());
        buf.extend_from_slice(&105u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&20u32.to_le_bytes());
        // EPB on interface 0 (unusable) then interface 1.
        for iface in [0u32, 1] {
            buf.extend_from_slice(&BT_EPB.to_le_bytes());
            buf.extend_from_slice(&36u32.to_le_bytes());
            buf.extend_from_slice(&iface.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&77u32.to_le_bytes());
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.extend_from_slice(&[0xAB, 0xCD, 0, 0]);
            buf.extend_from_slice(&36u32.to_le_bytes());
        }
        let out = collect_pcapng(&buf);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].link, LinkType::Ieee80211);
        assert_eq!(out.packets[0].packet.timestamp_us, 77);
        // One skipped IDB + one skipped EPB.
        assert_eq!(out.report.blocks_skipped, 2);
    }

    #[test]
    fn garbage_only_stream_yields_nothing() {
        let junk: Vec<u8> = (0..700u32).map(|i| (i * 37 + 11) as u8).collect();
        let out = collect_pcapng(&junk);
        assert!(out.packets.is_empty());
        assert_eq!(out.report.records_total(), 0);
        assert!(out.report.bytes_skipped > 0);
    }

    #[test]
    fn bad_global_header_is_a_hard_error() {
        assert!(matches!(
            collect_pcap(&[0u8; 40]),
            Err(PcapError::BadMagic(_))
        ));
        assert!(matches!(
            collect_pcap(&[1, 2, 3]),
            Err(PcapError::TruncatedFile)
        ));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = IngestReport {
            records_ok: 5,
            resyncs: 1,
            ..Default::default()
        };
        let b = IngestReport {
            records_ok: 2,
            records_recovered: 3,
            truncated_tail: true,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.records_ok, 7);
        assert_eq!(a.records_total(), 10);
        assert!(a.truncated_tail);
        assert!(!a.is_clean());
        let json = a.to_json();
        assert!(json.contains("\"resyncs\": 1"));
        assert!(json.contains("\"truncated_tail\": true"));
    }
}
