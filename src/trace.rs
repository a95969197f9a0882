//! Capture-file glue: persist simulated sniffer traces as pcap files with
//! radiotap headers (what tethereal in RFMon mode wrote in 2005), and
//! ingest such files back into analysis records.
//!
//! The export path encodes each compact [`FrameRecord`] straight to its
//! frame bytes with [`wire::encode`] (bodies zero-filled — the study's
//! sniffers kept only the first 250 bytes anyway), and the import path
//! exercises the same truncated-header parsing a real trace analysis needs.

use std::io::{self, Read};
use std::path::Path;
use wifi_frames::radiotap::{self, CaptureMeta, FLAG_FCS_AT_END};
use wifi_frames::record::FrameRecord;
use wifi_frames::wire;
use wifi_pcap::{IngestReport, LinkType, PcapError, PcapStream, PcapWriter, Polled};

/// The snap length the study used.
pub const STUDY_SNAPLEN: u32 = 250;

/// Errors from capture import.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying pcap problem.
    Pcap(PcapError),
    /// The file's link type is not radiotap.
    WrongLinkType(LinkType),
    /// The decoder driving this source panicked; the payload is the panic
    /// message. Isolated to the source so sibling captures keep analyzing.
    Panicked(String),
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Pcap(e) => write!(f, "pcap error: {e}"),
            CaptureError::WrongLinkType(lt) => {
                write!(f, "expected radiotap link type, found {lt:?}")
            }
            CaptureError::Panicked(msg) => write!(f, "decoder panicked: {msg}"),
        }
    }
}

impl std::error::Error for CaptureError {}

impl From<PcapError> for CaptureError {
    fn from(e: PcapError) -> Self {
        CaptureError::Pcap(e)
    }
}

/// Writes a sniffer trace to `path` as a radiotap pcap with the study's
/// 250-byte snap length. Returns the number of records written.
pub fn write_capture(path: &Path, records: &[FrameRecord]) -> Result<u64, CaptureError> {
    write_capture_with_snaplen(path, records, STUDY_SNAPLEN)
}

/// [`write_capture`] with an explicit snap length (0 = no truncation).
pub fn write_capture_with_snaplen(
    path: &Path,
    records: &[FrameRecord],
    snaplen: u32,
) -> Result<u64, CaptureError> {
    let mut writer = CaptureWriter::create(path, snaplen)?;
    for r in records {
        writer.write_record(r)?;
    }
    writer.finish()
}

/// Streaming counterpart of [`write_capture_with_snaplen`]: records go to
/// disk one at a time, so a trace generator never has to hold the full
/// trace. Each record is re-encoded as radiotap + 802.11 wire bytes exactly
/// as the batch writer does.
pub struct CaptureWriter {
    writer: PcapWriter<io::BufWriter<std::fs::File>>,
}

impl CaptureWriter {
    /// Creates (truncates) `path` as a radiotap pcap with the given snap
    /// length (0 = no truncation).
    pub fn create(path: &Path, snaplen: u32) -> Result<CaptureWriter, CaptureError> {
        let file = std::fs::File::create(path).map_err(PcapError::Io)?;
        let writer = PcapWriter::new(io::BufWriter::new(file), LinkType::Radiotap, snaplen)?;
        Ok(CaptureWriter { writer })
    }

    /// Serializes and appends one record.
    pub fn write_record(&mut self, r: &FrameRecord) -> Result<(), CaptureError> {
        let packet = record_to_packet(r);
        self.writer
            .write_packet(r.timestamp_us, &packet, packet.len() as u32)?;
        Ok(())
    }

    /// Flushes and returns the number of records written.
    pub fn finish(mut self) -> Result<u64, CaptureError> {
        self.writer.flush()?;
        Ok(self.writer.packets_written())
    }
}

/// A whole capture read: whatever records survived decoding, plus a
/// forensic report of everything that was skipped along the way.
#[derive(Debug, Clone)]
pub struct LossyCapture {
    /// Successfully decoded analysis records, in capture order.
    pub records: Vec<FrameRecord>,
    /// Container- and frame-level damage accounting.
    pub report: IngestReport,
}

/// Reads a radiotap capture from any byte source into memory: a
/// [`CaptureStream`] collected. Only the records, never the file, are
/// materialized. Damage is counted in the report, not refused; a file we
/// wrote reads back with a clean one. The hard errors are those of
/// [`CaptureStream::from_reader`] and [`CaptureStream::finish`].
pub fn read_capture<R: Read>(reader: R) -> Result<LossyCapture, CaptureError> {
    let mut stream = CaptureStream::from_reader(reader)?;
    let records = stream.by_ref().collect();
    let report = stream.finish()?;
    Ok(LossyCapture { records, report })
}

/// Decodes one captured radiotap packet into an analysis record — the
/// frame-level half of every capture read. A packet whose radiotap or frame
/// header does not decode is a skip (`None`), counted in `report`.
///
/// Every reader in `wifi_pcap` guarantees `orig_len >= data.len()`, which
/// with an untruncated radiotap header implies the subtraction below cannot
/// underflow on reader-produced input; the `saturating_sub` guards the
/// crafted-capture case where a record *claims* an original length smaller
/// than the radiotap header it carries.
fn decode_packet(data: &[u8], orig_len: u32, report: &mut IngestReport) -> Option<FrameRecord> {
    let Ok((meta, frame_bytes)) = radiotap::parse_packet(data) else {
        report.undecodable_radiotap += 1;
        return None;
    };
    let radiotap_len = data.len() - frame_bytes.len();
    let frame_orig_len = orig_len.saturating_sub(radiotap_len as u32);
    match wire::parse_header(frame_bytes) {
        Ok(header) => Some(FrameRecord::from_header(&header, frame_orig_len, &meta)),
        Err(_) => {
            report.undecodable_frames += 1;
            None
        }
    }
}

/// The one capture reader: pulls records one at a time from any byte
/// source in O(chunk) memory, so a capture larger than RAM analyzes fine.
/// The container (classic pcap or pcapng) is detected from the leading
/// magic. Snaplen truncation is handled by header-only parsing plus the
/// original-length field, as an analysis of the study's real traces must.
/// The iterator yields decoded [`FrameRecord`]s; damage is skipped and
/// accounted, read back via [`CaptureStream::report`] or
/// [`CaptureStream::finish`].
///
/// Hard failures (an I/O error mid-stream, a non-radiotap link type) end the
/// iteration early and surface from [`CaptureStream::finish`]; everything
/// recoverable is skip-counted instead.
pub struct CaptureStream<R: Read = Box<dyn Read + Send>> {
    inner: PcapStream<R>,
    /// Frame-level skip counters (the container counters live inside the
    /// container decoder).
    frame_report: IngestReport,
    failed: Option<CaptureError>,
}

impl CaptureStream<io::BufReader<std::fs::File>> {
    /// Opens a capture file for streaming ingestion.
    pub fn open(path: &Path) -> Result<Self, CaptureError> {
        let file = std::fs::File::open(path).map_err(PcapError::Io)?;
        CaptureStream::from_reader(io::BufReader::new(file))
    }
}

impl<R: Read> CaptureStream<R> {
    /// Wraps any byte source. The container is detected from its leading
    /// magic; a classic-pcap global header and link type are validated
    /// eagerly (the only eager hard errors — everything later is skipped or
    /// deferred to [`CaptureStream::finish`]).
    pub fn from_reader(reader: R) -> Result<Self, CaptureError> {
        let inner = PcapStream::new(reader)?;
        if let Some(link) = inner.link().filter(|&link| link != LinkType::Radiotap) {
            return Err(CaptureError::WrongLinkType(link));
        }
        Ok(CaptureStream {
            inner,
            frame_report: IngestReport::default(),
            failed: None,
        })
    }

    /// The damage accounting so far: container-level counters from the
    /// decoder plus the frame-level skip counters.
    pub fn report(&self) -> IngestReport {
        let mut report = *self.inner.report();
        report.merge(&self.frame_report);
        // `merge` double-counts nothing: the two halves fill disjoint
        // fields, except records_ok/recovered which frame_report never sets.
        report
    }

    /// Consumes the stream, returning the final accounting — or the hard
    /// error that ended iteration early, if any. Call after draining the
    /// iterator.
    pub fn finish(self) -> Result<IngestReport, CaptureError> {
        let report = self.report();
        match self.failed {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Consumes the stream into its accounting *and* whatever hard error
    /// ended it, without collapsing the two — a multi-source analysis keeps
    /// each source's partial accounting even when that source failed.
    pub fn into_outcome(self) -> (IngestReport, Option<CaptureError>) {
        let report = self.report();
        (report, self.failed)
    }

    /// Non-blocking pull: like the `Iterator` impl, but a live source with
    /// no decodable bytes buffered yet reports [`CapturePoll::Pending`]
    /// (with no state change) instead of erroring out.
    pub fn poll_next(&mut self) -> CapturePoll {
        if self.failed.is_some() {
            return CapturePoll::End;
        }
        match self.poll_decoded() {
            Ok(poll) => poll,
            Err(e) => {
                self.failed = Some(e);
                CapturePoll::End
            }
        }
    }

    /// [`CaptureStream::poll_next`] with its hard failure as an error.
    fn poll_decoded(&mut self) -> Result<CapturePoll, CaptureError> {
        loop {
            let p = match self.inner.poll_packet()? {
                Polled::Packet(p) => p,
                Polled::Pending => return Ok(CapturePoll::Pending),
                Polled::End => return Ok(CapturePoll::End),
            };
            if p.link != LinkType::Radiotap {
                return Err(CaptureError::WrongLinkType(p.link));
            }
            if let Some(r) = decode_packet(p.data, p.orig_len, &mut self.frame_report) {
                return Ok(CapturePoll::Record(r));
            }
        }
    }
}

/// Outcome of a [`CaptureStream::poll_next`].
#[derive(Debug)]
pub enum CapturePoll {
    /// The next decoded record.
    Record(FrameRecord),
    /// The live source would block; poll again when it may have grown.
    Pending,
    /// End of stream (check [`CaptureStream::finish`] /
    /// [`CaptureStream::into_outcome`] for a hard error).
    End,
}

impl<R: Read> Iterator for CaptureStream<R> {
    type Item = FrameRecord;

    fn next(&mut self) -> Option<FrameRecord> {
        match self.poll_next() {
            CapturePoll::Record(r) => Some(r),
            CapturePoll::End => None,
            CapturePoll::Pending => {
                // Blocking iteration over a non-blocking source is a usage
                // error; surface it as the hard error it is.
                self.failed = Some(CaptureError::Pcap(PcapError::Io(
                    io::ErrorKind::WouldBlock.into(),
                )));
                None
            }
        }
    }
}

/// A record as the radiotap packet a sniffer would have captured.
fn record_to_packet(r: &FrameRecord) -> Vec<u8> {
    let meta = CaptureMeta {
        tsft_us: r.timestamp_us,
        flags: FLAG_FCS_AT_END,
        rate: r.rate,
        channel: r.channel,
        signal_dbm: r.signal_dbm,
        noise_dbm: -95,
        antenna: 0,
    };
    radiotap::encode_packet(&meta, &wire::encode(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::FrameKind;
    use wifi_frames::MacAddr;

    /// Reads a capture file back whole.
    fn read_file(path: &Path) -> Result<LossyCapture, CaptureError> {
        read_capture(std::fs::File::open(path).unwrap())
    }

    /// Reads a capture file we wrote, which must decode with a clean report.
    fn read_clean(path: &Path) -> Vec<FrameRecord> {
        let capture = read_file(path).unwrap();
        assert!(capture.report.is_clean(), "{:?}", capture.report);
        capture.records
    }

    fn sample_records() -> Vec<FrameRecord> {
        let mk = |ts: u64, kind, src: Option<u32>, dst: u32, payload: u32, rate| FrameRecord {
            timestamp_us: ts,
            kind,
            rate,
            channel: Channel::new(6).unwrap(),
            dst: MacAddr::from_id(dst),
            src: src.map(MacAddr::from_id),
            bssid: Some(MacAddr::from_id(99)),
            retry: false,
            seq: Some((ts % 4096) as u16),
            mac_bytes: payload + 28,
            payload_bytes: payload,
            signal_dbm: -62,
            duration_us: 314,
        };
        vec![
            mk(1_000, FrameKind::Data, Some(1), 99, 1472, Rate::R11),
            {
                let mut ack = mk(1_314, FrameKind::Ack, None, 1, 0, Rate::R1);
                ack.mac_bytes = 14;
                ack.payload_bytes = 0;
                ack.bssid = None;
                ack.duration_us = 0;
                ack.seq = None; // control frames carry no sequence number
                ack
            },
            mk(3_000, FrameKind::Data, Some(2), 99, 64, Rate::R5_5),
        ]
    }

    #[test]
    fn roundtrip_untruncated() {
        let dir = std::env::temp_dir().join("congestion_trace_test_full");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.pcap");
        let records = sample_records();
        let n = write_capture_with_snaplen(&path, &records, 0).unwrap();
        assert_eq!(n, 3);
        let back = read_clean(&path);
        assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(&records) {
            assert_eq!(a.timestamp_us, b.timestamp_us);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.rate, b.rate);
            assert_eq!(a.mac_bytes, b.mac_bytes);
            assert_eq!(a.payload_bytes, b.payload_bytes);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.seq, b.seq);
        }
    }

    /// The exporter materializes a frame of exactly the declared size for
    /// every descriptor the simulator builds, so an untruncated capture
    /// reads back each record's `mac_bytes`.
    #[test]
    fn exported_sim_frames_keep_their_declared_size() {
        use wifi_sim::frame_info::SimFrame;
        let a = MacAddr::from_id;
        let frames = [
            SimFrame::data(a(1), a(2), a(3), 7, 321, false, 0, true),
            SimFrame::data_fragment(a(2), a(1), a(3), 8, 1, 256, true, 314, false, true),
            SimFrame::rts(a(1), a(2), 9),
            SimFrame::cts(a(2), 5),
            SimFrame::ack(a(1)),
            SimFrame::beacon(a(4), 1, 29),
            SimFrame::mgmt(FrameKind::AssocRequest, a(1), a(4), a(4), 2, 20, false, 0),
        ];
        let channel = Channel::new(1).unwrap();
        let records: Vec<FrameRecord> = (0u64..)
            .zip(&frames)
            .map(|(i, f)| f.to_record(1_000 * (i + 1), Rate::R2, channel, -60))
            .collect();
        let dir = std::env::temp_dir().join("congestion_trace_test_sim_frames");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim_frames.pcap");
        write_capture_with_snaplen(&path, &records, 0).unwrap();
        let back = read_clean(&path);
        assert_eq!(back.len(), records.len());
        for (got, want) in back.iter().zip(&records) {
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.mac_bytes, want.mac_bytes, "{:?}", want.kind);
        }
    }

    /// PS-Poll and CF-End carry two addresses and no sequence control, so
    /// a complete 20-byte frame decodes instead of being skipped as
    /// truncated (and so uncharged for busy time).
    #[test]
    fn two_address_control_frames_decode() {
        use wifi_frames::FrameClass;
        let records: Vec<FrameRecord> = [0b1010, 0b1110]
            .into_iter()
            .map(|subtype| {
                let mut r = sample_records()[1];
                r.kind = FrameKind::Other {
                    class: FrameClass::Control,
                    subtype,
                };
                r.src = Some(MacAddr::from_id(2));
                r.mac_bytes = 20;
                r
            })
            .collect();
        let dir = std::env::temp_dir().join("congestion_trace_test_two_addr");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two_addr.pcap");
        write_capture(&path, &records).unwrap();
        assert_eq!(read_clean(&path), records);
    }

    #[test]
    fn roundtrip_with_study_snaplen() {
        let dir = std::env::temp_dir().join("congestion_trace_test_snap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pcap");
        let records = sample_records();
        write_capture(&path, &records).unwrap();
        let back = read_clean(&path);
        assert_eq!(back.len(), records.len());
        // The 1500-byte frame was truncated on disk, yet its sizes survive
        // via the original-length field.
        assert_eq!(back[0].mac_bytes, 1500);
        assert_eq!(back[0].payload_bytes, 1472);
        assert_eq!(back[0].rate, Rate::R11);
    }

    #[test]
    fn analysis_agrees_before_and_after_roundtrip() {
        let dir = std::env::temp_dir().join("congestion_trace_test_agree");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agree.pcap");
        let records = sample_records();
        write_capture(&path, &records).unwrap();
        let back = read_clean(&path);
        let a = congestion::analyze(&records);
        let b = congestion::analyze(&back);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.busy_us, y.busy_us, "CBT must survive the roundtrip");
            assert_eq!(x.acked_data, y.acked_data);
            assert_eq!(x.throughput_bits, y.throughput_bits);
        }
    }

    #[test]
    fn lossy_recovers_after_mid_file_damage() {
        let records: Vec<FrameRecord> = (0..40u64)
            .map(|i| {
                let mut r = sample_records()[0];
                r.timestamp_us = i * 1_000;
                r.seq = Some(i as u16);
                r
            })
            .collect();
        let dir = std::env::temp_dir().join("congestion_trace_test_lossy_dmg");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.pcap");
        write_capture(&path, &records).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Walk to the 20th record header and blast its caplen so the reader
        // resynchronizes on the next record.
        let mut off = 24;
        for _ in 0..20 {
            let caplen = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap());
            off += 16 + caplen as usize;
        }
        bytes[off + 8..off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let lossy = read_file(&path).unwrap();
        assert!(lossy.report.resyncs >= 1);
        assert!(
            lossy.records.len() >= records.len() - 2,
            "recovered only {} of {} records",
            lossy.records.len(),
            records.len()
        );
    }

    #[test]
    fn undersized_orig_len_saturates_instead_of_underflowing() {
        // A record can *claim* an original length smaller than the radiotap
        // header it carries. No `wifi_pcap` reader produces one (they all
        // enforce `orig_len >= caplen`), but the decode layer must not rely
        // on that: the plain formula `orig_len - radiotap_len` would
        // debug-panic / release-wrap here.
        let packet = record_to_packet(&sample_records()[0]);
        let mut report = IngestReport::default();
        let rec = decode_packet(&packet, 3, &mut report).expect("frame itself is decodable");
        assert_eq!(rec.mac_bytes, 0, "claimed length saturates to zero");
        assert_eq!(rec.payload_bytes, 0);
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn undecodable_frames_and_radiotap_heads_are_counted_and_skipped() {
        let good = record_to_packet(&sample_records()[0]);
        // Radiotap intact, but only 3 bytes of MAC header behind it.
        let radiotap_len = u16::from_le_bytes([good[2], good[3]]) as usize;
        let bad_frame = &good[..radiotap_len + 3];
        let bad_radiotap = [0xFFu8; 12];
        let read_with = |second: &[u8]| {
            let mut buf = Vec::new();
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
            for (ts, packet) in [(0, &good[..]), (1, second), (2, &good[..])] {
                w.write_packet(ts, packet, packet.len() as u32).unwrap();
            }
            read_capture(&buf[..]).unwrap()
        };
        let capture = read_with(bad_frame);
        assert_eq!(capture.records.len(), 2);
        assert_eq!(capture.report.undecodable_frames, 1);
        let capture = read_with(&bad_radiotap);
        assert_eq!(capture.records.len(), 2);
        assert_eq!(capture.report.undecodable_radiotap, 1);
    }

    #[test]
    fn wrong_link_type_rejected() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LinkType::Ethernet, 0).unwrap();
        w.write_packet(0, &[0u8; 14], 14).unwrap();
        assert!(matches!(
            read_capture(&buf[..]),
            Err(CaptureError::WrongLinkType(LinkType::Ethernet))
        ));
    }
}
