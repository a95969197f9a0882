//! Capture-file glue: persist simulated sniffer traces as pcap files with
//! radiotap headers (what tethereal in RFMon mode wrote in 2005), and
//! ingest such files back into analysis records.
//!
//! The export path reconstructs full frame bytes from the compact
//! [`FrameRecord`]s (payloads zero-filled — the study's sniffers kept only
//! the first 250 bytes anyway), and the import path exercises the same
//! truncated-header parsing a real trace analysis needs.

use std::io::{self, Read};
use std::path::Path;
use wifi_frames::radiotap::{self, CaptureMeta, FLAG_FCS_AT_END};
use wifi_frames::record::FrameRecord;
use wifi_frames::wire;
use wifi_pcap::{
    is_pcapng, IngestReport, LinkType, PcapError, PcapNgStream, PcapStream, PcapWriter, Polled,
};

/// The snap length the study used.
pub const STUDY_SNAPLEN: u32 = 250;

/// Errors from capture import.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying pcap problem.
    Pcap(PcapError),
    /// A record's radiotap header was undecodable.
    Radiotap(radiotap::RadiotapError),
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
            CaptureError::Radiotap(e) => write!(f, "radiotap error: {e}"),
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
        let meta = CaptureMeta {
            tsft_us: r.timestamp_us,
            flags: FLAG_FCS_AT_END,
            rate: r.rate,
            channel: r.channel,
            signal_dbm: r.signal_dbm,
            noise_dbm: -95,
            antenna: 0,
        };
        let frame = record_to_frame(r);
        let bytes = wire::encode(&frame);
        let packet = radiotap::encode_packet(&meta, &bytes);
        self.writer.write_packet(r.timestamp_us, &packet)?;
        Ok(())
    }

    /// Flushes and returns the number of records written.
    pub fn finish(mut self) -> Result<u64, CaptureError> {
        self.writer.flush()?;
        Ok(self.writer.packets_written())
    }
}

/// A reader with its peeked magic bytes replayed in front of it.
type Replayed<R> = io::Chain<io::Cursor<Vec<u8>>, R>;

/// Peeks the first four bytes of a reader (the container magic) and hands
/// back a stream that replays them: container detection without buffering
/// the file.
fn peek_magic<R: Read>(mut reader: R) -> io::Result<(Vec<u8>, Replayed<R>)> {
    let mut head = Vec::with_capacity(4);
    let mut byte = [0u8; 1];
    while head.len() < 4 {
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A live source that has not produced its magic yet: wait for
            // it (the source turns into EOF if the feed stops for good).
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((head.clone(), io::Cursor::new(head).chain(reader)))
}

/// Reads a radiotap capture back into analysis records, auto-detecting the
/// container (classic pcap or pcapng by leading magic). Handles snaplen
/// truncation via header-only parsing plus the original-length field, just
/// as an analysis of the study's real traces must.
///
/// A strict [`CaptureStream`] collected: any container damage or
/// undecodable radiotap header fails the read, while frames whose MAC
/// header does not parse are skipped, as a real analysis must. Only the
/// records, never the file, are materialized.
pub fn read_capture(path: &Path) -> Result<Vec<FrameRecord>, CaptureError> {
    let file = std::fs::File::open(path).map_err(PcapError::Io)?;
    let mut stream = CaptureStream::new(io::BufReader::new(file), true)?;
    let records = stream.by_ref().collect();
    stream.finish()?;
    Ok(records)
}

/// A lossy capture ingestion: whatever records survived decoding, plus a
/// forensic report of everything that was skipped along the way.
#[derive(Debug, Clone)]
pub struct LossyCapture {
    /// Successfully decoded analysis records, in capture order.
    pub records: Vec<FrameRecord>,
    /// Container- and frame-level damage accounting.
    pub report: IngestReport,
}

/// Reads a radiotap capture in lossy mode: damaged container blocks are
/// resynchronized over, and records whose radiotap header or MAC frame is
/// undecodable are counted rather than aborting the read. The only hard
/// errors are an unreadable file, an unrecognizable classic-pcap global
/// header, or a wrong (non-radiotap) link type — those mean "not a sniffer
/// trace", not "a damaged one".
pub fn read_capture_lossy(path: &Path) -> Result<LossyCapture, CaptureError> {
    let bytes = std::fs::read(path).map_err(PcapError::Io)?;
    read_capture_lossy_bytes(&bytes)
}

/// [`read_capture_lossy`] over an in-memory image (what the fault-injection
/// harness feeds).
pub fn read_capture_lossy_bytes(bytes: &[u8]) -> Result<LossyCapture, CaptureError> {
    let mut stream = CaptureStream::from_reader(bytes)?;
    let records: Vec<FrameRecord> = stream.by_ref().collect();
    let report = stream.finish()?;
    Ok(LossyCapture { records, report })
}

/// Decodes one captured radiotap packet into an analysis record — the
/// frame-level half of every capture read. Counts each failure in `report`;
/// a frame-header failure is a skip (`Ok(None)`), a radiotap failure comes
/// back as the error so a strict read can fail on it.
///
/// Every reader in `wifi_pcap` guarantees `orig_len >= data.len()`, which
/// with an untruncated radiotap header implies the subtraction below cannot
/// underflow on reader-produced input; the `saturating_sub` guards the
/// crafted-capture case where a record *claims* an original length smaller
/// than the radiotap header it carries.
fn decode_packet(
    data: &[u8],
    orig_len: u32,
    report: &mut IngestReport,
) -> Result<Option<FrameRecord>, radiotap::RadiotapError> {
    let (meta, frame_bytes) = match radiotap::parse_packet(data) {
        Ok(parsed) => parsed,
        Err(e) => {
            report.undecodable_radiotap += 1;
            return Err(e);
        }
    };
    let radiotap_len = data.len() - frame_bytes.len();
    let frame_orig_len = orig_len.saturating_sub(radiotap_len as u32);
    match wire::parse_header(frame_bytes) {
        Ok(header) => Ok(Some(FrameRecord::from_header(
            &header,
            frame_orig_len,
            &meta,
        ))),
        Err(_) => {
            report.undecodable_frames += 1;
            Ok(None)
        }
    }
}

/// The container half of a streaming capture: either classic pcap or pcapng,
/// each over a chunked source that replays the peeked magic bytes.
enum StreamInner<R: Read> {
    Classic(PcapStream<Replayed<R>>),
    Ng(PcapNgStream<Replayed<R>>),
}

/// A streaming lossy capture ingestion: pulls records one at a time from any
/// byte source in O(chunk) memory, so a capture larger than RAM analyzes
/// fine. The iterator yields decoded [`FrameRecord`]s; damage is accounted
/// exactly as in [`read_capture_lossy`] and read back via
/// [`CaptureStream::report`] or [`CaptureStream::finish`].
///
/// Hard failures (an I/O error mid-stream, a non-radiotap link type) end the
/// iteration early and surface from [`CaptureStream::finish`]; everything
/// recoverable is skip-counted instead. ([`read_capture`] runs the same
/// stream strictly, where container damage and radiotap failures are hard
/// failures too.)
pub struct CaptureStream<R: Read = Box<dyn Read + Send>> {
    inner: StreamInner<R>,
    /// Frame-level skip counters (the container counters live inside the
    /// container stream).
    frame_report: IngestReport,
    strict: bool,
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
    /// Wraps any byte source. The container is detected from the first four
    /// bytes; a classic-pcap global header is validated eagerly (the only
    /// eager hard errors — everything later is lossy or deferred to
    /// [`CaptureStream::finish`]).
    pub fn from_reader(reader: R) -> Result<Self, CaptureError> {
        CaptureStream::new(reader, false)
    }

    /// [`CaptureStream::from_reader`] with the container policy chosen:
    /// `strict` fails on the first damage instead of skipping it.
    fn new(reader: R, strict: bool) -> Result<Self, CaptureError> {
        let (magic, source) = peek_magic(reader).map_err(PcapError::Io)?;
        let inner = if is_pcapng(&magic) {
            StreamInner::Ng(if strict {
                PcapNgStream::strict(source)
            } else {
                PcapNgStream::lossy(source)
            })
        } else {
            let stream = if strict {
                PcapStream::strict(source)?
            } else {
                PcapStream::lossy(source)?
            };
            if stream.link() != LinkType::Radiotap {
                return Err(CaptureError::WrongLinkType(stream.link()));
            }
            StreamInner::Classic(stream)
        };
        Ok(CaptureStream {
            inner,
            frame_report: IngestReport::default(),
            strict,
            failed: None,
        })
    }

    /// The damage accounting so far: container-level counters from the
    /// container stream plus the frame-level skip counters.
    pub fn report(&self) -> IngestReport {
        let mut report = *match &self.inner {
            StreamInner::Classic(s) => s.report(),
            StreamInner::Ng(s) => s.report(),
        };
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
            let polled = match &mut self.inner {
                StreamInner::Classic(s) => {
                    let link = s.link();
                    s.poll_packet()?.map(|p| (link, p.data, p.orig_len))
                }
                StreamInner::Ng(s) => s.poll_packet()?.map(|p| (p.link, p.data, p.orig_len)),
            };
            let (link, data, orig_len) = match polled {
                Polled::Packet(p) => p,
                Polled::Pending => return Ok(CapturePoll::Pending),
                Polled::End => return Ok(CapturePoll::End),
            };
            if link != LinkType::Radiotap {
                return Err(CaptureError::WrongLinkType(link));
            }
            match decode_packet(data, orig_len, &mut self.frame_report) {
                Ok(Some(r)) => return Ok(CapturePoll::Record(r)),
                Ok(None) => {}
                Err(e) if self.strict => return Err(CaptureError::Radiotap(e)),
                Err(_) => {}
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

/// Reconstructs a full frame from a record for serialization. Payload
/// contents are zero-filled; every header field round-trips.
fn record_to_frame(r: &FrameRecord) -> wifi_frames::Frame {
    use wifi_frames::fc::FcFlags;
    use wifi_frames::frame::{self, Ack, Beacon, Cts, Data, Frame, Mgmt, Rts, SeqCtl};
    use wifi_frames::mac::MacAddr;
    use wifi_frames::FrameKind;

    let seq = SeqCtl::new(r.seq.unwrap_or(0), 0);
    match r.kind {
        FrameKind::Rts => Frame::Rts(Rts {
            duration: r.duration_us,
            receiver: r.dst,
            transmitter: r.src.unwrap_or(MacAddr::ZERO),
        }),
        FrameKind::Cts => Frame::Cts(Cts {
            duration: r.duration_us,
            receiver: r.dst,
        }),
        FrameKind::Ack => Frame::Ack(Ack {
            duration: r.duration_us,
            receiver: r.dst,
        }),
        FrameKind::Beacon => {
            Frame::Beacon(Beacon {
                duration: 0,
                dest: MacAddr::BROADCAST,
                source: r.src.unwrap_or(MacAddr::ZERO),
                bssid: r.bssid.unwrap_or(MacAddr::ZERO),
                seq,
                timestamp: r.timestamp_us,
                interval_tu: 100,
                capability: 0x0401,
                ssid: "x".repeat((r.mac_bytes as usize).saturating_sub(
                    frame::MGMT_OVERHEAD_BYTES + frame::BEACON_FIXED_BODY_BYTES + 11,
                )),
                channel: r.channel,
            })
        }
        FrameKind::Data | FrameKind::NullData => {
            let mut flags = FcFlags::default();
            flags.retry = r.retry;
            // Direction: to-DS when the destination is the BSSID.
            flags.to_ds = r.bssid == Some(r.dst);
            flags.from_ds = !flags.to_ds;
            Frame::Data(Data {
                flags,
                duration: r.duration_us,
                addr1: r.dst,
                addr2: r.src.unwrap_or(MacAddr::ZERO),
                addr3: r.bssid.unwrap_or(MacAddr::ZERO),
                seq,
                payload: vec![0u8; r.payload_bytes as usize],
                null: r.kind == FrameKind::NullData,
            })
        }
        kind => {
            let flags = FcFlags {
                retry: r.retry,
                ..FcFlags::default()
            };
            Frame::Mgmt(Mgmt {
                kind,
                flags,
                duration: r.duration_us,
                addr1: r.dst,
                addr2: r.src.unwrap_or(MacAddr::ZERO),
                addr3: r.bssid.unwrap_or(MacAddr::ZERO),
                seq,
                body: vec![0u8; (r.mac_bytes as usize).saturating_sub(frame::MGMT_OVERHEAD_BYTES)],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::FrameKind;
    use wifi_frames::MacAddr;

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
        let back = read_capture(&path).unwrap();
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

    #[test]
    fn roundtrip_with_study_snaplen() {
        let dir = std::env::temp_dir().join("congestion_trace_test_snap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pcap");
        let records = sample_records();
        write_capture(&path, &records).unwrap();
        let back = read_capture(&path).unwrap();
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
        let back = read_capture(&path).unwrap();
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
    fn lossy_matches_strict_on_clean_capture() {
        let dir = std::env::temp_dir().join("congestion_trace_test_lossy_clean");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.pcap");
        let records = sample_records();
        write_capture(&path, &records).unwrap();
        let strict = read_capture(&path).unwrap();
        let lossy = read_capture_lossy(&path).unwrap();
        assert_eq!(lossy.records, strict);
        assert!(lossy.report.is_clean(), "clean file: {:?}", lossy.report);
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
        // Walk to the 20th record header and blast its caplen so the strict
        // reader dies but the lossy one resynchronizes on the next record.
        let mut off = 24;
        for _ in 0..20 {
            let caplen = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap());
            off += 16 + caplen as usize;
        }
        bytes[off + 8..off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_capture(&path).is_err(), "strict must reject the blast");
        let lossy = read_capture_lossy(&path).unwrap();
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
        // on that: the old strict-path formula `orig_len - radiotap_len`
        // would debug-panic / release-wrap here.
        let records = sample_records();
        let meta = CaptureMeta {
            tsft_us: records[0].timestamp_us,
            flags: FLAG_FCS_AT_END,
            rate: records[0].rate,
            channel: records[0].channel,
            signal_dbm: records[0].signal_dbm,
            noise_dbm: -95,
            antenna: 0,
        };
        let packet = radiotap::encode_packet(&meta, &wire::encode(&record_to_frame(&records[0])));
        let mut report = IngestReport::default();
        let rec = decode_packet(&packet, 3, &mut report)
            .unwrap()
            .expect("frame itself is decodable");
        assert_eq!(rec.mac_bytes, 0, "claimed length saturates to zero");
        assert_eq!(rec.payload_bytes, 0);
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn strict_read_skips_bad_frames_but_fails_on_bad_radiotap() {
        let dir = std::env::temp_dir().join("congestion_trace_test_strict_frames");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.pcap");
        write_capture_with_snaplen(&path, &sample_records(), 0).unwrap();
        let (_, pkts) = wifi_pcap::read_file(&path).unwrap();
        let good = &pkts[0].data;
        // Radiotap intact, but only 3 bytes of MAC header behind it.
        let radiotap_len = u16::from_le_bytes([good[2], good[3]]) as usize;
        let bad_frame = &good[..radiotap_len + 3];
        let bad_radiotap = [0xFFu8; 12];
        let rewrite = |second: &[u8]| {
            let packets = vec![(0u64, &good[..]), (1, second), (2, &good[..])];
            wifi_pcap::write_file(&path, LinkType::Radiotap, 0, packets).unwrap();
        };
        rewrite(bad_frame);
        assert_eq!(read_capture(&path).unwrap().len(), 2);
        rewrite(&bad_radiotap);
        assert!(matches!(
            read_capture(&path),
            Err(CaptureError::Radiotap(_))
        ));
        // The lossy read counts the same packet and goes on.
        let lossy = read_capture_lossy(&path).unwrap();
        assert_eq!(lossy.records.len(), 2);
        assert_eq!(lossy.report.undecodable_radiotap, 1);
    }

    #[test]
    fn capture_stream_matches_batch_lossy_read() {
        let records: Vec<FrameRecord> = (0..60u64)
            .map(|i| {
                let mut r = sample_records()[0];
                r.timestamp_us = i * 700;
                r.seq = Some(i as u16);
                r
            })
            .collect();
        let dir = std::env::temp_dir().join("congestion_trace_test_stream");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.pcap");
        write_capture(&path, &records).unwrap();
        let batch = read_capture_lossy(&path).unwrap();
        let mut stream = CaptureStream::open(&path).unwrap();
        let streamed: Vec<FrameRecord> = stream.by_ref().collect();
        assert_eq!(streamed, batch.records);
        assert_eq!(stream.finish().unwrap(), batch.report);
    }

    #[test]
    fn wrong_link_type_rejected() {
        let dir = std::env::temp_dir().join("congestion_trace_test_lt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("eth.pcap");
        wifi_pcap::write_file(&path, LinkType::Ethernet, 0, vec![(0u64, &[0u8; 14][..])]).unwrap();
        assert!(matches!(
            read_capture(&path),
            Err(CaptureError::WrongLinkType(LinkType::Ethernet))
        ));
    }
}
