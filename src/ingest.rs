//! The capture-ingest pipeline: decode N sniffer byte sources concurrently,
//! merge them online, and feed the per-second analysis — bytes to
//! congestion statistics in O(window) memory, never materializing a trace.
//!
//! ```text
//!   Source #0 ─ decode_source ─ batch channel ╲
//!   Source #1 ─ decode_source ─ batch channel ─→ merge driver ─→ SecondAccumulator
//!   Source #k ─ decode_source ─ batch channel ╱  (OnlineMerge)
//! ```
//!
//! A [`Source`] is any capture byte stream: a file that ends (batch
//! `analyze`), a tailed live file that grows until told to stop
//! (`serve`'s `TailSource`), or a reader a test scripts. Each source gets
//! one scoped decode thread running a [`CaptureStream`], and a bounded
//! batch channel provides backpressure, so a slow consumer bounds every
//! decoder's lead to a few batches instead of a whole file. The merge
//! driver answers each [`MergePoll::Need`] from the needed source's channel.
//!
//! Batch analysis ([`analyze_capture_streams`]) is the pipeline over sources
//! that end: no stall timeout, and the driver blocks on the stream the
//! merge needs. The resident service ([`crate::serve`]) runs the same
//! pipeline under a live policy: the driver waits at most one poll
//! interval, defers a source that stays quiet past the stall timeout (by a
//! [`Clock`] the caller supplies), and hands every step to an observer that
//! publishes status.
//!
//! Deadlock freedom: every source has its own thread, so every producer
//! makes progress independently, and the merge always drains the stream
//! whose head record is globally earliest — no producer waits on another
//! producer, and the consumer never waits on a stream that is not being
//! produced.
//!
//! Fault isolation: one bad source — unreadable, wrong link type, or even
//! a decoder panic — degrades into that source's [`SourceOutcome::error`]
//! while its siblings analyze to completion.

use crate::trace::{CaptureError, CapturePoll, CaptureStream};
use congestion::merge::{MergePoll, OnlineMerge};
use congestion::persec::{SecondAccumulator, SecondStats};
use congestion::{CongestionClassifier, CongestionLevel, UtilizationBins};
use std::io::Read;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wifi_frames::record::FrameRecord;
use wifi_pcap::{IngestReport, PcapError};
use wifi_sim::spsc::{batch_channel, BatchReceiver, BatchSender, TryRecv};

/// Records per cross-thread batch: large enough that the channel mutex is
/// cold (one lock per 256 records), small enough to stay cache-resident.
pub(crate) const BATCH_LEN: usize = 256;

/// Full batches in flight per sniffer before its decoder blocks — the
/// backpressure bound (~2k records, a few hundred KiB per sniffer).
pub(crate) const CHANNEL_BATCHES: usize = 8;

/// How long a pending source's decoder backs off when the pipeline runs
/// without a [`Live`] policy (files never pend; scripted readers may).
const BATCH_BACKOFF: Duration = Duration::from_millis(1);

/// One sniffer's capture bytes.
pub enum Source {
    /// A capture file, read to its end.
    File(PathBuf),
    /// Any byte stream. A read failing with `WouldBlock` means "no new bytes
    /// yet": the decoder ships what it has decoded, backs off and reads
    /// again. `Ok(0)` ends the source.
    Reader(Box<dyn Read + Send>),
}

impl Source {
    fn open(self) -> Result<Box<dyn Read + Send>, CaptureError> {
        match self {
            // Unbuffered: the decoder reads in its own 64 KiB chunks.
            Source::File(path) => Ok(Box::new(std::fs::File::open(path).map_err(PcapError::Io)?)),
            Source::Reader(reader) => Ok(reader),
        }
    }
}

/// The clock behind the live pipeline's timed decisions — the stall timeout
/// here, and the service's status interval, heartbeat and deadline — so a
/// test can substitute a clock it advances by hand.
pub trait Clock: Sync {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
}

/// The monotonic wall clock, counting from its creation.
pub struct SystemClock(Instant);

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock(Instant::now())
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
}

/// The outcome of a source whose decoder panicked.
fn panicked(payload: Box<dyn std::any::Any + Send>) -> SourceOutcome {
    let message = match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
    };
    SourceOutcome {
        report: IngestReport::default(),
        error: Some(CaptureError::Panicked(message)),
    }
}

/// What ingesting one source produced: the damage accounting for the bytes
/// that were decoded *and delivered*, plus the hard error that stopped the
/// source early, if any.
#[derive(Debug)]
pub struct SourceOutcome {
    /// Skip accounting for the delivered records. Under early consumer
    /// termination this is the snapshot at the last delivered batch
    /// boundary, so the totals match what the consumer could observe.
    pub report: IngestReport,
    /// The hard error that ended this source, if it did not run to clean
    /// end-of-stream.
    pub error: Option<CaptureError>,
}

impl SourceOutcome {
    /// True when the source decoded end-to-end without damage or error.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.report.is_clean()
    }
}

/// The result of a streaming end-to-end analysis over one or more sniffer
/// captures of the same channel.
#[derive(Debug)]
pub struct StreamAnalysis {
    /// Per-second link-layer statistics of the merged trace.
    pub per_second: Vec<SecondStats>,
    /// Per-source accounting and error state, in input order.
    pub sources: Vec<SourceOutcome>,
    /// Records in the merged, de-duplicated trace.
    pub merged_records: u64,
    /// Records each sniffer was the first to capture, in input order.
    pub contributed: Vec<u64>,
    /// Records each sniffer delivered after the merge had moved past them,
    /// which the merge dropped, in input order. Only a source the live
    /// policy deferred can have any; a batch run's are all zero.
    pub late_dropped: Vec<u64>,
}

impl StreamAnalysis {
    /// The source reports merged into one total — [`IngestReport`] is
    /// incrementally mergeable, so rolling per-source snapshots (as the
    /// serve status endpoint publishes) sum to exactly this.
    pub fn total_report(&self) -> IngestReport {
        let mut total = IngestReport::default();
        for s in &self.sources {
            total.merge(&s.report);
        }
        total
    }
}

/// Lifecycle of one source, as its decode thread publishes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum SourceState {
    /// Waiting for the bytes to appear / produce a capture header.
    #[default]
    Starting,
    /// Decoding.
    Live,
    /// Reached end-of-stream.
    Done,
    /// Hard error or panic; see [`SourceProgress::error`].
    Failed,
}

impl SourceState {
    pub(crate) fn name(self) -> &'static str {
        match self {
            SourceState::Starting => "starting",
            SourceState::Live => "live",
            SourceState::Done => "done",
            SourceState::Failed => "failed",
        }
    }
}

/// One source's telemetry: its decode thread writes it, a live status view
/// reads it while the pipeline runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceProgress {
    pub state: SourceState,
    /// Damage accounting as of the last delivered batch.
    pub report: IngestReport,
    /// The hard error that ended the source.
    pub error: Option<String>,
}

/// Locks a mutex, recovering from poisoning: every value guarded in this
/// pipeline is replaced or extended whole, so a panic elsewhere leaves it
/// consistent.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Decodes one source into `tx` until it ends, delivering records in
/// batches. A pending source ships its partial batch, so the merge sees
/// everything decoded so far, then backs off `backoff`. Total: panics and
/// hard errors degrade into the returned [`SourceOutcome`] instead of
/// crossing thread boundaries.
fn decode_source(
    source: Source,
    mut tx: BatchSender<FrameRecord>,
    progress: &Mutex<SourceProgress>,
    backoff: Duration,
) -> SourceOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Blocks (politely, via the WouldBlock retry in the header peek)
        // until a live source yields a capture header or ends.
        let mut stream = match source.open().and_then(CaptureStream::from_reader) {
            Ok(s) => s,
            Err(e) => {
                return SourceOutcome {
                    report: IngestReport::default(),
                    error: Some(e),
                }
            }
        };
        lock(progress).state = SourceState::Live;
        // Counters snapshotted only at delivered-batch boundaries
        // (`BatchSender::push` can fail only when a batch ships), so an
        // early consumer termination reports exactly the records the
        // consumer could observe — never the ones discarded with the
        // undeliverable batch.
        let mut delivered = stream.report();
        let shipped = loop {
            let pending = match stream.poll_next() {
                CapturePoll::Record(r) => match tx.push(r) {
                    Ok(()) if tx.is_empty() => false,
                    Ok(()) => continue,
                    Err(_) => break false,
                },
                CapturePoll::Pending => match tx.flush() {
                    Ok(()) => true,
                    Err(_) => break false,
                },
                CapturePoll::End => break tx.flush().is_ok(),
            };
            delivered = stream.report();
            lock(progress).report = delivered;
            if pending {
                std::thread::sleep(backoff);
            }
        };
        let (report, error) = stream.into_outcome();
        let report = if shipped { report } else { delivered };
        SourceOutcome { report, error }
    }));
    let outcome = result.unwrap_or_else(panicked);
    let mut progress = lock(progress);
    progress.report = outcome.report;
    progress.error = outcome.error.as_ref().map(ToString::to_string);
    progress.state = match progress.error {
        Some(_) => SourceState::Failed,
        None => SourceState::Done,
    };
    outcome
}

/// How the merge driver treats sources that can go quiet without ending —
/// the resident service's half of the pipeline.
pub(crate) struct Live<'a> {
    /// A source the merge waits on that delivers nothing for this long, by
    /// `clock`, is deferred ([`OnlineMerge::defer`]). `None` never defers.
    pub stall: Option<Duration>,
    /// The longest the driver waits on a channel before re-reading the
    /// clock; also a pending source's decoder back-off.
    pub poll: Duration,
    pub clock: &'a dyn Clock,
    /// Called after every driver step that pulled from or waited on a
    /// channel.
    pub observe: &'a mut dyn FnMut(&PipelineView<'_>),
}

/// The pipeline's state between two merge driver steps.
pub(crate) struct PipelineView<'a> {
    pub merge: &'a OnlineMerge,
    /// Per-second statistics folded so far.
    pub seconds: &'a [SecondStats],
    /// Merged records so far.
    pub merged: u64,
    pub receivers: &'a [BatchReceiver<FrameRecord>],
    pub progress: &'a [Mutex<SourceProgress>],
    /// The live clock's reading for this step.
    pub now: Duration,
    /// This step waited a whole poll interval without a record.
    pub idle: bool,
}

/// Runs `sources` through the pipeline until every source has ended: one
/// decode thread per source, the merge driver on this thread. Without a
/// [`Live`] policy this is batch analysis.
pub(crate) fn run_pipeline(sources: Vec<Source>, live: Option<Live<'_>>) -> StreamAnalysis {
    let backoff = live.as_ref().map_or(BATCH_BACKOFF, |l| l.poll);
    let progress: Vec<Mutex<SourceProgress>> = sources.iter().map(|_| Mutex::default()).collect();
    std::thread::scope(|scope| {
        // The receivers live inside the scope: should the driver unwind,
        // dropping them fails every blocked producer fast instead of
        // leaving the scope's join waiting on them.
        let (decoders, mut receivers): (Vec<_>, Vec<_>) = sources
            .into_iter()
            .zip(&progress)
            .map(|(source, progress)| {
                let (tx, rx) = batch_channel(CHANNEL_BATCHES, BATCH_LEN);
                let decoder = scope.spawn(move || decode_source(source, tx, progress, backoff));
                (decoder, rx)
            })
            .unzip();
        let (merge, per_second, merged_records) = drive(&mut receivers, &progress, live);
        // Decoder panics are caught inside `decode_source`; a join error
        // would mean a thread died outside it — degrade that source rather
        // than poison the caller.
        let sources = decoders
            .into_iter()
            .map(|d| d.join().unwrap_or_else(panicked))
            .collect();
        StreamAnalysis {
            per_second,
            sources,
            merged_records,
            contributed: merge.contributed().to_vec(),
            late_dropped: merge.late_dropped().to_vec(),
        }
    })
}

/// The merge driver: answers each [`MergePoll::Need`] from that source's
/// channel and folds merged records into the per-second accumulator until
/// every source has ended.
fn drive(
    receivers: &mut [BatchReceiver<FrameRecord>],
    progress: &[Mutex<SourceProgress>],
    mut live: Option<Live<'_>>,
) -> (OnlineMerge, Vec<SecondStats>, u64) {
    let n = receivers.len();
    let mut merge = OnlineMerge::new(n);
    let mut acc = SecondAccumulator::new();
    let mut merged = 0u64;
    let mut open = n;
    // When each source last delivered, by the live clock.
    let mut heard = vec![live.as_ref().map_or(Duration::ZERO, |l| l.clock.now()); n];
    loop {
        let idx = match merge.poll() {
            MergePoll::Record(r) => {
                merged += 1;
                acc.push(r);
                continue;
            }
            MergePoll::Need(idx) => idx,
            MergePoll::Done if open == 0 => break,
            // Every open source is deferred: wait for one to rejoin.
            MergePoll::Done => (0..n)
                .find(|&i| merge.is_deferred(i))
                .expect("an open source the merge does not need is deferred"),
        };
        let Some(live) = live.as_mut() else {
            // Batch: block on the stream the merge needs.
            match receivers[idx].next() {
                Some(r) => merge.offer(idx, r),
                None => {
                    merge.end(idx);
                    open -= 1;
                }
            }
            continue;
        };
        let got = receivers[idx].next_timeout(live.poll);
        let idle = matches!(got, TryRecv::Empty);
        deliver(&mut merge, &mut open, idx, got);
        let now = live.clock.now();
        if !idle {
            heard[idx] = now;
        } else {
            // A source quiet past the stall timeout stops blocking the merge.
            if live
                .stall
                .is_some_and(|t| now.saturating_sub(heard[idx]) >= t)
            {
                merge.defer(idx);
            }
            // Deferred sources rejoin as soon as they deliver; the merge
            // never asks for them, so drain them here.
            for i in 0..n {
                if merge.is_deferred(i) {
                    let got = receivers[i].try_next();
                    if !matches!(got, TryRecv::Empty) {
                        heard[i] = now;
                    }
                    deliver(&mut merge, &mut open, i, got);
                }
            }
        }
        (live.observe)(&PipelineView {
            merge: &merge,
            seconds: acc.seconds(),
            merged,
            receivers,
            progress,
            now,
            idle,
        });
    }
    (merge, acc.finish(), merged)
}

/// Hands one channel outcome for source `idx` to the merge; `open` counts
/// the sources that have not ended.
fn deliver(merge: &mut OnlineMerge, open: &mut usize, idx: usize, got: TryRecv<FrameRecord>) {
    match got {
        TryRecv::Item(r) => merge.offer(idx, r),
        TryRecv::Disconnected => {
            merge.end(idx);
            *open -= 1;
        }
        TryRecv::Empty => {}
    }
}

/// Streams `paths` (per-sniffer captures of one channel) through parallel
/// decoding, the online k-way merge, and the per-second accumulator.
///
/// Equivalent to reading every file with
/// [`crate::trace::read_capture`], merging with
/// [`congestion::merge_traces`], and running [`congestion::analyze`] — but
/// in O(window) memory and with the decode work spread across one thread
/// per file. A source that fails hard (unreadable file, unrecognizable
/// classic header, non-radiotap link type, decoder panic) contributes what
/// it decoded before failing and carries the error in its
/// [`SourceOutcome`]; sibling sources and the merged analysis complete
/// normally.
pub fn analyze_capture_streams(paths: &[PathBuf]) -> Result<StreamAnalysis, CaptureError> {
    let sources = paths.iter().cloned().map(Source::File).collect();
    Ok(run_pipeline(sources, None))
}

/// Renders the per-second analysis summary exactly as `wifi-congestion
/// analyze` prints it. Shared by the batch CLI and the serve final report so
/// the two outputs are byte-comparable.
pub fn render_analysis(stats: &[SecondStats], frames: u64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if stats.is_empty() {
        let _ = writeln!(out, "frames: {frames}");
        let _ = writeln!(out, "span: 0.0 s (0 analyzed seconds)");
        return out;
    }
    let bins = UtilizationBins::build(stats);
    let classifier = CongestionClassifier::from_measurements(&bins);
    let _ = writeln!(out, "frames: {frames}");
    let _ = writeln!(
        out,
        "span: {:.1} s ({} analyzed seconds)",
        (stats.last().unwrap().second - stats.first().unwrap().second + 1) as f64,
        stats.len()
    );
    let mut high = 0u64;
    let mut moderate = 0u64;
    let mut idle = 0u64;
    for s in stats {
        match classifier.classify(s.utilization_pct()) {
            CongestionLevel::High => high += 1,
            CongestionLevel::Moderate => moderate += 1,
            CongestionLevel::Uncongested => idle += 1,
        }
    }
    let _ = writeln!(
        out,
        "congestion: {idle} uncongested s, {moderate} moderate s, {high} high s \
         (thresholds {:.0}% / {:.0}%)",
        classifier.low_pct, classifier.high_pct
    );
    let _ = writeln!(out, "utilization mode: {:?}%", bins.mode());
    let total_thr: f64 = stats.iter().map(|s| s.throughput_mbps()).sum();
    let total_good: f64 = stats.iter().map(|s| s.goodput_mbps()).sum();
    let n = stats.len().max(1) as f64;
    let _ = writeln!(
        out,
        "mean throughput {:.2} Mbps, mean goodput {:.2} Mbps",
        total_thr / n,
        total_good / n
    );
    let _ = writeln!(out, "\nsec\tutil%\tthr\tgood\tdata/s\tretr/s");
    for s in stats.iter().take(30) {
        let _ = writeln!(
            out,
            "{}\t{:.1}\t{:.2}\t{:.2}\t{}\t{}",
            s.second,
            s.utilization_pct(),
            s.throughput_mbps(),
            s.goodput_mbps(),
            s.data,
            s.retries,
        );
    }
    if stats.len() > 30 {
        let _ = writeln!(out, "… ({} more seconds)", stats.len() - 30);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{read_capture, write_capture};
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::{FrameKind, MacAddr};

    fn rec(ts: u64, src: u32, seq: u16) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind: FrameKind::Data,
            rate: Rate::R11,
            channel: Channel::new(6).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(MacAddr::from_id(src)),
            bssid: Some(MacAddr::from_id(99)),
            retry: false,
            seq: Some(seq),
            mac_bytes: 1028,
            payload_bytes: 1000,
            signal_dbm: -62,
            duration_us: 314,
        }
    }

    fn write_sniffers(tag: &str, sniffers: &[Vec<FrameRecord>]) -> Vec<PathBuf> {
        let dir = std::env::temp_dir().join(format!("congestion_ingest_test_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        sniffers
            .iter()
            .enumerate()
            .map(|(i, records)| {
                let path = dir.join(format!("sniffer_{i}.pcap"));
                write_capture(&path, records).unwrap();
                path
            })
            .collect()
    }

    #[test]
    fn streaming_pipeline_matches_batch_end_to_end() {
        // Three sniffers with complementary losses and a little clock skew.
        let full: Vec<FrameRecord> = (0..3000u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let sniffers: Vec<Vec<FrameRecord>> = (0..3)
            .map(|s| {
                full.iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 != s)
                    .map(|(_, r)| {
                        let mut r = *r;
                        r.timestamp_us += 20 * s as u64; // per-sniffer skew
                        r
                    })
                    .collect()
            })
            .collect();
        let paths = write_sniffers("e2e", &sniffers);

        let streamed = analyze_capture_streams(&paths).unwrap();

        // Batch reference: read each file whole, merge, analyze.
        let batch: Vec<Vec<FrameRecord>> = paths
            .iter()
            .map(|p| {
                read_capture(std::fs::File::open(p).unwrap())
                    .unwrap()
                    .records
            })
            .collect();
        let views: Vec<&[FrameRecord]> = batch.iter().map(|t| &t[..]).collect();
        let merged = congestion::merge_traces(&views);
        let expected = congestion::analyze(&merged);

        assert_eq!(streamed.merged_records as usize, merged.len());
        assert_eq!(streamed.per_second, expected);
        assert_eq!(streamed.sources.len(), 3);
        assert!(streamed.sources.iter().all(|s| s.is_clean()));
        assert!(streamed.total_report().is_clean());
        assert_eq!(
            streamed.contributed.iter().sum::<u64>(),
            streamed.merged_records
        );
    }

    #[test]
    fn empty_input_set_yields_empty_analysis() {
        let out = analyze_capture_streams(&[]).unwrap();
        assert!(out.per_second.is_empty());
        assert_eq!(out.merged_records, 0);
        assert!(out.sources.is_empty());
    }

    #[test]
    fn missing_file_degrades_that_source_only() {
        // One unreadable source among two: the analysis completes on the
        // good one and reports the failure per-source instead of aborting.
        let good: Vec<FrameRecord> = (0..500u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let mut paths = write_sniffers("missing", std::slice::from_ref(&good));
        paths.push(PathBuf::from("/nonexistent/sniffer.pcap"));

        let out = analyze_capture_streams(&paths).unwrap();
        assert!(out.sources[0].error.is_none());
        assert!(
            matches!(out.sources[1].error, Some(CaptureError::Pcap(_))),
            "missing file must surface as that source's error: {:?}",
            out.sources[1].error
        );
        let expected = congestion::analyze(&congestion::merge_traces(&[&good[..]]));
        assert_eq!(out.per_second, expected);
        assert_eq!(out.contributed, vec![out.merged_records, 0]);
    }

    /// A reader whose first read panics: a crash-faulty decoder.
    struct PanickingReader;

    impl Read for PanickingReader {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            panic!("decoder panic on the first read");
        }
    }

    #[test]
    fn panicking_decoder_fails_only_its_source() {
        let full: Vec<FrameRecord> = (0..2000u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let paths = write_sniffers("panic", &[full.clone(), full.clone()]);
        let sources = vec![
            Source::File(paths[0].clone()),
            Source::Reader(Box::new(PanickingReader)),
            Source::File(paths[1].clone()),
        ];
        let out = run_pipeline(sources, None);

        assert!(
            matches!(out.sources[1].error, Some(CaptureError::Panicked(_))),
            "the panic must surface as that source's error: {:?}",
            out.sources[1].error
        );
        assert!(out.sources[0].is_clean());
        assert!(out.sources[2].is_clean());
        // The panicking source contributed nothing; the survivors carry the
        // full analysis (their traces are identical, so the merge equals one
        // of them).
        assert_eq!(out.contributed[1], 0);
        let expected = congestion::analyze(&congestion::merge_traces(&[&full[..]]));
        assert_eq!(out.per_second, expected);
        assert_eq!(out.merged_records as usize, full.len());
    }

    #[test]
    fn early_consumer_termination_reports_only_delivered_records() {
        // Drive decode_source by hand against a receiver that disconnects
        // after one batch: the outcome's counters must match a delivered
        // batch boundary, not the whole file.
        let records: Vec<FrameRecord> = (0..2000u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let paths = write_sniffers("early_term", &[records]);
        let (tx, mut rx) = batch_channel::<FrameRecord>(1, BATCH_LEN);
        let worker = std::thread::spawn({
            let path = paths[0].clone();
            move || decode_source(Source::File(path), tx, &Mutex::default(), BATCH_BACKOFF)
        });
        // Take exactly one batch, then drop the receiver.
        let mut taken = 0usize;
        for _ in rx.by_ref().take(BATCH_LEN) {
            taken += 1;
        }
        drop(rx);
        let outcome = worker.join().unwrap();
        assert_eq!(taken, BATCH_LEN);
        assert!(outcome.error.is_none());
        let total = outcome.report.records_total();
        assert!(
            total % BATCH_LEN as u64 == 0 && total >= taken as u64,
            "counters must sit on a delivered batch boundary, got {total}"
        );
        assert!(
            total < 2000,
            "counters must exclude records the consumer never saw"
        );
    }
}
