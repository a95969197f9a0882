//! Merging captures from multiple sniffers.
//!
//! During the day session the study ran three sniffers in one room; captures
//! of the *same channel* from different vantage points overlap heavily but
//! not perfectly (each sniffer misses different frames). Merging them yields
//! a trace with better coverage than any single sniffer — provided duplicate
//! captures of the same transmission are collapsed.
//!
//! A duplicate is a record from another sniffer with the same transmitter,
//! sequence number, retry flag, frame kind and size whose timestamp falls
//! within a small window (sniffer clocks are aligned here; the window covers
//! capture-timestamp jitter). Control frames carry no sequence number, so
//! they deduplicate on `(kind, dst, timestamp window)`.
//!
//! Duplicates cluster: with three (or more) sniffers, captures of one
//! transmission form a *chain* where consecutive members sit inside the
//! window but the endpoints may not (A@0, B@100, C@200 with a 120 µs
//! window). The window therefore anchors on a cluster's **latest member**,
//! suppressed or not — comparing only against emitted records would leak C
//! back in as a false new frame once B is suppressed.

use std::collections::VecDeque;
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;

/// Maximum timestamp skew between two sniffers' captures of one
/// transmission.
pub const DEDUP_WINDOW_US: Micros = 120;

/// Merges per-sniffer traces of the same channel into one time-ordered,
/// de-duplicated trace. Input traces must each be time-ordered (as captures
/// are).
///
/// The batch reference oracle: a full sort plus a window scan, kept so the
/// [`MergeStream`] unit tests and proptests have an independent merge to
/// compare against. Production merging — `analyze`, `serve`,
/// [`coverage_gain`] — runs [`MergeStream`] / [`OnlineMerge`], which equals
/// this on time-ordered inputs in O(window) memory.
pub fn merge_traces(traces: &[&[FrameRecord]]) -> Vec<FrameRecord> {
    let mut all: Vec<FrameRecord> = traces.iter().flat_map(|t| t.iter().copied()).collect();
    all.sort_by_key(|r| r.timestamp_us);
    dedup_in_place(all)
}

fn same_transmission(a: &FrameRecord, b: &FrameRecord) -> bool {
    a.kind == b.kind
        && a.dst == b.dst
        && a.src == b.src
        && a.mac_bytes == b.mac_bytes
        && a.retry == b.retry
        && a.seq == b.seq
}

fn dedup_in_place(sorted: Vec<FrameRecord>) -> Vec<FrameRecord> {
    let mut out: Vec<FrameRecord> = Vec::with_capacity(sorted.len());
    // Sliding window of capture clusters still inside the dedup horizon:
    // `(index of the emitted representative, timestamp of the latest
    // member — including suppressed ones)`. Anchoring the window on the
    // latest member closes the transitive leak where a chain of captures
    // each within the window of its predecessor (but not of the emitted
    // head) would re-emit mid-chain.
    let mut clusters: VecDeque<(usize, Micros)> = VecDeque::new();
    for r in sorted {
        clusters.retain(|&(_, last)| r.timestamp_us.saturating_sub(last) <= DEDUP_WINDOW_US);
        let mut dup = false;
        for (idx, last) in clusters.iter_mut() {
            if same_transmission(&out[*idx], &r)
                && r.timestamp_us.saturating_sub(*last) <= DEDUP_WINDOW_US
            {
                *last = r.timestamp_us; // extend the cluster's anchor
                dup = true;
                break;
            }
        }
        if !dup {
            clusters.push_back((out.len(), r.timestamp_us));
            out.push(r);
        }
    }
    out
}

/// The fields of [`same_transmission`] as one copyable identity key. Two
/// records compare equal under `same_transmission` iff their keys are equal,
/// so the online window stores keys instead of whole records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TransmissionKey {
    kind: FrameKind,
    dst: MacAddr,
    src: Option<MacAddr>,
    mac_bytes: u32,
    retry: bool,
    seq: Option<u16>,
}

impl TransmissionKey {
    fn of(r: &FrameRecord) -> TransmissionKey {
        TransmissionKey {
            kind: r.kind,
            dst: r.dst,
            src: r.src,
            mac_bytes: r.mac_bytes,
            retry: r.retry,
            seq: r.seq,
        }
    }
}

/// Once the dedup window holds more entries than this, expired ones are
/// compacted out. Popping only the front leaves expired entries behind a
/// front cluster that keeps being extended (a long duplicate chain).
const CLUSTER_COMPACT_LEN: usize = 32;

/// What an [`OnlineMerge::poll`] produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergePoll {
    /// The next merged, de-duplicated record in timestamp order.
    Record(FrameRecord),
    /// No record can be emitted until stream `idx` either gets a record
    /// ([`OnlineMerge::offer`]), is closed ([`OnlineMerge::end`]), or is
    /// deferred ([`OnlineMerge::defer`]).
    Need(usize),
    /// No stream can currently produce: every stream has ended or is
    /// deferred, and everything buffered has been emitted. Final only once
    /// every stream has actually ended — with deferred streams still open
    /// the caller may offer more and poll again.
    Done,
}

/// The push-based core of the k-way merge: callers feed records per stream
/// with [`OnlineMerge::offer`] and pull merged output with
/// [`OnlineMerge::poll`], so the same dedup logic drives both the pull-based
/// [`MergeStream`] (batch files) and a live service where stream input
/// arrives asynchronously from decoder threads.
///
/// Two behaviors beyond the batch merge, both needed once inputs are live:
///
/// * **Regressive-clock clamping.** Each stream's timestamps are clamped to
///   be non-decreasing (`max` against the stream's high-water mark). Without
///   this, a sniffer whose clock steps backwards past the dedup window moves
///   a cluster's anchor backwards (`saturating_sub` treats the regression as
///   an in-window duplicate), which resurrects a later true duplicate as a
///   false new frame. For well-formed (time-ordered) inputs the clamp is a
///   no-op, so batch equivalence with [`merge_traces`] is preserved.
/// * **Skew-horizon advance.** `poll(Some(horizon))` lets the merge emit
///   past a stream that has nothing buffered once the candidate record's
///   timestamp exceeds that stream's high-water mark by more than `horizon`
///   µs — a stalled or dead sniffer delays output by at most the horizon
///   instead of wedging the merge. Records a skipped stream delivers late
///   (below the emitted watermark) are dropped and counted per stream, so
///   output timestamps stay non-decreasing — the contract the per-second
///   accumulator depends on. `poll(None)` never skips and never drops.
pub struct OnlineMerge {
    /// The not-yet-merged head record of each stream; `None` while waiting.
    heads: Vec<Option<FrameRecord>>,
    /// Streams whose input is complete (no further `offer` accepted).
    ended: Vec<bool>,
    /// Streams temporarily excluded from blocking the merge (wall-clock
    /// stall handling, decided by the caller); rejoin on their next offer.
    deferred: Vec<bool>,
    /// Open, non-deferred streams currently without a head. Cached so the
    /// per-record poll fast path is one counter check, not a k-wide scan.
    needy: usize,
    /// Per-stream clamp floor: the highest (clamped) timestamp offered.
    stream_high: Vec<Micros>,
    /// Dedup clusters in the order they opened: transmission identity and
    /// latest member timestamp. Expired entries are popped off the front
    /// and compacted past [`CLUSTER_COMPACT_LEN`].
    clusters: VecDeque<(TransmissionKey, Micros)>,
    /// Highest timestamp emitted (or suppressed as a duplicate) so far.
    watermark: Micros,
    received: Vec<u64>,
    clamped: Vec<u64>,
    late_dropped: Vec<u64>,
    contributed: Vec<u64>,
}

impl OnlineMerge {
    /// A merge over `k` streams, all initially empty and open.
    pub fn new(k: usize) -> OnlineMerge {
        OnlineMerge {
            heads: vec![None; k],
            ended: vec![false; k],
            deferred: vec![false; k],
            needy: k,
            stream_high: vec![0; k],
            clusters: VecDeque::new(),
            watermark: 0,
            received: vec![0; k],
            clamped: vec![0; k],
            late_dropped: vec![0; k],
            contributed: vec![0; k],
        }
    }

    /// True when stream `idx` is open and has no buffered head — the only
    /// state in which [`OnlineMerge::offer`] is accepted.
    pub fn needs(&self, idx: usize) -> bool {
        !self.ended[idx] && self.heads[idx].is_none()
    }

    /// Feeds stream `idx`'s next record. The caller must only offer when
    /// [`OnlineMerge::needs`] is true. Regressive timestamps are clamped to
    /// the stream's high-water mark (and counted).
    pub fn offer(&mut self, idx: usize, mut record: FrameRecord) {
        assert!(self.needs(idx), "offer to a stream that is not waiting");
        if self.deferred[idx] {
            // The stream produced again: it rejoins the merge (and was not
            // counted needy while deferred).
            self.deferred[idx] = false;
        } else {
            self.needy -= 1;
        }
        self.received[idx] += 1;
        if record.timestamp_us < self.stream_high[idx] {
            record.timestamp_us = self.stream_high[idx];
            self.clamped[idx] += 1;
        } else {
            self.stream_high[idx] = record.timestamp_us;
        }
        self.heads[idx] = Some(record);
    }

    /// Marks stream `idx` complete. Idempotent; a still-buffered head is
    /// merged normally.
    pub fn end(&mut self, idx: usize) {
        if !self.ended[idx] {
            if self.heads[idx].is_none() && !self.deferred[idx] {
                self.needy -= 1;
            }
            self.ended[idx] = true;
            self.deferred[idx] = false;
        }
    }

    /// Temporarily excludes an open, empty stream from blocking the merge —
    /// the caller's wall-clock stall policy for live sources (the trace-time
    /// skew horizon cannot advance past a stream whose last record sits at
    /// the merge frontier, because the candidate timestamp is pinned there
    /// too). The stream rejoins automatically on its next
    /// [`OnlineMerge::offer`]; records below the watermark by then are
    /// dropped and counted as late. Returns whether the stream was deferred
    /// (no-op unless it currently blocks the merge).
    pub fn defer(&mut self, idx: usize) -> bool {
        if self.needs(idx) && !self.deferred[idx] {
            self.deferred[idx] = true;
            self.needy -= 1;
            true
        } else {
            false
        }
    }

    /// True while stream `idx` is deferred (stalled out of the merge).
    pub fn is_deferred(&self, idx: usize) -> bool {
        self.deferred[idx]
    }

    /// Pulls the next merged record. With `horizon: None` this blocks (via
    /// [`MergePoll::Need`]) on every open stream; with `Some(h)` an open,
    /// empty stream is skipped once the candidate record is more than `h` µs
    /// past that stream's high-water mark.
    pub fn poll(&mut self, horizon: Option<Micros>) -> MergePoll {
        loop {
            // The head scan runs once per record taken: in the needy check
            // only when a horizon may skip, otherwise after it.
            let mut next = None;
            if self.needy > 0 {
                for idx in 0..self.heads.len() {
                    if !self.needs(idx) || self.deferred[idx] {
                        continue;
                    }
                    let Some(h) = horizon else {
                        return MergePoll::Need(idx);
                    };
                    // Skip the stream once the candidate is past its horizon.
                    let candidate = *next.get_or_insert_with(|| self.earliest_head());
                    let within =
                        |(ts, _): (Micros, usize)| ts <= self.stream_high[idx].saturating_add(h);
                    if candidate.is_none_or(within) {
                        return MergePoll::Need(idx);
                    }
                }
            }
            let Some((_, idx)) = next.unwrap_or_else(|| self.earliest_head()) else {
                return MergePoll::Done;
            };
            let record = self.heads[idx].take().expect("earliest head exists");
            // A stream with a buffered head is never deferred (`defer`
            // no-ops then), so popping makes it plain needy if still open.
            if !self.ended[idx] {
                self.needy += 1;
            }
            // A stream skipped over by the horizon can deliver records below
            // the emitted watermark; dropping them keeps output timestamps
            // non-decreasing for the per-second accumulator.
            let ts = record.timestamp_us;
            if ts < self.watermark {
                self.late_dropped[idx] += 1;
                continue;
            }
            self.watermark = ts;
            // The batch path's retain + scan. Merged timestamps are
            // non-decreasing, so an expired entry never matches again.
            let live = |last: Micros| ts.saturating_sub(last) <= DEDUP_WINDOW_US;
            while self.clusters.front().is_some_and(|&(_, last)| !live(last)) {
                self.clusters.pop_front();
            }
            let key = TransmissionKey::of(&record);
            if let Some(c) = self.clusters.iter_mut().find(|c| c.0 == key && live(c.1)) {
                c.1 = ts; // a duplicate extends its cluster's anchor
                continue;
            }
            self.clusters.push_back((key, ts));
            if self.clusters.len() > CLUSTER_COMPACT_LEN {
                self.clusters.retain(|&(_, last)| live(last));
            }
            self.contributed[idx] += 1;
            return MergePoll::Record(record);
        }
    }

    /// The earliest buffered head as `(timestamp, stream index)`. Ties go
    /// to the lowest index, the order of a stable sort of the concatenation.
    fn earliest_head(&self) -> Option<(Micros, usize)> {
        let head = |(i, h): (usize, &Option<FrameRecord>)| Some((h.as_ref()?.timestamp_us, i));
        self.heads.iter().enumerate().filter_map(head).min()
    }

    /// Highest timestamp merged so far (emitted or suppressed).
    pub fn watermark(&self) -> Micros {
        self.watermark
    }

    /// How far each stream's newest input lags the merge watermark, in µs.
    /// Zero for a stream that is at (or ahead of) the merge frontier.
    pub fn lag_us(&self, idx: usize) -> Micros {
        self.watermark.saturating_sub(self.stream_high[idx])
    }

    /// Records accepted from each stream, indexed by input order.
    pub fn received(&self) -> &[u64] {
        &self.received
    }

    /// Regressive timestamps clamped per stream, indexed by input order.
    pub fn clamped(&self) -> &[u64] {
        &self.clamped
    }

    /// Records dropped per stream for arriving below the watermark after a
    /// horizon skip, indexed by input order.
    pub fn late_dropped(&self) -> &[u64] {
        &self.late_dropped
    }

    /// How many merged records each input stream was the first to capture,
    /// indexed by input order.
    pub fn contributed(&self) -> &[u64] {
        &self.contributed
    }

    #[cfg(test)]
    fn live_clusters(&self) -> usize {
        self.clusters.len()
    }
}

/// Online k-way merge of per-sniffer record streams with streaming
/// deduplication — [`merge_traces`] without materializing anything.
///
/// A pull-based driver over [`OnlineMerge`]: each [`MergePoll::Need`] is
/// answered by advancing that input iterator, so memory stays O(k + live
/// dedup clusters) regardless of trace length. Deduplication applies the
/// same [`DEDUP_WINDOW_US`] cluster logic as the batch path over a window
/// of `(transmission identity, latest member timestamp)` entries instead of
/// emitted records. The window can never hold two live clusters with the
/// same identity (a record matching a live cluster always extends it rather
/// than opening a second one), so a record is a duplicate exactly when the
/// scan finds a live entry with its identity. For time-ordered inputs (as
/// captures are) the output is record-for-record identical to
/// `merge_traces(traces)`: taking the earliest head, ties to the lowest
/// stream index, reproduces a stable sort of the concatenated traces.
/// Inputs with in-stream clock regressions are normalized by the per-stream
/// clamp rather than rejected.
///
/// ```
/// use congestion::merge::MergeStream;
/// # let (a, b): (Vec<wifi_frames::FrameRecord>, Vec<wifi_frames::FrameRecord>) =
/// #     (Vec::new(), Vec::new());
/// let merged = MergeStream::new(vec![a.into_iter(), b.into_iter()]);
/// for record in merged {
///     // feed an accumulator without ever holding the full trace
///     let _ = record.timestamp_us;
/// }
/// ```
pub struct MergeStream<I> {
    streams: Vec<I>,
    core: OnlineMerge,
}

impl<I: Iterator<Item = FrameRecord>> MergeStream<I> {
    /// Builds a merge over per-sniffer streams. Each stream should yield
    /// records in non-decreasing timestamp order; records whose timestamp
    /// steps backwards within a stream are clamped to that stream's
    /// high-water mark (see [`OnlineMerge`]).
    pub fn new(streams: Vec<I>) -> MergeStream<I> {
        let core = OnlineMerge::new(streams.len());
        MergeStream { streams, core }
    }

    /// How many merged records each input stream was the first to capture,
    /// indexed by input order. Complete once the stream is exhausted.
    pub fn contributed(&self) -> &[u64] {
        self.core.contributed()
    }
}

impl<I: Iterator<Item = FrameRecord>> Iterator for MergeStream<I> {
    type Item = FrameRecord;

    fn next(&mut self) -> Option<FrameRecord> {
        loop {
            match self.core.poll(None) {
                MergePoll::Record(record) => return Some(record),
                MergePoll::Need(idx) => match self.streams[idx].next() {
                    Some(record) => self.core.offer(idx, record),
                    None => self.core.end(idx),
                },
                MergePoll::Done => return None,
            }
        }
    }
}

/// Coverage statistics from merging per-sniffer traces of one channel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoverageGain {
    /// Records in the merged, de-duplicated trace.
    pub merged: usize,
    /// Records in the largest single input trace.
    pub best_single: usize,
    /// Records each sniffer was the first to capture — its unique
    /// contribution to the merged trace — indexed by input order.
    /// Sums to `merged`.
    pub contributed: Vec<u64>,
}

/// Coverage gained by merging, computed through [`MergeStream`] in
/// O(window) memory. A merged trace can only add frames.
pub fn coverage_gain(traces: &[&[FrameRecord]]) -> CoverageGain {
    let mut stream = MergeStream::new(traces.iter().map(|t| t.iter().copied()).collect());
    let mut merged = 0usize;
    while stream.next().is_some() {
        merged += 1;
    }
    CoverageGain {
        merged,
        best_single: traces.iter().map(|t| t.len()).max().unwrap_or(0),
        contributed: stream.contributed().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_frames::fc::FrameKind;
    use wifi_frames::mac::MacAddr;
    use wifi_frames::phy::{Channel, Rate};

    fn rec(ts: Micros, src: u32, seq: u16) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind: FrameKind::Data,
            rate: Rate::R11,
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(MacAddr::from_id(src)),
            bssid: Some(MacAddr::from_id(99)),
            retry: false,
            seq: Some(seq),
            mac_bytes: 128,
            payload_bytes: 100,
            signal_dbm: -60,
            duration_us: 314,
        }
    }

    #[test]
    fn identical_traces_collapse_to_one() {
        let t: Vec<FrameRecord> = (0..50).map(|i| rec(i * 1000, 1, i as u16)).collect();
        let merged = merge_traces(&[&t, &t, &t]);
        assert_eq!(merged.len(), t.len());
        assert_eq!(merged, t);
    }

    #[test]
    fn complementary_losses_are_recovered() {
        let full: Vec<FrameRecord> = (0..100).map(|i| rec(i * 1000, 1, i as u16)).collect();
        // Sniffer A misses odd frames, sniffer B misses even frames.
        let a: Vec<FrameRecord> = full.iter().copied().step_by(2).collect();
        let b: Vec<FrameRecord> = full.iter().copied().skip(1).step_by(2).collect();
        let merged = merge_traces(&[&a, &b]);
        assert_eq!(merged.len(), 100);
        assert_eq!(merged, full);
        let gain = coverage_gain(&[&a, &b]);
        assert_eq!(gain.merged, 100);
        assert_eq!(gain.best_single, 50);
        assert_eq!(gain.contributed, vec![50, 50]);
    }

    #[test]
    fn timestamp_jitter_still_deduplicates() {
        let a = vec![rec(1000, 1, 7)];
        let mut shifted = rec(1000 + 80, 1, 7); // 80 µs skew
        shifted.signal_dbm = -70; // different vantage, different RSSI
        let b = vec![shifted];
        let merged = merge_traces(&[&a, &b]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].timestamp_us, 1000, "earliest capture wins");
    }

    #[test]
    fn three_skewed_sniffers_chain_collapses_to_one() {
        // Regression: A@0, B@100, C@200 with a 120 µs window. C is within
        // the window of (suppressed) B but not of (emitted) A; a window
        // anchored only on emitted records leaks C as a false new frame.
        let a = vec![rec(0, 1, 7)];
        let b = vec![rec(100, 1, 7)];
        let c = vec![rec(200, 1, 7)];
        let merged = merge_traces(&[&a, &b, &c]);
        assert_eq!(merged.len(), 1, "transitive chain must fully collapse");
        assert_eq!(merged[0].timestamp_us, 0, "earliest capture wins");
    }

    #[test]
    fn chain_does_not_swallow_distant_retransmission_lookalike() {
        // A chain may extend, but an identical frame arriving past the
        // window of the chain's *latest* member is a new transmission.
        let a = vec![rec(0, 1, 7)];
        let b = vec![rec(100, 1, 7)];
        let late = vec![rec(100 + DEDUP_WINDOW_US + 1, 1, 7)];
        assert_eq!(merge_traces(&[&a, &b, &late]).len(), 2);
    }

    #[test]
    fn beyond_window_is_not_a_duplicate() {
        let a = vec![rec(1000, 1, 7)];
        let b = vec![rec(1000 + DEDUP_WINDOW_US + 1, 1, 7)];
        assert_eq!(merge_traces(&[&a, &b]).len(), 2);
    }

    #[test]
    fn retransmission_with_same_seq_is_kept() {
        // Same (src, seq) but retry=true and later: a genuine retransmission.
        let first = rec(1000, 1, 7);
        let mut retry = rec(1090, 1, 7);
        retry.retry = true;
        let merged = merge_traces(&[&[first][..], &[retry][..]]);
        assert_eq!(merged.len(), 2, "retry flag distinguishes retransmissions");
    }

    #[test]
    fn distinct_stations_same_seq_are_kept() {
        let a = vec![rec(1000, 1, 7)];
        let b = vec![rec(1010, 2, 7)];
        assert_eq!(merge_traces(&[&a, &b]).len(), 2);
    }

    #[test]
    fn control_frames_dedup_without_seq() {
        let mk = |ts: Micros| -> FrameRecord {
            let mut r = rec(ts, 1, 0);
            r.kind = FrameKind::Ack;
            r.src = None;
            r.seq = None;
            r.mac_bytes = 14;
            r.payload_bytes = 0;
            r
        };
        let a = vec![mk(500)];
        let b = vec![mk(540)];
        assert_eq!(merge_traces(&[&a, &b]).len(), 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_traces(&[]).is_empty());
        let empty: &[FrameRecord] = &[];
        assert!(merge_traces(&[empty, empty]).is_empty());
        assert!(stream_merge(&[empty, empty]).is_empty());
        assert_eq!(coverage_gain(&[]).merged, 0);
    }

    /// Runs the streaming merge over slice-backed iterators.
    fn stream_merge(traces: &[&[FrameRecord]]) -> Vec<FrameRecord> {
        MergeStream::new(traces.iter().map(|t| t.iter().copied()).collect()).collect()
    }

    #[test]
    fn stream_merge_matches_batch_on_every_dedup_contract_case() {
        let full: Vec<FrameRecord> = (0..100).map(|i| rec(i * 1000, 1, i as u16)).collect();
        let evens: Vec<FrameRecord> = full.iter().copied().step_by(2).collect();
        let odds: Vec<FrameRecord> = full.iter().copied().skip(1).step_by(2).collect();
        let mut jittered = rec(1000 + 80, 1, 7);
        jittered.signal_dbm = -70;
        let mut retry = rec(1090, 1, 7);
        retry.retry = true;
        let ack = |ts: Micros| -> FrameRecord {
            let mut r = rec(ts, 1, 0);
            r.kind = FrameKind::Ack;
            r.src = None;
            r.seq = None;
            r.mac_bytes = 14;
            r.payload_bytes = 0;
            r
        };
        let cases: Vec<Vec<Vec<FrameRecord>>> = vec![
            vec![full.clone(), full.clone(), full.clone()],
            vec![evens, odds],
            vec![vec![rec(1000, 1, 7)], vec![jittered]],
            vec![
                vec![rec(0, 1, 7)],
                vec![rec(100, 1, 7)],
                vec![rec(200, 1, 7)],
            ],
            vec![
                vec![rec(0, 1, 7)],
                vec![rec(100, 1, 7)],
                vec![rec(100 + DEDUP_WINDOW_US + 1, 1, 7)],
            ],
            vec![
                vec![rec(1000, 1, 7)],
                vec![rec(1000 + DEDUP_WINDOW_US + 1, 1, 7)],
            ],
            vec![vec![rec(1000, 1, 7)], vec![retry]],
            vec![vec![rec(1000, 1, 7)], vec![rec(1010, 2, 7)]],
            vec![vec![ack(500)], vec![ack(540)]],
        ];
        for (i, case) in cases.iter().enumerate() {
            let views: Vec<&[FrameRecord]> = case.iter().map(|t| &t[..]).collect();
            assert_eq!(
                stream_merge(&views),
                merge_traces(&views),
                "case {i}: streaming merge must be record-identical to batch"
            );
        }
    }

    #[test]
    fn stream_contributions_sum_to_merged_and_favor_earliest_capture() {
        // Identical traces: stream 0 wins every timestamp tie.
        let t: Vec<FrameRecord> = (0..50).map(|i| rec(i * 1000, 1, i as u16)).collect();
        let mut s = MergeStream::new(vec![
            t.iter().copied(),
            t.iter().copied(),
            t.iter().copied(),
        ]);
        assert_eq!(s.by_ref().count(), 50);
        assert_eq!(s.contributed(), &[50, 0, 0]);

        // Skewed duplicates: the sniffer whose clock stamps earliest wins.
        let a = vec![rec(1050, 1, 7)];
        let b = vec![rec(1000, 1, 7)];
        let mut s = MergeStream::new(vec![a.into_iter(), b.into_iter()]);
        let merged: Vec<FrameRecord> = s.by_ref().collect();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].timestamp_us, 1000);
        assert_eq!(s.contributed(), &[0, 1]);
    }

    #[test]
    fn stream_equal_timestamps_preserve_stream_order() {
        // Distinct frames at the same microsecond: stable-sort order is
        // concatenation order (stream 0 before stream 1).
        let a = vec![rec(1000, 1, 1)];
        let b = vec![rec(1000, 2, 2)];
        let views: Vec<&[FrameRecord]> = vec![&a, &b];
        let merged = stream_merge(&views);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].src, Some(MacAddr::from_id(1)));
        assert_eq!(merged, merge_traces(&views));
    }

    /// Distinct identities among `sorted`'s records in the dedup window
    /// that ends at `watermark`: an upper bound on the merge's live
    /// clusters once it has merged up to `watermark`.
    fn identities_in_window(sorted: &[FrameRecord], watermark: Micros) -> usize {
        let lo = sorted.partition_point(|r| r.timestamp_us + DEDUP_WINDOW_US < watermark);
        let hi = sorted.partition_point(|r| r.timestamp_us <= watermark);
        let mut keys: Vec<TransmissionKey> = Vec::new();
        for r in &sorted[lo..hi] {
            let key = TransmissionKey::of(r);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.len()
    }

    /// Streams the merge of time-ordered `traces`, asserting after every
    /// emitted record that the dedup window holds at most
    /// [`CLUSTER_COMPACT_LEN`] entries beyond the live set. Returns the
    /// merged records and the most entries the window ever held.
    fn merge_checking_window(traces: &[&[FrameRecord]]) -> (Vec<FrameRecord>, usize) {
        let mut sorted: Vec<FrameRecord> = traces.iter().flat_map(|t| t.iter().copied()).collect();
        sorted.sort_by_key(|r| r.timestamp_us);
        let mut s = MergeStream::new(traces.iter().map(|t| t.iter().copied()).collect());
        let mut merged = Vec::new();
        let mut most = 0;
        while let Some(r) = s.next() {
            merged.push(r);
            let live = identities_in_window(&sorted, s.core.watermark());
            let held = s.core.live_clusters();
            assert!(
                held <= CLUSTER_COMPACT_LEN + live,
                "dedup window leaked: {held} entries for {live} live identities"
            );
            most = most.max(held);
        }
        (merged, most)
    }

    #[test]
    fn stream_dedup_window_stays_bounded() {
        // One identity re-captured every 100 µs for the whole trace keeps
        // the front cluster alive, while a distinct identity between each
        // pair of captures expires behind it: without compaction the window
        // would grow with trace length.
        let n = 20 * CLUSTER_COMPACT_LEN as u64;
        let chain: Vec<FrameRecord> = (0..n).map(|i| rec(i * 100, 1, 7)).collect();
        let others: Vec<FrameRecord> = (0..n)
            .map(|i| rec(i * 100 + 50, 2, (i % 4096) as u16))
            .collect();
        let (merged, most) = merge_checking_window(&[&chain, &others]);
        assert_eq!(merged.len() as u64, 1 + n, "one chain plus every other");
        assert_eq!(merged, merge_traces(&[&chain, &others]));
        assert_eq!(
            most, CLUSTER_COMPACT_LEN,
            "the window never reached the bound"
        );
    }

    proptest::proptest! {
        #[test]
        fn duplicate_chains_keep_the_window_bounded(
            gaps in proptest::collection::vec(1..DEDUP_WINDOW_US, 50..300),
            chain_sniffers in proptest::collection::vec(0usize..3, 1..20),
            others in proptest::collection::vec((0u64..1 << 20, 0usize..3), 0..300),
        ) {
            // A chain of one identity, each capture < 120 µs after the
            // last, spread over three sniffers; distinct identities land
            // anywhere along it and expire behind its live front cluster.
            let mut views: Vec<Vec<FrameRecord>> = vec![Vec::new(); 3];
            let mut ts = 0;
            for (i, gap) in gaps.iter().enumerate() {
                ts += gap;
                views[chain_sniffers[i % chain_sniffers.len()]].push(rec(ts, 1, 7));
            }
            for (j, &(at, sniffer)) in others.iter().enumerate() {
                views[sniffer].push(rec(at % ts, 2 + j as u32 % 5, j as u16));
            }
            for v in &mut views {
                v.sort_by_key(|r| r.timestamp_us);
            }
            let views: Vec<&[FrameRecord]> = views.iter().map(Vec::as_slice).collect();
            let (merged, _) = merge_checking_window(&views);
            proptest::prop_assert_eq!(merged, merge_traces(&views));
        }
    }

    #[test]
    fn regressive_clock_cannot_resurrect_a_suppressed_duplicate() {
        // One sniffer's clock steps backwards mid-stream: 1050 → 100. The
        // unclamped dedup would move the cluster anchor back to 100, letting
        // the true duplicate at 1080 re-emit as a false new frame.
        let a = vec![rec(1000, 1, 7)];
        let b = vec![rec(1050, 1, 7), rec(100, 1, 7), rec(1080, 1, 7)];
        let merged = stream_merge(&[&a, &b]);
        assert_eq!(
            merged.len(),
            1,
            "regression must not resurrect duplicates: got {merged:?}"
        );
        assert_eq!(merged[0].timestamp_us, 1000, "earliest capture wins");
    }

    #[test]
    fn regressive_timestamps_are_clamped_to_nondecreasing_output() {
        // Distinct frames with a clock step backwards: output order and
        // timestamps must stay non-decreasing (the accumulator contract).
        let b = vec![rec(5000, 1, 1), rec(200, 1, 2), rec(5100, 1, 3)];
        let merged = stream_merge(&[&b]);
        assert_eq!(merged.len(), 3);
        assert!(merged
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
        assert_eq!(
            merged[1].timestamp_us, 5000,
            "regressive ts clamps to the stream high"
        );
    }

    #[test]
    fn online_merge_blocks_without_horizon_and_skips_with_one() {
        let mut m = OnlineMerge::new(2);
        assert!(matches!(m.poll(None), MergePoll::Need(0)));
        m.offer(0, rec(10_000, 1, 1));
        // Stream 1 has nothing: no horizon → merge must wait on it.
        assert!(matches!(m.poll(None), MergePoll::Need(1)));
        // Candidate (10 000) is within the horizon of stream 1's high (0):
        // still waiting.
        assert!(matches!(m.poll(Some(50_000)), MergePoll::Need(1)));
        // Past the horizon: the merge advances without stream 1.
        assert_eq!(m.poll(Some(5_000)), MergePoll::Record(rec(10_000, 1, 1)));
        assert_eq!(m.lag_us(1), 10_000);
        // The skipped stream now delivers a record below the watermark: it
        // is dropped (counted), not emitted out of order.
        m.offer(1, rec(2_000, 2, 2));
        m.end(0);
        m.end(1);
        assert_eq!(m.poll(Some(5_000)), MergePoll::Done);
        assert_eq!(m.late_dropped(), &[0, 1]);
        assert_eq!(m.received(), &[1, 1]);
        assert_eq!(m.contributed(), &[1, 0]);
    }

    #[test]
    fn online_merge_end_with_buffered_head_still_merges_it() {
        let mut m = OnlineMerge::new(1);
        m.offer(0, rec(1000, 1, 1));
        m.end(0);
        assert_eq!(m.poll(None), MergePoll::Record(rec(1000, 1, 1)));
        assert_eq!(m.poll(None), MergePoll::Done);
        assert_eq!(m.watermark(), 1000);
    }

    #[test]
    fn deferred_stream_stops_blocking_and_rejoins_on_offer() {
        let mut m = OnlineMerge::new(2);
        m.offer(0, rec(1000, 1, 1));
        // Stream 1 has nothing and blocks the merge…
        assert_eq!(m.poll(None), MergePoll::Need(1));
        // …until the caller's stall policy defers it.
        assert!(m.defer(1));
        assert!(m.is_deferred(1));
        assert_eq!(m.poll(None), MergePoll::Record(rec(1000, 1, 1)));
        assert_eq!(m.poll(None), MergePoll::Need(0));
        m.offer(0, rec(2000, 1, 2));
        assert_eq!(m.poll(None), MergePoll::Record(rec(2000, 1, 2)));

        // The stalled stream resumes: it rejoins on its next offer. Its
        // record from before the watermark is dropped and counted late; the
        // one after merges normally.
        m.offer(1, rec(500, 2, 1));
        assert!(!m.is_deferred(1));
        m.end(0);
        assert_eq!(m.poll(None), MergePoll::Need(1));
        m.offer(1, rec(3000, 2, 2));
        assert_eq!(m.poll(None), MergePoll::Record(rec(3000, 2, 2)));
        m.end(1);
        assert_eq!(m.poll(None), MergePoll::Done);
        assert_eq!(m.late_dropped(), &[0, 1]);
        assert_eq!(m.contributed(), &[2, 1]);
    }

    #[test]
    fn defer_noops_on_streams_that_do_not_block() {
        let mut m = OnlineMerge::new(2);
        m.offer(0, rec(1000, 1, 1));
        assert!(!m.defer(0), "a stream with a buffered head never defers");
        m.end(1);
        assert!(!m.defer(1), "an ended stream never defers");
        // All open streams deferred + nothing buffered reports Done, but a
        // deferred stream may still rejoin afterwards.
        assert_eq!(m.poll(None), MergePoll::Record(rec(1000, 1, 1)));
        assert!(m.defer(0));
        assert_eq!(m.poll(None), MergePoll::Done);
        m.offer(0, rec(2000, 1, 2));
        assert_eq!(m.poll(None), MergePoll::Record(rec(2000, 1, 2)));
        m.end(0);
        assert_eq!(m.poll(None), MergePoll::Done);
    }

    #[test]
    fn coverage_gain_is_o_window_equivalent_to_batch() {
        let full: Vec<FrameRecord> = (0..300).map(|i| rec(i * 500, 1, i as u16)).collect();
        let a: Vec<FrameRecord> = full
            .iter()
            .copied()
            .filter(|r| r.seq.unwrap() % 3 != 0)
            .collect();
        let b: Vec<FrameRecord> = full
            .iter()
            .copied()
            .filter(|r| r.seq.unwrap() % 3 != 1)
            .collect();
        let c: Vec<FrameRecord> = full
            .iter()
            .copied()
            .filter(|r| r.seq.unwrap() % 3 != 2)
            .collect();
        let views: Vec<&[FrameRecord]> = vec![&a, &b, &c];
        let gain = coverage_gain(&views);
        assert_eq!(gain.merged, merge_traces(&views).len());
        assert_eq!(gain.best_single, 200);
        assert_eq!(gain.contributed.iter().sum::<u64>() as usize, gain.merged);
    }
}
