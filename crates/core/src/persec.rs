//! Single-pass, per-second trace analysis.
//!
//! [`analyze`] walks a captured trace once and produces one [`SecondStats`]
//! per second, carrying every aggregate the paper's figures need:
//! utilization (Fig 5), throughput/goodput (Fig 6), RTS/CTS counts (Fig 7),
//! per-rate busy time and bytes (Figs 8–9), per-category transmission counts
//! (Figs 10–13), first-attempt acknowledgments (Fig 14) and acceptance
//! delays (Fig 15).
//!
//! ## ACK matching
//!
//! A data frame is *successfully acknowledged* when the next captured frame
//! is an ACK addressed to the data frame's transmitter and arrives within
//! one SIFS + ACK air time (plus a small guard) — the DATA→ACK atomicity of
//! the DCF (Section 4.4 and 6.4 of the paper).
//!
//! ## Acceptance delay
//!
//! The delay of an acknowledged frame is measured from the *first* observed
//! transmission attempt of its `(transmitter, sequence)` pair to the ACK
//! (Section 6.5: "independent of the number of attempts").

use crate::busy_time::cbt_us;
use crate::categories::Category;
use std::collections::HashMap;
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::{delay, Micros, SECOND};

/// Maximum gap between a data frame's capture and its ACK's capture for the
/// pair to count as atomic: SIFS + ACK air time + guard.
pub const ACK_MATCH_WINDOW_US: Micros = delay::SIFS + delay::ACK + 150;

/// How long a pending first-transmission record is remembered before being
/// evicted (bounds memory; far beyond any plausible acceptance delay).
const FIRST_TX_TTL_US: Micros = 2 * SECOND;

/// A delay aggregate: sum and count, for averaging.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DelayAgg {
    /// Sum of delays, microseconds.
    pub total_us: u64,
    /// Number of samples.
    pub count: u64,
}

impl DelayAgg {
    /// Adds one sample.
    pub fn add(&mut self, us: u64) {
        self.total_us += us;
        self.count += 1;
    }

    /// Mean in seconds, `None` when empty.
    pub fn mean_seconds(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.total_us as f64 / self.count as f64 / 1e6)
        }
    }

    /// Merges another aggregate.
    pub fn merge(&mut self, other: &DelayAgg) {
        self.total_us += other.total_us;
        self.count += other.count;
    }
}

/// Everything the figures need, for one second of trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SecondStats {
    /// The second (trace timestamp / 10⁶).
    pub second: u64,
    /// `CBT_TOTAL(t)` in microseconds (Equation 7).
    pub busy_us: u64,
    /// Frames captured this second.
    pub frames: u64,
    /// RTS frames.
    pub rts: u64,
    /// CTS frames.
    pub cts: u64,
    /// ACK frames.
    pub ack: u64,
    /// Beacons.
    pub beacon: u64,
    /// Data frames (including retries).
    pub data: u64,
    /// Data frames with the retry bit set (retransmissions).
    pub retries: u64,
    /// Management frames other than beacons.
    pub mgmt: u64,
    /// Bits of all frames (the paper's throughput numerator).
    pub throughput_bits: u64,
    /// Bits of control/management frames plus acknowledged data frames (the
    /// paper's goodput numerator).
    pub goodput_bits: u64,
    /// Air time of data frames by rate index (Fig 8), µs.
    pub busy_by_rate_us: [u64; 4],
    /// Bytes of data frames by rate index (Fig 9).
    pub bytes_by_rate: [u64; 4],
    /// Data frames by `[size class][rate]` (Figs 10–13).
    pub tx_by_cat: [[u64; 4]; 4],
    /// Data frames acknowledged at their first attempt, by rate (Fig 14).
    pub first_ack_by_rate: [u64; 4],
    /// All acknowledged data frames.
    pub acked_data: u64,
    /// Acceptance delay aggregates by `[size class][rate]` (Fig 15).
    pub acc_delay: [[DelayAgg; 4]; 4],
}

impl SecondStats {
    fn new(second: u64) -> SecondStats {
        SecondStats {
            second,
            busy_us: 0,
            frames: 0,
            rts: 0,
            cts: 0,
            ack: 0,
            beacon: 0,
            data: 0,
            retries: 0,
            mgmt: 0,
            throughput_bits: 0,
            goodput_bits: 0,
            busy_by_rate_us: [0; 4],
            bytes_by_rate: [0; 4],
            tx_by_cat: [[0; 4]; 4],
            first_ack_by_rate: [0; 4],
            acked_data: 0,
            acc_delay: [[DelayAgg::default(); 4]; 4],
        }
    }

    /// Utilization percentage `U(t)` (Equation 8).
    pub fn utilization_pct(&self) -> f64 {
        self.busy_us as f64 / SECOND as f64 * 100.0
    }

    /// Throughput in Mbps over this second.
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bits as f64 / 1e6
    }

    /// Goodput in Mbps over this second.
    pub fn goodput_mbps(&self) -> f64 {
        self.goodput_bits as f64 / 1e6
    }
}

/// Incremental per-second analysis: feed [`FrameRecord`]s as they are
/// captured, read the same statistics [`analyze`] produces.
///
/// ACK matching needs one frame of lookahead (DATA→ACK adjacency), so the
/// accumulator holds exactly one pending record and folds it when its
/// successor arrives; [`SecondAccumulator::finish`] folds the last record
/// with no successor. State is O(lookback window + seconds emitted) — a
/// streaming run never buffers the trace.
#[derive(Debug, Default)]
pub struct SecondAccumulator {
    out: Vec<SecondStats>,
    /// `(transmitter, seq)`, packed by [`first_tx_key`] → first
    /// transmission-attempt timestamp.
    first_tx: HashMap<u64, Micros>,
    last_evict: Micros,
    /// The record awaiting its successor (for ACK adjacency).
    pending: Option<FrameRecord>,
}

impl SecondAccumulator {
    /// An empty accumulator.
    pub fn new() -> SecondAccumulator {
        SecondAccumulator::default()
    }

    /// Feeds the next captured record. Records must arrive in trace
    /// (timestamp) order, exactly as a sniffer captures them.
    pub fn push(&mut self, r: FrameRecord) {
        if let Some(prev) = self.pending.take() {
            self.fold(&prev, Some(&r));
        }
        self.pending = Some(r);
    }

    /// The seconds fully folded so far (the pending record's contribution
    /// is not yet visible).
    pub fn seconds(&self) -> &[SecondStats] {
        &self.out
    }

    /// Folds the last pending record and returns the completed statistics.
    pub fn finish(mut self) -> Vec<SecondStats> {
        if let Some(prev) = self.pending.take() {
            self.fold(&prev, None);
        }
        self.out
    }

    /// Index of `sec`'s stats entry, filling gaps so quiet seconds exist
    /// with zero stats.
    fn get_second(&mut self, sec: u64) -> usize {
        if let Some(last) = self.out.last() {
            if last.second == sec {
                return self.out.len() - 1;
            }
            let mut next = last.second + 1;
            while next <= sec {
                self.out.push(SecondStats::new(next));
                next += 1;
            }
            self.out.len() - 1
        } else {
            self.out.push(SecondStats::new(sec));
            0
        }
    }

    /// Accounts one record, with its successor (when one exists) for ACK
    /// adjacency — the loop body of the original batch `analyze`.
    fn fold(&mut self, r: &FrameRecord, next: Option<&FrameRecord>) {
        let idx = self.get_second(r.second());
        let s = &mut self.out[idx];
        s.frames += 1;
        s.busy_us += cbt_us(r);
        s.throughput_bits += 8 * r.mac_bytes as u64;
        match r.kind {
            FrameKind::Rts => {
                s.rts += 1;
                s.goodput_bits += 8 * r.mac_bytes as u64;
            }
            FrameKind::Cts => {
                s.cts += 1;
                s.goodput_bits += 8 * r.mac_bytes as u64;
            }
            FrameKind::Ack => {
                s.ack += 1;
                s.goodput_bits += 8 * r.mac_bytes as u64;
            }
            FrameKind::Beacon => {
                s.beacon += 1;
                s.goodput_bits += 8 * r.mac_bytes as u64;
            }
            FrameKind::Data | FrameKind::NullData => {
                s.data += 1;
                s.retries += r.retry as u64;
                let cat = Category::of(r);
                let (si, ri) = cat.indices();
                s.tx_by_cat[si][ri] += 1;
                s.busy_by_rate_us[ri] += cbt_us(r);
                s.bytes_by_rate[ri] += r.mac_bytes as u64;

                // Track the first attempt for acceptance delay.
                let key = r.src.map(|src| first_tx_key(src, r.seq.unwrap_or(0)));
                if let Some(key) = key {
                    self.first_tx.entry(key).or_insert(r.timestamp_us);
                }

                // DATA→ACK atomicity: is the next frame our ACK?
                let acked = next.is_some_and(|n| {
                    n.kind == FrameKind::Ack
                        && Some(n.dst) == r.src
                        && n.timestamp_us >= r.timestamp_us
                        && n.timestamp_us - r.timestamp_us <= ACK_MATCH_WINDOW_US
                });
                if acked {
                    let s = &mut self.out[idx];
                    s.acked_data += 1;
                    s.goodput_bits += 8 * r.mac_bytes as u64;
                    if !r.retry {
                        s.first_ack_by_rate[ri] += 1;
                    }
                    // Acceptance delay from the first attempt.
                    let ack_ts = next.unwrap().timestamp_us;
                    if let Some(key) = key {
                        let first = self.first_tx.remove(&key).unwrap_or(r.timestamp_us);
                        self.out[idx].acc_delay[si][ri].add(ack_ts.saturating_sub(first));
                    }
                }
            }
            _ => {
                s.mgmt += 1;
                s.goodput_bits += 8 * r.mac_bytes as u64;
            }
        }

        // Periodic eviction keeps the first-tx map bounded on long traces.
        if r.timestamp_us.saturating_sub(self.last_evict) > FIRST_TX_TTL_US {
            let cutoff = r.timestamp_us - FIRST_TX_TTL_US;
            self.first_tx.retain(|_, t| *t >= cutoff);
            self.last_evict = r.timestamp_us;
        }
    }
}

/// Packs a `(transmitter, seq)` pair into one word, `MAC << 16 | seq`:
/// 48 + 16 bits, so distinct pairs never share a key.
fn first_tx_key(src: MacAddr, seq: u16) -> u64 {
    let [a, b, c, d, e, f] = src.0;
    u64::from_be_bytes([a, b, c, d, e, f, 0, 0]) | seq as u64
}

/// Walks a time-ordered trace and produces per-second statistics.
///
/// Seconds with no captured frames are still emitted (all-zero), so a quiet
/// channel reads as 0 % utilization rather than a gap. Thin wrapper over
/// [`SecondAccumulator`]; streaming callers use the accumulator directly.
pub fn analyze(records: &[FrameRecord]) -> Vec<SecondStats> {
    let mut acc = SecondAccumulator::new();
    for r in records {
        acc.push(*r);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_frames::phy::{Channel, Rate};

    fn base(kind: FrameKind, ts: Micros) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind,
            rate: Rate::R11,
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(1),
            src: Some(MacAddr::from_id(2)),
            bssid: None,
            retry: false,
            seq: Some(0),
            mac_bytes: 14,
            payload_bytes: 0,
            signal_dbm: -55,
            duration_us: 0,
        }
    }

    fn data(ts: Micros, src: u32, seq: u16, payload: u32, rate: Rate, retry: bool) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind: FrameKind::Data,
            rate,
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(MacAddr::from_id(src)),
            bssid: Some(MacAddr::from_id(99)),
            retry,
            seq: Some(seq),
            mac_bytes: payload + 28,
            payload_bytes: payload,
            signal_dbm: -55,
            duration_us: 314,
        }
    }

    fn ack(ts: Micros, to: u32) -> FrameRecord {
        FrameRecord {
            dst: MacAddr::from_id(to),
            src: None,
            ..base(FrameKind::Ack, ts)
        }
    }

    #[test]
    fn counts_by_kind() {
        let recs = vec![
            base(FrameKind::Rts, 0),
            base(FrameKind::Cts, 100),
            data(200, 2, 0, 100, Rate::R11, false),
            ack(600, 2),
            base(FrameKind::Beacon, 700),
            base(FrameKind::ProbeRequest, 800),
        ];
        let stats = analyze(&recs);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.frames, 6);
        assert_eq!(
            (s.rts, s.cts, s.ack, s.beacon, s.data, s.mgmt),
            (1, 1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn ack_matching_requires_adjacency_and_address() {
        // Data from sta 2, but ACK addressed to sta 3: no match.
        let recs = vec![data(0, 2, 0, 100, Rate::R11, false), ack(400, 3)];
        assert_eq!(analyze(&recs)[0].acked_data, 0);
        // Correct address: match.
        let recs = vec![data(0, 2, 0, 100, Rate::R11, false), ack(400, 2)];
        assert_eq!(analyze(&recs)[0].acked_data, 1);
        // Intervening frame breaks atomicity.
        let recs = vec![
            data(0, 2, 0, 100, Rate::R11, false),
            base(FrameKind::Beacon, 200),
            ack(400, 2),
        ];
        assert_eq!(analyze(&recs)[0].acked_data, 0);
        // ACK too late: no match.
        let recs = vec![data(0, 2, 0, 100, Rate::R11, false), ack(5_000, 2)];
        assert_eq!(analyze(&recs)[0].acked_data, 0);
    }

    #[test]
    fn first_attempt_ack_excludes_retries() {
        let recs = vec![
            data(0, 2, 7, 100, Rate::R11, true), // a retry that got acked
            ack(400, 2),
        ];
        let s = &analyze(&recs)[0];
        assert_eq!(s.acked_data, 1);
        assert_eq!(s.first_ack_by_rate.iter().sum::<u64>(), 0);
    }

    #[test]
    fn acceptance_delay_measured_from_first_attempt() {
        let recs = vec![
            data(0, 2, 7, 100, Rate::R11, false), // first attempt, not acked
            data(10_000, 2, 7, 100, Rate::R11, true), // retry
            ack(10_400, 2),
        ];
        let s = &analyze(&recs)[0];
        // Category of the acked frame: S (128 B) at 11 Mbps.
        let agg = s.acc_delay[0][3];
        assert_eq!(agg.count, 1);
        assert_eq!(agg.total_us, 10_400);
    }

    #[test]
    fn first_attempts_are_keyed_per_transmitter() {
        // Stations 2 and 3 differ only in their last MAC byte and send the
        // same sequence number; station 2 needs a retry. Each delay runs
        // from that station's own first attempt.
        assert_eq!(MacAddr::from_id(2).0[..5], MacAddr::from_id(3).0[..5]);
        let recs = vec![
            data(0, 2, 7, 100, Rate::R11, false), // station 2, not acked
            data(1_000, 3, 7, 100, Rate::R1, false),
            ack(1_400, 3),
            data(10_000, 2, 7, 100, Rate::R11, true), // station 2's retry
            ack(10_400, 2),
        ];
        let s = &analyze(&recs)[0];
        // Category S (128 B): station 3 at 1 Mbps, station 2 at 11 Mbps.
        assert_eq!(
            (s.acc_delay[0][0].count, s.acc_delay[0][0].total_us),
            (1, 400)
        );
        assert_eq!(
            (s.acc_delay[0][3].count, s.acc_delay[0][3].total_us),
            (1, 10_400)
        );
    }

    #[test]
    fn goodput_counts_control_plus_acked_data_only() {
        let recs = vec![
            data(0, 2, 0, 100, Rate::R11, false), // acked below
            ack(400, 2),
            data(1000, 2, 1, 200, Rate::R11, false), // never acked
        ];
        let s = &analyze(&recs)[0];
        let expected_goodput = 8 * (128 + 14) as u64; // acked data + the ack
        assert_eq!(s.goodput_bits, expected_goodput);
        let expected_throughput = 8 * (128 + 14 + 228) as u64;
        assert_eq!(s.throughput_bits, expected_throughput);
        assert!(s.goodput_bits < s.throughput_bits);
    }

    #[test]
    fn category_tables_fill_correctly() {
        let recs = vec![
            data(0, 2, 0, 100, Rate::R11, false),     // S-11
            data(1000, 2, 1, 100, Rate::R11, false),  // S-11
            data(2000, 2, 2, 1300, Rate::R1, false),  // XL-1
            data(3000, 2, 3, 500, Rate::R5_5, false), // M-5.5
        ];
        let s = &analyze(&recs)[0];
        assert_eq!(s.tx_by_cat[0][3], 2); // S-11
        assert_eq!(s.tx_by_cat[3][0], 1); // XL-1
        assert_eq!(s.tx_by_cat[1][2], 1); // M-5.5
        assert_eq!(s.bytes_by_rate[3], 2 * 128);
        assert_eq!(s.bytes_by_rate[0], 1328);
        assert!(
            s.busy_by_rate_us[0] > s.busy_by_rate_us[3],
            "1 Mbps frame dominates airtime"
        );
    }

    #[test]
    fn quiet_seconds_are_emitted_as_zero() {
        let recs = vec![
            data(0, 2, 0, 100, Rate::R11, false),
            data(3_500_000, 2, 1, 100, Rate::R11, false),
        ];
        let stats = analyze(&recs);
        assert_eq!(stats.len(), 4); // seconds 0..=3
        assert_eq!(stats[1].frames, 0);
        assert_eq!(stats[1].utilization_pct(), 0.0);
        assert_eq!(stats[2].frames, 0);
        assert_eq!(stats[3].frames, 1);
    }

    #[test]
    fn utilization_matches_busy_time_metric() {
        let recs: Vec<FrameRecord> = (0..40)
            .map(|i| data(i * 25_000, 2, i as u16, 1472, Rate::R1, false))
            .collect();
        let s = &analyze(&recs)[0];
        // 40 × (50 + 192 + 12048) = 491_600 µs.
        assert_eq!(s.busy_us, 491_600);
        assert!((s.utilization_pct() - 49.16).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_empty_stats() {
        assert!(analyze(&[]).is_empty());
    }

    #[test]
    fn delay_agg_mean() {
        let mut d = DelayAgg::default();
        assert_eq!(d.mean_seconds(), None);
        d.add(10_000);
        d.add(30_000);
        assert!((d.mean_seconds().unwrap() - 0.02).abs() < 1e-12);
        let mut e = DelayAgg::default();
        e.add(20_000);
        e.merge(&d);
        assert_eq!(e.count, 3);
        assert_eq!(e.total_us, 60_000);
    }
}
