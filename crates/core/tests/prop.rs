//! Property-based tests for the congestion-analysis crate: conservation
//! laws of the single-pass analyzer, the busy-time metric, binning, and the
//! unrecorded-frame estimator against synthetic traces with known losses.

use congestion::merge::DEDUP_WINDOW_US;
use congestion::{
    analyze, cbt_us, estimate_unrecorded, merge_traces, MergeStream, SecondAccumulator, SizeClass,
    UtilizationBins,
};
use proptest::prelude::*;
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;

fn rec(
    kind: FrameKind,
    ts: Micros,
    src: Option<u32>,
    dst: u32,
    payload: u32,
    rate: Rate,
) -> FrameRecord {
    FrameRecord {
        timestamp_us: ts,
        kind,
        rate,
        channel: Channel::new(1).unwrap(),
        dst: MacAddr::from_id(dst),
        src: src.map(MacAddr::from_id),
        bssid: None,
        retry: false,
        seq: Some((ts % 4096) as u16),
        mac_bytes: payload + 28,
        payload_bytes: payload,
        signal_dbm: -60,
        duration_us: 0,
    }
}

fn arb_rate() -> impl Strategy<Value = Rate> {
    prop_oneof![
        Just(Rate::R1),
        Just(Rate::R2),
        Just(Rate::R5_5),
        Just(Rate::R11)
    ]
}

/// One atomic exchange in a synthetic trace.
#[derive(Debug, Clone)]
enum Exchange {
    /// DATA then ACK (`acked`), or lone DATA.
    Data {
        src: u32,
        payload: u32,
        rate: Rate,
        acked: bool,
    },
    /// Full RTS/CTS/DATA/ACK.
    Protected { src: u32, payload: u32, rate: Rate },
    /// Beacon.
    Beacon { ap: u32 },
}

fn arb_exchange() -> impl Strategy<Value = Exchange> {
    prop_oneof![
        (1u32..20, 0u32..2276, arb_rate(), any::<bool>()).prop_map(
            |(src, payload, rate, acked)| Exchange::Data {
                src,
                payload,
                rate,
                acked
            }
        ),
        (1u32..20, 0u32..2276, arb_rate()).prop_map(|(src, payload, rate)| Exchange::Protected {
            src,
            payload,
            rate
        }),
        (100u32..105).prop_map(|ap| Exchange::Beacon { ap }),
    ]
}

/// Materializes exchanges into a time-ordered trace with DCF-plausible gaps.
fn build_trace(exchanges: &[Exchange]) -> Vec<FrameRecord> {
    let mut t: Micros = 0;
    let mut out = Vec::new();
    for e in exchanges {
        t += 300; // inter-exchange gap
        match *e {
            Exchange::Data {
                src,
                payload,
                rate,
                acked,
            } => {
                out.push(rec(FrameKind::Data, t, Some(src), 99, payload, rate));
                if acked {
                    t += 314;
                    out.push(rec(FrameKind::Ack, t, None, src, 0, Rate::R1));
                    let last = out.last_mut().unwrap();
                    last.mac_bytes = 14;
                    last.payload_bytes = 0;
                }
            }
            Exchange::Protected { src, payload, rate } => {
                out.push(rec(FrameKind::Rts, t, Some(src), 99, 0, Rate::R1));
                out.last_mut().unwrap().mac_bytes = 20;
                t += 314;
                out.push(rec(FrameKind::Cts, t, None, src, 0, Rate::R1));
                out.last_mut().unwrap().mac_bytes = 14;
                // Data frame ends SIFS + its own air time after the CTS.
                t += 10
                    + wifi_frames::timing::frame_airtime_us(
                        (payload + 28) as u64,
                        rate,
                        wifi_frames::phy::Preamble::Long,
                    );
                out.push(rec(FrameKind::Data, t, Some(src), 99, payload, rate));
                t += 314;
                out.push(rec(FrameKind::Ack, t, None, src, 0, Rate::R1));
                out.last_mut().unwrap().mac_bytes = 14;
            }
            Exchange::Beacon { ap } => {
                out.push(rec(FrameKind::Beacon, t, Some(ap), 0xffffff, 0, Rate::R1));
                let b = out.last_mut().unwrap();
                b.dst = MacAddr::BROADCAST;
                b.bssid = Some(MacAddr::from_id(ap));
                b.mac_bytes = 57;
            }
        }
        t += 200;
    }
    out
}

proptest! {
    #[test]
    fn analyzer_conserves_frame_counts(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        let stats = analyze(&trace);
        let total_frames: u64 = stats.iter().map(|s| s.frames).sum();
        prop_assert_eq!(total_frames, trace.len() as u64);
        let by_kind: u64 = stats
            .iter()
            .map(|s| s.rts + s.cts + s.ack + s.beacon + s.data + s.mgmt)
            .sum();
        prop_assert_eq!(by_kind, total_frames, "every frame lands in exactly one kind");
    }

    #[test]
    fn busy_time_equals_sum_of_charges(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        let stats = analyze(&trace);
        let from_stats: u64 = stats.iter().map(|s| s.busy_us).sum();
        let direct: u64 = trace.iter().map(cbt_us).sum();
        prop_assert_eq!(from_stats, direct);
    }

    #[test]
    fn category_table_partitions_data_frames(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        for s in analyze(&trace) {
            let cat_total: u64 = s.tx_by_cat.iter().flatten().sum();
            prop_assert_eq!(cat_total, s.data);
            let rate_bytes: u64 = s.bytes_by_rate.iter().sum();
            let data_bytes: u64 = trace
                .iter()
                .filter(|r| r.second() == s.second && matches!(r.kind, FrameKind::Data | FrameKind::NullData))
                .map(|r| r.mac_bytes as u64)
                .sum();
            prop_assert_eq!(rate_bytes, data_bytes);
        }
    }

    #[test]
    fn goodput_never_exceeds_throughput(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        for s in analyze(&trace) {
            prop_assert!(s.goodput_bits <= s.throughput_bits);
            prop_assert!(s.acked_data <= s.data);
            let first_acks: u64 = s.first_ack_by_rate.iter().sum();
            prop_assert!(first_acks <= s.acked_data);
        }
    }

    #[test]
    fn acked_count_matches_constructed_acks(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        let stats = analyze(&trace);
        let expected: u64 = exchanges
            .iter()
            .filter(|e| matches!(e, Exchange::Data { acked: true, .. } | Exchange::Protected { .. }))
            .count() as u64;
        let got: u64 = stats.iter().map(|s| s.acked_data).sum();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bins_conserve_seconds(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        let stats = analyze(&trace);
        let bins = UtilizationBins::build(&stats);
        let binned: u64 = bins.histogram().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(binned, stats.len() as u64);
    }

    #[test]
    fn complete_traces_report_zero_unrecorded(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        let est = estimate_unrecorded(&trace);
        prop_assert_eq!(est.counts.total(), 0, "atomic traces have no inferred losses");
    }

    #[test]
    fn dropping_data_frames_is_detected_exactly(
        exchanges in proptest::collection::vec(arb_exchange(), 1..80),
        drop_mask in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let trace = build_trace(&exchanges);
        // Drop some acknowledged data frames (keep their ACKs): each drop
        // must be inferred as exactly one unrecorded DATA frame.
        let mut dropped = 0usize;
        let mut lossy = Vec::new();
        let mut mask = drop_mask.iter().cycle();
        for (i, r) in trace.iter().enumerate() {
            let is_acked_data = matches!(r.kind, FrameKind::Data)
                && trace.get(i + 1).is_some_and(|n| n.kind == FrameKind::Ack && Some(n.dst) == r.src);
            if is_acked_data && *mask.next().unwrap() {
                dropped += 1;
                continue;
            }
            lossy.push(*r);
        }
        let est = estimate_unrecorded(&lossy);
        prop_assert_eq!(est.counts.data as usize, dropped);
        prop_assert_eq!(est.counts.rts, 0);
    }

    #[test]
    fn dropping_cts_frames_is_detected(
        count in 1usize..30,
    ) {
        // Protected exchanges with every CTS removed.
        let exchanges: Vec<Exchange> = (0..count)
            .map(|i| Exchange::Protected { src: 1 + (i as u32 % 5), payload: 500, rate: Rate::R11 })
            .collect();
        let trace = build_trace(&exchanges);
        let lossy: Vec<FrameRecord> = trace
            .iter()
            .filter(|r| r.kind != FrameKind::Cts)
            .copied()
            .collect();
        let est = estimate_unrecorded(&lossy);
        prop_assert_eq!(est.counts.cts as usize, count);
    }

    #[test]
    fn size_class_total_order(bytes_a in 0u32..3000, bytes_b in 0u32..3000) {
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(SizeClass::of(lo) <= SizeClass::of(hi));
    }

    #[test]
    fn streaming_accumulator_matches_batch(exchanges in proptest::collection::vec(arb_exchange(), 0..120)) {
        let trace = build_trace(&exchanges);
        let batch = analyze(&trace);
        let mut acc = SecondAccumulator::new();
        for r in &trace {
            acc.push(*r);
        }
        // SecondStats carries floats, so equality is checked on the full
        // Debug rendering — the same representation the golden digests use.
        prop_assert_eq!(format!("{:?}", acc.finish()), format!("{batch:?}"));
    }

    #[test]
    fn streaming_matches_batch_across_quiet_seconds(
        exchanges in proptest::collection::vec(arb_exchange(), 1..60),
        gaps in proptest::collection::vec(0u64..4_000_000, 60),
    ) {
        // Stretch the trace with multi-second quiet gaps: the accumulator
        // must produce the same (sparse) seconds as the batch pass, and the
        // first-transmission table must evict identically across the idle
        // stretches.
        let mut trace = build_trace(&exchanges);
        let mut shift = 0u64;
        let mut g = gaps.iter().cycle();
        for r in trace.iter_mut() {
            shift += g.next().unwrap();
            r.timestamp_us += shift;
        }
        let batch = analyze(&trace);
        let mut acc = SecondAccumulator::new();
        for r in &trace {
            acc.push(*r);
        }
        prop_assert_eq!(format!("{:?}", acc.finish()), format!("{batch:?}"));
    }

    #[test]
    fn streaming_handles_cross_second_ack_adjacency(offset in 0u64..400) {
        // DATA frames just before each second boundary, ACKs landing either
        // side of it depending on `offset`: the accumulator's one-record
        // lookahead must see the ACK even when it falls in the next second.
        let mut trace = Vec::new();
        for i in 0..6u64 {
            let data_ts = (i + 1) * 1_000_000 - 200 + offset;
            trace.push(rec(FrameKind::Data, data_ts, Some(1 + (i as u32 % 3)), 99, 700, Rate::R11));
            let ack_ts = data_ts + 314;
            trace.push(rec(FrameKind::Ack, ack_ts, None, 1 + (i as u32 % 3), 0, Rate::R1));
            let last = trace.last_mut().unwrap();
            last.mac_bytes = 14;
            last.payload_bytes = 0;
        }
        let batch = analyze(&trace);
        let acked: u64 = batch.iter().map(|s| s.acked_data).sum();
        prop_assert_eq!(acked, 6, "every DATA is acknowledged, boundary or not");
        let mut acc = SecondAccumulator::new();
        for r in &trace {
            acc.push(*r);
        }
        prop_assert_eq!(format!("{:?}", acc.finish()), format!("{batch:?}"));
    }
}

/// Thins a time-ordered base trace into one sniffer's skewed, lossy view.
/// Constant skew preserves per-stream time order — the documented input
/// contract shared by `merge_traces` and `MergeStream`.
fn sniffer_view(base: &[FrameRecord], keep: &[bool], skew_us: u64) -> Vec<FrameRecord> {
    base.iter()
        .zip(keep.iter().cycle())
        .filter(|(_, k)| **k)
        .map(|(r, _)| {
            let mut r = *r;
            r.timestamp_us += skew_us;
            r
        })
        .collect()
}

proptest! {
    #[test]
    fn streaming_merge_matches_batch_on_random_views(
        exchanges in proptest::collection::vec(arb_exchange(), 0..100),
        masks in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..40), 1..6),
        skews in proptest::collection::vec(0u64..2_000, 6),
    ) {
        let base = build_trace(&exchanges);
        let views: Vec<Vec<FrameRecord>> = masks
            .iter()
            .zip(&skews)
            .map(|(mask, &skew)| sniffer_view(&base, mask, skew))
            .collect();
        let slices: Vec<&[FrameRecord]> = views.iter().map(|v| v.as_slice()).collect();
        let batch = merge_traces(&slices);
        let streamed: Vec<FrameRecord> =
            MergeStream::new(views.iter().map(|v| v.iter().copied()).collect()).collect();
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_merge_contributions_are_conserved(
        exchanges in proptest::collection::vec(arb_exchange(), 1..100),
        masks in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..40), 2..6),
        skews in proptest::collection::vec(0u64..2_000, 6),
    ) {
        let base = build_trace(&exchanges);
        let views: Vec<Vec<FrameRecord>> = masks
            .iter()
            .zip(&skews)
            .map(|(mask, &skew)| sniffer_view(&base, mask, skew))
            .collect();
        let mut stream = MergeStream::new(views.iter().map(|v| v.iter().copied()).collect());
        let merged = stream.by_ref().count();
        let contributed = stream.contributed().to_vec();
        prop_assert_eq!(contributed.iter().sum::<u64>(), merged as u64);
        prop_assert_eq!(contributed.len(), views.len());
        // The merge can never yield fewer records than its best single view
        // or more than the union of all views.
        let best = views.iter().map(Vec::len).max().unwrap_or(0);
        let total: usize = views.iter().map(Vec::len).sum();
        prop_assert!(merged >= best, "merged {} < best single {}", merged, best);
        prop_assert!(merged <= total, "merged {} > union {}", merged, total);
    }

    #[test]
    fn streaming_merge_is_identity_on_one_clean_stream(
        exchanges in proptest::collection::vec(arb_exchange(), 0..100),
    ) {
        // One sniffer with no losses: nothing repeats within the dedup
        // window except genuine retransmissions, and the batch path is the
        // ground truth for those decisions too.
        let base = build_trace(&exchanges);
        let batch = merge_traces(&[&base[..]]);
        let streamed: Vec<FrameRecord> =
            MergeStream::new(vec![base.iter().copied()]).collect();
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn skewed_clock_regression_is_clamped_not_resurrected(
        exchanges in proptest::collection::vec(arb_exchange(), 1..80),
        masks in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..40), 2..5),
        skews in proptest::collection::vec(0u64..2_000, 5),
        // Per-stream clock faults: at `at` (an index into the view), jump the
        // clock backwards by `back_us` for every subsequent record.
        faults in proptest::collection::vec((any::<prop::sample::Index>(), 0u64..5_000_000), 5),
    ) {
        let base = build_trace(&exchanges);
        let views: Vec<Vec<FrameRecord>> = masks
            .iter()
            .zip(&skews)
            .zip(&faults)
            .map(|((mask, &skew), (at, back_us))| {
                let mut v = sniffer_view(&base, mask, skew);
                if !v.is_empty() {
                    let at = at.index(v.len());
                    for r in &mut v[at..] {
                        r.timestamp_us = r.timestamp_us.saturating_sub(*back_us);
                    }
                }
                v
            })
            .collect();
        let streamed: Vec<FrameRecord> =
            MergeStream::new(views.iter().map(|v| v.iter().copied()).collect()).collect();
        // Output must stay non-decreasing despite in-stream regressions …
        prop_assert!(
            streamed.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us),
            "merged output went back in time"
        );
        // … and must equal the batch merge of the clamp-normalized views:
        // clamping each stream to its running maximum is exactly the
        // normalization `OnlineMerge::offer` applies, and the normalized
        // views are time-ordered, where batch equivalence is the contract.
        let clamped: Vec<Vec<FrameRecord>> = views
            .iter()
            .map(|v| {
                let mut high = 0u64;
                v.iter()
                    .map(|r| {
                        let mut r = *r;
                        high = high.max(r.timestamp_us);
                        r.timestamp_us = high;
                        r
                    })
                    .collect()
            })
            .collect();
        let slices: Vec<&[FrameRecord]> = clamped.iter().map(|v| v.as_slice()).collect();
        prop_assert_eq!(streamed, merge_traces(&slices));
    }

    #[test]
    fn long_duplicate_chains_match_batch(
        // One identity re-captured every < 120 µs across many windows, each
        // capture by one of up to four sniffers …
        gaps in proptest::collection::vec(1..DEDUP_WINDOW_US, 50..400),
        chain_sniffers in proptest::collection::vec(0usize..4, 1..20),
        // … while distinct identities, some seen twice by neighbouring
        // sniffers (in or out of the window), expire behind it.
        others in proptest::collection::vec(
            (0u64..1 << 20, 0usize..4, any::<bool>(), 0u64..2 * DEDUP_WINDOW_US),
            0..300,
        ),
    ) {
        let mut views: Vec<Vec<FrameRecord>> = vec![Vec::new(); 4];
        let mut ts = 0;
        for (i, gap) in gaps.iter().enumerate() {
            ts += gap;
            let mut r = rec(FrameKind::Data, ts, Some(1), 99, 100, Rate::R11);
            r.seq = Some(4095);
            views[chain_sniffers[i % chain_sniffers.len()]].push(r);
        }
        for (j, &(at, sniffer, recaptured, skew)) in others.iter().enumerate() {
            let mut r = rec(FrameKind::Data, at % ts, Some(2 + j as u32 % 5), 99, 100, Rate::R11);
            r.seq = Some(j as u16);
            views[sniffer].push(r);
            if recaptured {
                r.timestamp_us += skew;
                views[(sniffer + 1) % 4].push(r);
            }
        }
        for v in &mut views {
            v.sort_by_key(|r| r.timestamp_us);
        }
        let slices: Vec<&[FrameRecord]> = views.iter().map(|v| v.as_slice()).collect();
        let streamed: Vec<FrameRecord> =
            MergeStream::new(views.iter().map(|v| v.iter().copied()).collect()).collect();
        prop_assert_eq!(streamed, merge_traces(&slices));
    }
}
