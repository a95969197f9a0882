//! Loss-aware analysis end to end: the chaos harness injects *known* drop
//! rates into capture files, the lossy reader ingests them, and the Section
//! 4.4 estimator's Equation-1 output is validated against ground truth —
//! targeted drops must be recovered almost exactly, uniform drops must be
//! lower-bounded, and multi-sniffer merging must absorb skew plus drops.

use congestion::merge::{coverage_gain, merge_traces};
use congestion::persec::ACK_MATCH_WINDOW_US;
use congestion::unrecorded::estimate;
use ietf80211_congestion::trace::{read_capture, write_capture_with_snaplen};
use ietf_workloads::load_ramp;
use wifi_frames::fc::FrameKind;
use wifi_frames::record::FrameRecord;
use wifi_pcap::chaos::{corrupt_bytes, corrupt_records, ChaosConfig, ChaosRng, RecordChaosConfig};
use wifi_pcap::{LinkType, PcapStream, PcapWriter};

/// A chaos mix that only drops records — the ground truth stays exact and
/// the container stays clean, isolating the estimator under test.
fn drop_only(p: f64) -> RecordChaosConfig {
    RecordChaosConfig {
        drop: p,
        duplicate: 0.0,
        swap: 0.0,
        clock_skew_us: 0,
        jitter_us: 0,
        malform_head: 0.0,
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ietf80211-congestion-chaos-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Simulates one sniffer trace and returns its records as re-read from a
/// clean capture file (so all e2e paths start from ingested bytes, exactly
/// like a real trace analysis).
fn baseline_records(seed: u64, nodes: usize, secs: u64, load: f64, name: &str) -> Vec<FrameRecord> {
    let result = load_ramp(seed, nodes, secs, load).run();
    let path = temp_path(name);
    write_capture_with_snaplen(&path, &result.traces[0], 0).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let ingest = read_capture(&bytes[..]).unwrap();
    assert!(ingest.report.is_clean(), "clean file: {:?}", ingest.report);
    ingest.records
}

/// Serializes records to an in-memory classic pcap, applies record-level
/// chaos, and re-reads through the lossy ingester. Returns the surviving
/// records plus the number of ground-truth drops.
fn roundtrip_with_chaos(
    records: &[FrameRecord],
    cfg: &RecordChaosConfig,
    seed: u64,
    name: &str,
) -> (Vec<FrameRecord>, usize) {
    let path = temp_path(name);
    write_capture_with_snaplen(&path, records, 0).unwrap();
    let mut stream = PcapStream::new(std::fs::File::open(&path).unwrap()).unwrap();
    let mut packets = Vec::new();
    while let Some(p) = stream.next_packet().unwrap() {
        packets.push((p.timestamp_us, p.data.to_vec()));
    }
    assert!(stream.report().is_clean(), "{:?}", stream.report());
    let faults = corrupt_records(&mut packets, cfg, &mut ChaosRng::new(seed));
    let mut buf = Vec::new();
    {
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for (ts, data) in &packets {
            w.write_packet(*ts, data).unwrap();
        }
        w.flush().unwrap();
    }
    let ingest = read_capture(&buf[..]).unwrap();
    assert!(
        ingest.report.is_clean(),
        "drops alone leave a clean container"
    );
    (ingest.records, faults.dropped.len())
}

/// Drops only DATA frames whose very next capture is their matching ACK and
/// whose predecessor cannot be mistaken for the acknowledged frame. Every
/// such drop manufactures exactly one orphan ACK, so the estimator's
/// missing-DATA count must track the injected count almost exactly.
#[test]
fn targeted_data_drops_are_recovered_by_the_estimator() {
    let base = baseline_records(201, 35, 12, 2.0, "targeted_base.pcap");
    let before = estimate(&base);

    let mut drop = vec![false; base.len()];
    let mut injected = 0u64;
    for i in 1..base.len().saturating_sub(1) {
        let (prev, d, a) = (&base[i - 1], &base[i], &base[i + 1]);
        let matched_pair = d.kind == FrameKind::Data
            && a.kind == FrameKind::Ack
            && d.src == Some(a.dst)
            && a.timestamp_us.saturating_sub(d.timestamp_us) <= ACK_MATCH_WINDOW_US;
        // After the drop the ACK's predecessor becomes `prev`; require the
        // gap to exceed the match window so the orphan cannot re-match.
        let prev_safe = a.timestamp_us.saturating_sub(prev.timestamp_us) > ACK_MATCH_WINDOW_US;
        if matched_pair && prev_safe && !drop[i - 1] && injected < 200 {
            drop[i] = true;
            injected += 1;
        }
    }
    assert!(
        injected >= 30,
        "need a meaningful drop count, got {injected}"
    );

    let thinned: Vec<FrameRecord> = base
        .iter()
        .enumerate()
        .filter(|(i, _)| !drop[*i])
        .map(|(_, r)| *r)
        .collect();
    let after = estimate(&thinned);

    let delta = after.counts.data.saturating_sub(before.counts.data);
    assert!(
        delta <= injected && delta * 10 >= injected * 9,
        "estimator saw {delta} new missing DATA frames for {injected} injected drops"
    );

    // Equation-1 bracket: the estimator's *extra* loss percentage must agree
    // with the injected ground truth within a point.
    let est_extra_pct = delta as f64 / (delta + after.captured) as f64 * 100.0;
    let truth_pct = injected as f64 / base.len() as f64 * 100.0;
    assert!(
        (est_extra_pct - truth_pct).abs() < 1.0,
        "estimated {est_extra_pct:.2}% vs injected {truth_pct:.2}%"
    );
}

/// Uniform random drops at three congestion levels: Equation 1 is a *lower
/// bound* on true loss (drops of ACKs, or of DATA whose ACK also dropped,
/// are invisible), so the estimate must rise with injected loss yet never
/// exceed ground truth plus the pre-existing baseline inference.
#[test]
fn uniform_drops_are_lower_bounded_at_three_congestion_levels() {
    for (level, load) in [(0u64, 0.8), (1, 2.0), (2, 4.0)] {
        let name = format!("uniform_base_{level}.pcap");
        let base = baseline_records(300 + level, 30, 10, load, &name);
        let before = estimate(&base);

        let cfg = drop_only(0.12);
        let name = format!("uniform_chaos_{level}.pcap");
        let (thinned, dropped) = roundtrip_with_chaos(&base, &cfg, 77 + level, &name);
        assert_eq!(base.len(), thinned.len() + dropped);
        assert!(dropped > 0, "12% drop rate must drop something");

        let after = estimate(&thinned);
        let truth_pct = dropped as f64 / base.len() as f64 * 100.0;
        assert!(
            after.counts.total() > before.counts.total(),
            "load {load}: estimator must notice injected drops"
        );
        assert!(
            after.unrecorded_pct() <= truth_pct + before.unrecorded_pct() + 1.0,
            "load {load}: estimate {:.2}% exceeds injected {truth_pct:.2}% \
             plus baseline {:.2}% — Equation 1 must stay a lower bound",
            after.unrecorded_pct(),
            before.unrecorded_pct()
        );
    }
}

/// Three sniffers of one channel, each with its own clock skew and
/// independent 20% drops: merging their lossy ingests must recover nearly
/// the whole channel without double-counting skewed duplicates.
#[test]
fn merge_absorbs_skew_and_independent_drops() {
    let base = baseline_records(400, 30, 10, 2.0, "merge_base.pcap");
    let mut sniffers: Vec<Vec<FrameRecord>> = Vec::new();
    for (s, skew) in [0u64, 40, 80].iter().enumerate() {
        let skewed: Vec<FrameRecord> = base
            .iter()
            .map(|r| {
                let mut r = *r;
                r.timestamp_us += skew;
                r
            })
            .collect();
        let cfg = drop_only(0.20);
        let name = format!("merge_sniffer_{s}.pcap");
        let (records, _) = roundtrip_with_chaos(&skewed, &cfg, 900 + s as u64, &name);
        sniffers.push(records);
    }
    let views: Vec<&[FrameRecord]> = sniffers.iter().map(|s| &s[..]).collect();
    let merged = merge_traces(&views);
    let gain = coverage_gain(&views);
    assert!(
        gain.merged > gain.best_single,
        "merging must add coverage: {} vs best single {}",
        gain.merged,
        gain.best_single
    );
    assert!(
        merged.len() <= base.len(),
        "skewed duplicates must not inflate the merge: {} > {}",
        merged.len(),
        base.len()
    );
    assert!(
        merged.len() * 100 >= base.len() * 96,
        "three 80%-coverage sniffers should recover ≥96%: {} of {}",
        merged.len(),
        base.len()
    );
    // The recovered channel's loss estimate must also drop back near the
    // clean baseline: merging is how the study bounded sniffer loss.
    let merged_est = estimate(&merged);
    let single_est = estimate(&sniffers[0]);
    assert!(
        merged_est.unrecorded_pct() < single_est.unrecorded_pct(),
        "merge must reduce inferred loss: {:.2}% vs {:.2}%",
        merged_est.unrecorded_pct(),
        single_est.unrecorded_pct()
    );
}

/// Container-level damage (bit flips, garbage splices, length blasts) on
/// top of record drops: ingestion must survive, report the damage, and the
/// estimator must still produce a finite, bounded Equation-1 figure.
#[test]
fn container_damage_still_yields_bounded_estimate() {
    let base = baseline_records(500, 30, 10, 2.0, "container_base.pcap");
    let path = temp_path("container_dirty.pcap");
    write_capture_with_snaplen(&path, &base, 0).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let cfg = ChaosConfig {
        bit_flips_per_kb: 0.02,
        garbage_insert: 1.0,
        length_blast: 1.0,
        ..ChaosConfig::default()
    };
    let faults = corrupt_bytes(&mut bytes, 24, &cfg, &mut ChaosRng::new(4242));
    assert!(
        !faults.is_clean(),
        "chaos config must actually damage bytes"
    );

    let ingest = read_capture(&bytes[..]).unwrap();
    assert!(
        !ingest.report.is_clean(),
        "damage must be visible in the report: {:?}",
        ingest.report
    );
    assert!(
        ingest.records.len() * 100 >= base.len() * 80,
        "light damage should still yield most records: {} of {}",
        ingest.records.len(),
        base.len()
    );
    let est = estimate(&ingest.records);
    let pct = est.unrecorded_pct();
    assert!(
        pct.is_finite() && (0.0..=100.0).contains(&pct),
        "Equation 1 must stay bounded on damaged input: {pct}"
    );
}
