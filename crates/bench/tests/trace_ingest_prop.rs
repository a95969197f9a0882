//! Property: the streaming ingestion path is record- and stat-identical to
//! the batch path, all the way from pcap bytes.
//!
//! Three layers, from narrow to full pipeline:
//!
//! * **merge over chaos-damaged bytes** — per-sniffer captures corrupted by
//!   the byte-level chaos harness, lossy-read, then merged both ways.
//!   Chaos can flip timestamp bits or let a garbage run parse as a record,
//!   which breaks the per-stream time-ordering contract both merge paths
//!   share — so each sniffer's surviving records are stable-sorted first
//!   (`merge_traces` full-sorts anyway; the sort is only for `MergeStream`'s
//!   input contract).
//! * **file-level e2e, clean** — `analyze_capture_streams` over per-sniffer
//!   files must equal `analyze(merge_traces(...))` over batch reads.
//! * **file-level e2e, truncated** — the one byte-fault that provably
//!   preserves record order (the survivors are a prefix), so the streaming
//!   pipeline can be compared end to end on damaged files too.

use congestion::merge::{merge_traces, MergeStream};
use congestion::{analyze, SecondStats};
use ietf80211_congestion::ingest::analyze_capture_streams;
use ietf80211_congestion::trace::{read_capture, write_capture_with_snaplen};
use proptest::prelude::*;
use std::path::PathBuf;
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::record::FrameRecord;
use wifi_pcap::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};

/// Data/ACK exchanges at 1 kHz — dense enough that thinned views overlap
/// inside the dedup window once skewed.
fn base_trace(exchanges: usize) -> Vec<FrameRecord> {
    let rates = [Rate::R1, Rate::R2, Rate::R5_5, Rate::R11];
    let mut out = Vec::with_capacity(2 * exchanges);
    for i in 0..exchanges as u64 {
        let t = i * 1_000;
        let src = MacAddr::from_id(1 + (i % 10) as u32);
        let payload = [64u32, 400, 900, 1472][(i as usize / 3) % 4];
        out.push(FrameRecord {
            timestamp_us: t,
            kind: FrameKind::Data,
            rate: rates[i as usize % 4],
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(src),
            bssid: Some(MacAddr::from_id(99)),
            retry: i % 5 == 0,
            seq: Some((i % 4096) as u16),
            mac_bytes: payload + 28,
            payload_bytes: payload,
            signal_dbm: -58,
            duration_us: 314,
        });
        out.push(FrameRecord {
            timestamp_us: t + 340,
            kind: FrameKind::Ack,
            rate: Rate::R1,
            channel: Channel::new(1).unwrap(),
            dst: src,
            src: None,
            bssid: None,
            retry: false,
            seq: None,
            mac_bytes: 14,
            payload_bytes: 0,
            signal_dbm: -58,
            duration_us: 0,
        });
    }
    out
}

/// One sniffer's view: thinned by a cycled keep-mask, shifted by a constant
/// clock skew (so per-stream time order is preserved).
fn thin(base: &[FrameRecord], mask: &[bool], skew_us: u64) -> Vec<FrameRecord> {
    base.iter()
        .zip(mask.iter().cycle())
        .filter(|(_, k)| **k)
        .map(|(r, _)| {
            let mut r = *r;
            r.timestamp_us += skew_us;
            r
        })
        .collect()
}

/// Serializes records to an in-memory classic pcap capture.
fn to_pcap_bytes(records: &[FrameRecord], name: &str) -> Vec<u8> {
    let path = temp_path(name);
    write_capture_with_snaplen(&path, records, 0).expect("write capture");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ietf80211-congestion-ingest-prop");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Renders per-second stats through Debug — `SecondStats` holds floats, so
/// equality is checked on the same representation the golden digests use.
fn render(stats: &[SecondStats]) -> String {
    format!("{stats:?}")
}

proptest! {
    #[test]
    fn streaming_merge_matches_batch_over_chaos_damaged_captures(
        seed in 0u64..1u64 << 48,
        exchanges in 20usize..120,
        sniffers in 2usize..5,
        flips in 0.0f64..2.0,
        truncate in 0.0f64..1.0,
        garbage in 0.0f64..1.0,
        blast in 0.0f64..1.0,
    ) {
        let base = base_trace(exchanges);
        let cfg = ChaosConfig {
            bit_flips_per_kb: flips,
            truncate,
            garbage_insert: garbage,
            length_blast: blast,
        };
        let mut rng = ChaosRng::new(seed);
        let mut views: Vec<Vec<FrameRecord>> = Vec::new();
        for s in 0..sniffers {
            let mask: Vec<bool> = (0..17).map(|i| (i + s) % 4 != 0).collect();
            let records = thin(&base, &mask, 30 * s as u64);
            let mut bytes = to_pcap_bytes(&records, &format!("chaos_{seed}_{s}.pcap"));
            // Protect the 24-byte file header: container identity is not
            // the property under test here, record damage is.
            corrupt_bytes(&mut bytes, 24, &cfg, &mut rng);
            let mut survived = read_capture(&bytes[..])
                .expect("lossy ingest never fails on a valid magic")
                .records;
            // Restore the time-ordering contract chaos may have broken.
            survived.sort_by_key(|r| r.timestamp_us);
            views.push(survived);
        }
        let slices: Vec<&[FrameRecord]> = views.iter().map(|v| v.as_slice()).collect();
        let batch = merge_traces(&slices);
        let streamed: Vec<FrameRecord> =
            MergeStream::new(views.iter().map(|v| v.iter().copied()).collect()).collect();
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_file_pipeline_matches_batch_on_clean_captures(
        exchanges in 20usize..120,
        sniffers in 1usize..4,
        skew_step in 0u64..500,
        nonce in 0u64..1u64 << 32,
    ) {
        let base = base_trace(exchanges);
        let mut paths = Vec::new();
        let mut batch_views = Vec::new();
        for s in 0..sniffers {
            let mask: Vec<bool> = (0..13).map(|i| (i * 3 + s) % 5 != 0).collect();
            let records = thin(&base, &mask, skew_step * s as u64);
            let path = temp_path(&format!("clean_{nonce}_{s}.pcap"));
            write_capture_with_snaplen(&path, &records, 0).expect("write");
            paths.push(path);
            batch_views.push(records);
        }
        let out = analyze_capture_streams(&paths).expect("streaming analysis");
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        let slices: Vec<&[FrameRecord]> = batch_views.iter().map(|v| v.as_slice()).collect();
        let merged = merge_traces(&slices);
        prop_assert_eq!(out.merged_records, merged.len() as u64);
        prop_assert_eq!(render(&out.per_second), render(&analyze(&merged)));
        prop_assert!(out.sources.iter().all(|s| s.is_clean()));
    }

    #[test]
    fn streaming_file_pipeline_matches_batch_on_truncated_captures(
        exchanges in 30usize..120,
        sniffers in 1usize..4,
        seed in 0u64..1u64 << 48,
    ) {
        // Truncation only: the survivors are a prefix of the original
        // records, so per-file time order holds and the streaming pipeline
        // can be validated end to end even on the damaged bytes.
        let base = base_trace(exchanges);
        let cfg = ChaosConfig {
            bit_flips_per_kb: 0.0,
            truncate: 0.8,
            garbage_insert: 0.0,
            length_blast: 0.0,
        };
        let mut rng = ChaosRng::new(seed);
        let mut paths = Vec::new();
        let mut batch_views = Vec::new();
        for s in 0..sniffers {
            let mask: Vec<bool> = (0..11).map(|i| (i + 2 * s) % 6 != 0).collect();
            let records = thin(&base, &mask, 40 * s as u64);
            let mut bytes = to_pcap_bytes(&records, &format!("trunc_{seed}_{s}_w.pcap"));
            corrupt_bytes(&mut bytes, 24, &cfg, &mut rng);
            let survived = read_capture(&bytes[..]).expect("valid magic").records;
            let path = temp_path(&format!("trunc_{seed}_{s}.pcap"));
            std::fs::write(&path, &bytes).expect("write damaged");
            paths.push(path);
            batch_views.push(survived);
        }
        let out = analyze_capture_streams(&paths).expect("streaming analysis");
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        let slices: Vec<&[FrameRecord]> = batch_views.iter().map(|v| v.as_slice()).collect();
        let merged = merge_traces(&slices);
        prop_assert_eq!(out.merged_records, merged.len() as u64);
        prop_assert_eq!(render(&out.per_second), render(&analyze(&merged)));
    }
}
