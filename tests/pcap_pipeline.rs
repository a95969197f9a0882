//! Integration test of the full capture-file pipeline: simulate → export
//! radiotap pcap (snaplen 250) → re-ingest → analyze; the busy-time metric
//! must be bit-identical across the roundtrip.

use congestion::analyze;
use ietf80211_congestion::trace::{read_capture, write_capture, write_capture_with_snaplen};
use ietf_workloads::load_ramp;
use std::path::Path;
use wifi_frames::FrameRecord;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ietf80211-congestion-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Reads a capture file we wrote, which must decode with a clean report.
fn read_clean(path: &Path) -> Vec<FrameRecord> {
    let capture = read_capture(std::fs::File::open(path).unwrap()).unwrap();
    assert!(capture.report.is_clean(), "{:?}", capture.report);
    capture.records
}

#[test]
fn snaplen_roundtrip_preserves_analysis() {
    let result = load_ramp(90, 40, 15, 2.0).run();
    let trace = &result.traces[0];
    assert!(trace.len() > 500);

    let path = temp_path("roundtrip.pcap");
    let written = write_capture(&path, trace).unwrap();
    assert_eq!(written as usize, trace.len());

    let reread = read_clean(&path);
    assert_eq!(reread.len(), trace.len());

    let before = analyze(trace);
    let after = analyze(&reread);
    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.busy_us, b.busy_us);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.data, b.data);
        assert_eq!(a.acked_data, b.acked_data);
        assert_eq!(a.throughput_bits, b.throughput_bits);
        assert_eq!(a.goodput_bits, b.goodput_bits);
        assert_eq!(a.tx_by_cat, b.tx_by_cat);
        assert_eq!(a.first_ack_by_rate, b.first_ack_by_rate);
    }
}

#[test]
fn truncation_actually_happens_on_disk() {
    let result = load_ramp(91, 40, 10, 2.0).run();
    let trace = &result.traces[0];
    let snap = temp_path("snap.pcap");
    let full = temp_path("full.pcap");
    write_capture(&snap, trace).unwrap();
    write_capture_with_snaplen(&full, trace, 0).unwrap();
    let snap_size = std::fs::metadata(&snap).unwrap().len();
    let full_size = std::fs::metadata(&full).unwrap().len();
    assert!(
        snap_size < full_size,
        "snaplen file ({snap_size}) should be smaller than full capture ({full_size})"
    );
    // Yet both parse to the same records.
    let a = read_clean(&snap);
    let b = read_clean(&full);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.mac_bytes, y.mac_bytes);
        assert_eq!(x.payload_bytes, y.payload_bytes);
        assert_eq!(x.kind, y.kind);
    }
}

#[test]
fn retry_and_rate_fields_survive() {
    let result = load_ramp(92, 60, 20, 2.5).run();
    let trace = &result.traces[0];
    let retries_before = trace.iter().filter(|r| r.retry).count();
    assert!(retries_before > 0, "need some retries to test");
    let path = temp_path("fields.pcap");
    write_capture(&path, trace).unwrap();
    let reread = read_clean(&path);
    let retries_after = reread.iter().filter(|r| r.retry).count();
    assert_eq!(retries_before, retries_after);
    for (a, b) in trace.iter().zip(&reread) {
        assert_eq!(a.rate, b.rate);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.signal_dbm, b.signal_dbm);
    }
}

#[test]
fn pcapng_capture_is_auto_detected() {
    use wifi_pcap::pcapng::PcapNgWriter;
    use wifi_pcap::{LinkType, PcapStream};

    // Build a pcapng file whose packets are radiotap-framed records from a
    // simulation, then read it through the same entry point as classic pcap.
    let result = load_ramp(93, 30, 10, 2.0).run();
    let trace = &result.traces[0];
    let dir = temp_path("ng.pcapng");
    let file = std::fs::File::create(&dir).unwrap();
    let mut w = PcapNgWriter::new(std::io::BufWriter::new(file), LinkType::Radiotap, 0).unwrap();
    // Reuse the classic exporter to materialize each record's radiotap
    // packet bytes, then carry the identical payloads inside pcapng blocks.
    let tmp = temp_path("ng_source.pcap");
    write_capture_with_snaplen(&tmp, trace, 0).unwrap();
    let mut classic = PcapStream::new(std::fs::File::open(&tmp).unwrap()).unwrap();
    for r in trace {
        let pkt = classic
            .next_packet()
            .unwrap()
            .expect("one packet per record");
        w.write_packet(r.timestamp_us, pkt.data, pkt.orig_len)
            .unwrap();
    }
    assert!(classic.next_packet().unwrap().is_none() && classic.report().is_clean());
    w.flush().unwrap();
    drop(w);

    let back = read_clean(&dir);
    assert_eq!(back.len(), trace.len());
    let a = analyze(trace);
    let b = analyze(&back);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.busy_us, y.busy_us);
        assert_eq!(x.frames, y.frames);
    }
}

/// FNV-1a over a byte string: enough to make any drift in the written
/// bytes unmistakable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Small ramp, day and plenary runs with a large RTS fraction, so every
/// frame kind the simulator emits (RTS and CTS included) shows up.
fn every_kind_traces() -> Vec<Vec<FrameRecord>> {
    use ietf_workloads::{ietf_day, ietf_plenary, load_ramp_with, SessionScale};
    use wifi_frames::phy::Rate;
    use wifi_sim::rate::RateAdaptation;
    let scale = |seed, activity| SessionScale {
        seed,
        users: 24,
        duration_s: 8,
        activity,
        rts_fraction: 0.4,
    };
    let ramp = load_ramp_with(94, 24, 8, 3.0, RateAdaptation::Arf(Rate::R11), 0.4);
    [ramp, ietf_day(scale(95, 1.0)), ietf_plenary(scale(96, 3.0))]
        .into_iter()
        .flat_map(|s| s.run().traces)
        .collect()
}

/// Every simulated record reads back from its capture field for field,
/// whole and cut to the study's snap length.
#[test]
fn simulated_records_round_trip_exactly() {
    use wifi_frames::FrameKind;
    let traces = every_kind_traces();
    for kind in [
        FrameKind::Data,
        FrameKind::NullData,
        FrameKind::Ack,
        FrameKind::Rts,
        FrameKind::Cts,
        FrameKind::Beacon,
        FrameKind::ProbeRequest,
        FrameKind::ProbeResponse,
        FrameKind::AssocRequest,
        FrameKind::AssocResponse,
    ] {
        assert!(
            traces.iter().flatten().any(|r| r.kind == kind),
            "no {kind:?} in the traces"
        );
    }
    let mut compared = 0;
    for (i, trace) in traces.iter().enumerate() {
        for snaplen in [0, 250] {
            let path = temp_path(&format!("exact_{i}_{snaplen}.pcap"));
            write_capture_with_snaplen(&path, trace, snaplen).unwrap();
            let back = read_clean(&path);
            assert_eq!(back.len(), trace.len());
            for (got, want) in back.iter().zip(trace) {
                assert_eq!(got, want, "trace {i} snaplen {snaplen}");
                compared += 1;
            }
        }
    }
    assert!(compared > 10_000, "only {compared} records compared");
}

/// The exact bytes of an untruncated capture (zero-filled bodies and FCS
/// included) are frozen: any change to the frame encoding shows here.
#[test]
fn untruncated_capture_bytes_are_frozen() {
    let path = temp_path("frozen.pcap");
    let mut bytes = Vec::new();
    for trace in every_kind_traces() {
        write_capture_with_snaplen(&path, &trace, 0).unwrap();
        bytes.extend(std::fs::read(&path).unwrap());
    }
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (6_354_844, 0xedde_1458_3108_3680),
        "untruncated capture bytes moved"
    );
}
