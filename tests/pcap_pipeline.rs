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
