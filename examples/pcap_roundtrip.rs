//! Capture-file pipeline: simulate, export the sniffer trace as a
//! radiotap pcap with the study's 250-byte snap length, re-ingest the file,
//! and verify the busy-time analysis is identical — proving the analysis
//! needs nothing beyond what a 2005 sniffer actually recorded. Then damage
//! the file with the fault-injection harness and re-ingest it, showing the
//! resynchronizing reader recovers the bulk of the trace and reports
//! exactly what it had to skip.
//!
//! ```sh
//! cargo run --release --example pcap_roundtrip
//! ```

use ietf80211_congestion::prelude::*;

fn main() {
    let scenario = load_ramp(5, 80, 30, 2.0);
    let result = scenario.run();
    let trace = &result.traces[0];
    println!("simulated: {} frames captured by the sniffer", trace.len());

    let dir = std::env::temp_dir().join("ietf80211-congestion");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plenary_ch1.pcap");

    let written = write_capture(&path, trace).expect("write pcap");
    let size = std::fs::metadata(&path).expect("stat").len();
    println!(
        "wrote {written} records to {} ({size} bytes, snaplen 250)",
        path.display()
    );

    let open = |p: &std::path::Path| std::fs::File::open(p).expect("open pcap");
    let clean = read_capture(open(&path)).expect("read pcap");
    assert!(clean.report.is_clean(), "our own file: {:?}", clean.report);
    let reread = clean.records;
    println!("re-read: {} records", reread.len());

    let before = analyze(trace);
    let after = analyze(&reread);
    assert_eq!(before.len(), after.len(), "same seconds");
    let mut max_delta = 0i64;
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(
            a.busy_us, b.busy_us,
            "busy time must survive snaplen truncation (second {})",
            a.second
        );
        max_delta = max_delta.max((a.frames as i64 - b.frames as i64).abs());
    }
    println!("\nper-second busy time identical before/after the pcap roundtrip ✓");
    println!("max per-second frame-count delta: {max_delta}");

    let bins = UtilizationBins::build(&after);
    println!("utilization mode from the re-read file: {:?}%", bins.mode());

    // Now the unhappy path: flip bits, splice garbage and blast a length
    // field, then re-ingest.
    use wifi_pcap::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
    let mut bytes = std::fs::read(&path).expect("re-read bytes");
    let cfg = ChaosConfig {
        bit_flips_per_kb: 0.05,
        truncate: 0.0,
        garbage_insert: 1.0,
        length_blast: 1.0,
    };
    let faults = corrupt_bytes(&mut bytes, 24, &cfg, &mut ChaosRng::new(42));
    println!(
        "\ninjected damage: {} bit flips, {} garbage bytes, {} length blasts",
        faults.bit_flips, faults.garbage_bytes, faults.length_blasts
    );
    let dirty = dir.join("plenary_ch1_damaged.pcap");
    std::fs::write(&dirty, &bytes).expect("write damaged");
    let lossy = read_capture(open(&dirty)).expect("damaged read");
    assert!(
        !lossy.report.is_clean(),
        "the damage must show in the report"
    );
    println!(
        "lossy re-read: {} of {} records ({} resyncs, {} bytes skipped)",
        lossy.records.len(),
        reread.len(),
        lossy.report.resyncs,
        lossy.report.bytes_skipped
    );
    println!("ingest report: {}", lossy.report.to_json());
    assert!(lossy.records.len() * 100 >= reread.len() * 90);
    println!("lossy ingestion recovered ≥90% of the damaged capture ✓");
}
