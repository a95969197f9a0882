//! Fuzz smoke for trace ingestion: feed a budget of seeded, chaos-corrupted
//! capture files (classic pcap and pcapng) through the lossy readers and
//! prove three things fast enough for CI:
//!
//! 1. **no panics** — every corrupted input either errors in a structured
//!    way or resynchronizes (the process finishing *is* the proof);
//! 2. **honest accounting** — the merged [`IngestReport`] balances, and
//!    clean inputs read back whole with a clean report;
//! 3. **estimator validity** — with known injected drop rates at three
//!    congestion levels, Equation 1 stays a lower bound on true loss.
//!
//! Usage: `chaos_smoke [--budget N]` (default 500 corrupted traces). The
//! merged ingestion report and per-level estimator checks are written to
//! `results/chaos_smoke.run.json`.

use congestion::unrecorded::estimate;
use congestion_bench::scaled;
use ietf80211_congestion::trace::read_capture;
use ietf_workloads::load_ramp;
use wifi_frames::record::FrameRecord;
use wifi_pcap::chaos::{corrupt_bytes, corrupt_records, ChaosConfig, ChaosRng, RecordChaosConfig};
use wifi_pcap::pcapng::PcapNgWriter;
use wifi_pcap::{IngestReport, LinkType, PcapStream, PcapWriter};

/// One base scenario: a congestion level plus its serialized capture in
/// both container formats.
struct BaseTrace {
    load: f64,
    records: Vec<FrameRecord>,
    classic: Vec<u8>,
    ng: Vec<u8>,
}

fn encode_packets(records: &[FrameRecord]) -> Vec<(u64, Vec<u8>)> {
    let dir = std::env::temp_dir().join("congestion-chaos-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("encode.pcap");
    ietf80211_congestion::trace::write_capture_with_snaplen(&path, records, 0).expect("write");
    let mut stream = PcapStream::new(std::fs::File::open(&path).expect("re-open")).expect("header");
    let mut packets = Vec::new();
    while let Some(p) = stream.next_packet().expect("re-read") {
        packets.push((p.timestamp_us, p.data.to_vec()));
    }
    assert!(stream.report().is_clean(), "{:?}", stream.report());
    packets
}

fn classic_bytes(packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).expect("classic header");
    for (ts, data) in packets {
        w.write_packet(*ts, data, data.len() as u32)
            .expect("classic record");
    }
    w.flush().expect("flush");
    buf
}

fn ng_bytes(packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).expect("ng header");
    for (ts, data) in packets {
        w.write_packet(*ts, data, data.len() as u32)
            .expect("ng record");
    }
    w.flush().expect("flush");
    buf
}

/// Estimator-bound check at one congestion level: inject a known uniform
/// drop rate, assert Equation 1 detects loss without overshooting truth
/// plus the clean-trace baseline. Returns a JSON fragment for the report.
fn estimator_check(base: &BaseTrace, seed: u64) -> String {
    let before = estimate(&base.records);
    let mut packets = encode_packets(&base.records);
    let cfg = RecordChaosConfig {
        drop: 0.12,
        duplicate: 0.0,
        swap: 0.0,
        clock_skew_us: 0,
        jitter_us: 0,
        malform_head: 0.0,
    };
    let faults = corrupt_records(&mut packets, &cfg, &mut ChaosRng::new(seed));
    let dropped = faults.dropped.len();
    let ingest = read_capture(&classic_bytes(&packets)[..]).expect("clean container");
    assert!(
        ingest.report.is_clean(),
        "drops alone keep the container clean"
    );
    let after = estimate(&ingest.records);
    let truth_pct = dropped as f64 / base.records.len().max(1) as f64 * 100.0;
    assert!(
        after.counts.total() > before.counts.total(),
        "load {}: estimator failed to notice {dropped} injected drops",
        base.load
    );
    assert!(
        after.unrecorded_pct() <= truth_pct + before.unrecorded_pct() + 1.0,
        "load {}: estimate {:.2}% overshoots injected {:.2}% + baseline {:.2}%",
        base.load,
        after.unrecorded_pct(),
        truth_pct,
        before.unrecorded_pct()
    );
    format!(
        "{{\"load\": {}, \"records\": {}, \"injected_drop_pct\": {:.3}, \
         \"baseline_est_pct\": {:.3}, \"est_pct\": {:.3}}}",
        base.load,
        base.records.len(),
        truth_pct,
        before.unrecorded_pct(),
        after.unrecorded_pct()
    )
}

const USAGE: &str = "usage: chaos_smoke [--budget N]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut budget: u64 = 500;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                budget = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => usage_error("--budget needs a number"),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let start = std::time::Instant::now();
    let nodes = scaled(30, 15) as usize;
    let secs = scaled(10, 5);
    let bases: Vec<BaseTrace> = [0.8, 2.0, 4.0]
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            let result = load_ramp(7_000 + i as u64, nodes, secs, load).run();
            let records = result.traces[0].clone();
            let packets = encode_packets(&records);
            BaseTrace {
                load,
                records,
                classic: classic_bytes(&packets),
                ng: ng_bytes(&packets),
            }
        })
        .collect();

    // Sanity anchor: on the *clean* images the lossy path reports no damage.
    for base in &bases {
        for bytes in [&base.classic, &base.ng] {
            let clean = read_capture(&bytes[..]).expect("clean image");
            assert!(clean.report.is_clean(), "clean image: {:?}", clean.report);
            assert_eq!(clean.records.len(), base.records.len());
        }
    }

    let hostile = ChaosConfig {
        bit_flips_per_kb: 0.5,
        truncate: 0.2,
        garbage_insert: 0.6,
        length_blast: 0.6,
    };
    let mut merged = IngestReport::default();
    let mut hard_errors = 0u64;
    let mut resynced_files = 0u64;
    for seed in 0..budget {
        let base = &bases[(seed % bases.len() as u64) as usize];
        let mut bytes = if (seed / bases.len() as u64).is_multiple_of(2) {
            base.classic.clone()
        } else {
            base.ng.clone()
        };
        corrupt_bytes(&mut bytes, 0, &hostile, &mut ChaosRng::new(seed));
        match read_capture(&bytes[..]) {
            Ok(ingest) => {
                if ingest.report.resyncs > 0 {
                    resynced_files += 1;
                }
                merged.merge(&ingest.report);
            }
            // A mangled classic global header (or non-radiotap link after
            // flips) is a structured hard error, never a panic.
            Err(_) => hard_errors += 1,
        }
    }

    let checks: Vec<String> = bases
        .iter()
        .enumerate()
        .map(|(i, base)| estimator_check(base, 9_000 + i as u64))
        .collect();

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let json = format!(
        "{{\n  \"name\": \"chaos_smoke\",\n  \"budget\": {budget},\n  \
         \"hard_errors\": {hard_errors},\n  \"resynced_files\": {resynced_files},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \"ingest\": {},\n  \"estimator_checks\": [\n    {}\n  ]\n}}\n",
        merged.to_json(),
        checks.join(",\n    ")
    );
    std::fs::create_dir_all("results").ok();
    let path = std::path::Path::new("results").join("chaos_smoke.run.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!(
        "chaos_smoke: {budget} corrupted traces, {hard_errors} hard errors, \
         {resynced_files} files resynced, {} records recovered, 0 panics in {wall_ms:.0} ms",
        merged.records_recovered
    );
    println!("ingest report: {}", merged.to_json());
    assert!(
        merged.records_total() > 0,
        "the corpus must still yield records"
    );
}
