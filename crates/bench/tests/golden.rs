//! Golden determinism harness for the hot-path overhaul.
//!
//! The cached sensing topology, the allocation-free event loop, and the
//! streaming per-second analysis are pure performance work: they must not
//! move a single byte of simulated output. This test pins that down with
//! golden digests captured from the pre-optimization simulator:
//!
//! * fig4-style session cells (day + plenary) and ablation_knee-style
//!   load-ramp cells, three seeds each, two offered loads for the ramp;
//! * every cell set runs at `--threads 1` and `--threads 4` and the two
//!   sweeps must be byte-identical (the run-report's deterministic fields
//!   included);
//! * each cell's full result (traces, sniffer counters, medium stats,
//!   station outcomes, event counts) is hashed and compared against
//!   `tests/golden_digests.txt`, committed from the unoptimized build;
//! * two smoke-scale churn cells (waypoint walkers moving and roaming) run
//!   unsharded through `MobileScenario::run` (the one chunk loop of
//!   `ietf_workloads::run` in one chunk, moving the walkers at every tick)
//!   and are digested the same way, as the last two lines of the file: one
//!   ticks on the fade coherence interval, the other between its
//!   boundaries.
//!
//! The two load-ramp fingerprints are plain numbers instead: the seed-11
//! `ramp-quick` and `ramp-320` runs must keep their event, frame and
//! analyzed-second counts, the ones their entries in `BENCH_sim_quick.json`
//! and `BENCH_sim.json` record. perfbench fingerprints the other pins.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p congestion-bench --test
//! golden` — but only when a change is *supposed* to alter simulated output;
//! a perf PR that needs a re-bless is a broken perf PR.

mod common;

use common::{golden_cells, FRAG_THRESHOLD};
use congestion_bench::streaming::{run_streaming, run_streaming_mobile};
use congestion_bench::{run_cells, SweepArgs};
use ietf_workloads::{load_ramp, mobile_venue, ChurnScale, MobileScenario, ScenarioResult};
use wifi_frames::fc::FrameKind;

/// FNV-1a, the same folding the vendored proptest uses for test seeding —
/// enough to make accidental output drift unmistakable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Serializes everything deterministic about one result — the same field
/// set as the sweep determinism test, per cell.
fn cell_digest(r: &ScenarioResult) -> u64 {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{} traces={:?} sniffers={:?} medium={:?} stations={:?} events={} on_air={}",
        r.name,
        r.traces,
        r.sniffer_stats,
        r.medium_stats,
        r.stations,
        r.events_processed,
        r.frames_on_air
    )
    .unwrap();
    fnv1a(out.as_bytes())
}

/// Label of the churn cell's golden line.
const CHURN_LABEL: &str = "churn seed=151 users=30";

/// The churn cell: half of 30 users walk between the venue's rooms for
/// 24 s (six mobility ticks), so the run moves stations, invalidates their
/// fade caches and roams them between APs. It is a [`MobileScenario`], not
/// a sweep [`Cell`], so it runs once, outside the thread-count check.
fn churn_cell() -> MobileScenario {
    mobile_venue(ChurnScale {
        seed: 151,
        users: 30,
        duration_s: 24,
        activity: 0.6,
        walker_fraction: 0.5,
    })
}

/// Label of the mid-interval churn cell's golden line.
const CHURN_MID_INTERVAL_LABEL: &str = "churn seed=151 users=30 tick=1.5s";

/// The churn cell with a 1.5 s mobility tick, which is not a multiple of
/// the 4 s fade coherence interval: most moves land inside an interval
/// whose fades the memo already holds, so a stale fade after a move
/// changes this digest. (The 4 s tick moves only on interval boundaries,
/// where the memo has just forgotten every fade anyway.)
fn churn_mid_interval_cell() -> MobileScenario {
    let mut cell = churn_cell();
    cell.tick_us = 1_500_000;
    cell
}

/// Runs the golden sweep on `threads` workers; returns `(label, digest)`
/// per cell plus the deterministic run-report fields.
fn run_golden(threads: usize) -> (Vec<(String, u64)>, String) {
    let args = SweepArgs { threads, seeds: 1 };
    let (results, report) = run_cells("golden_test", &args, golden_cells());
    let digests = report
        .cells
        .iter()
        .zip(&results)
        .map(|(c, r)| (c.label.clone(), cell_digest(r)))
        .collect();
    // The run.json minus its wall-clock observability: these fields must be
    // byte-identical across thread counts and across the optimization.
    let mut det = String::new();
    for c in &report.cells {
        use std::fmt::Write;
        writeln!(
            det,
            "{} seed={} events={} on_air={} captured={} missed={}",
            c.label, c.seed, c.events, c.frames_on_air, c.frames_captured, c.frames_missed
        )
        .unwrap();
    }
    (digests, det)
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_digests.txt")
}

#[test]
fn output_matches_preoptimization_goldens_across_threads() {
    let (serial, serial_det) = run_golden(1);
    let (parallel, parallel_det) = run_golden(4);
    assert_eq!(
        serial, parallel,
        "4-thread golden sweep diverged from serial"
    );
    assert_eq!(
        serial_det, parallel_det,
        "run-report deterministic fields diverged across thread counts"
    );

    let churn = (CHURN_LABEL.to_string(), cell_digest(&churn_cell().run()));
    let churn_mid_interval = (
        CHURN_MID_INTERVAL_LABEL.to_string(),
        cell_digest(&churn_mid_interval_cell().run()),
    );
    let mut lines = String::new();
    for (label, digest) in serial.iter().chain([&churn, &churn_mid_interval]) {
        lines.push_str(&format!("{label}\t{digest:016x}\n"));
    }
    let path = golden_path();
    if std::env::var("GOLDEN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &lines).expect("write golden file");
        eprintln!("blessed {} ({} cells)", path.display(), serial.len() + 2);
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        lines, golden,
        "simulated output drifted from the pre-optimization goldens; if the \
         change is meant to alter results, re-bless with GOLDEN_BLESS=1"
    );
}

/// The four path cells and the two churn cells must really reach the paths
/// they are named after, or their goldens would pin nothing new.
#[test]
fn path_cells_reach_their_paths() {
    let cells = golden_cells();
    let find = |prefix: &str| {
        cells
            .iter()
            .find(|c| c.label.starts_with(prefix))
            .expect("cell exists")
    };

    let dense = find("dense ramp").build_scenario();
    assert!(dense.sim.stations().len() >= 120);

    let rts = find("rts").build_scenario().run();
    let rts_frames = rts.traces[0]
        .iter()
        .filter(|r| r.kind == FrameKind::Rts)
        .count();
    assert!(rts_frames > 100, "RTS-heavy cell sent {rts_frames} RTS");

    let mut mgmt = find("channel-mgmt").build_scenario();
    mgmt.sim.run_until(mgmt.duration_us);
    let moved_clients = mgmt
        .sim
        .stations()
        .iter()
        .enumerate()
        .filter(|(i, s)| !s.is_ap() && mgmt.sim.hot().channel_idx[*i] != 0)
        .count();
    assert!(
        moved_clients > 0,
        "no client followed its AP off the hot channel"
    );

    let frag = find("frag").build_scenario().run();
    let data: Vec<u32> = frag.traces[0]
        .iter()
        .filter(|r| r.kind == FrameKind::Data)
        .map(|r| r.payload_bytes)
        .collect();
    assert!(data.iter().all(|&p| p <= FRAG_THRESHOLD));
    let full = data.iter().filter(|&&p| p == FRAG_THRESHOLD).count();
    assert!(full > 50, "only {full} full-size fragments captured");

    let (_, churn) = run_streaming_mobile(churn_cell(), 1_000_000);
    assert!(churn.moves > 0, "no walker moved");
    assert!(churn.roams > 0, "no walker roamed to another AP");

    let mid = churn_mid_interval_cell();
    let coherence_us = mid.sim.config.radio.fading.coherence_us;
    assert_ne!(
        mid.tick_us % coherence_us,
        0,
        "ticks land on fade boundaries"
    );
    let (_, mid) = run_streaming_mobile(mid, 1_000_000);
    assert!(
        mid.moves > churn.moves,
        "the mid-interval cell moved {} times, the 4 s one {}",
        mid.moves,
        churn.moves
    );
}

/// The seed-11 load ramps at their pinned scales keep their fingerprints:
/// `ramp-quick` (48 users, 60 s) and `ramp-320` (320 users, 30 s) through
/// the serial streaming loop.
#[test]
fn ramp_pins_keep_their_fingerprints() {
    for (label, users, duration_s, events, frames_on_air) in [
        ("ramp-quick", 48, 60, 128_212, 26_672),
        ("ramp-320", 320, 30, 368_125, 40_862),
    ] {
        let run = run_streaming(load_ramp(11, users, duration_s, 1.7), 1_000_000);
        let seconds: usize = run.per_sniffer_seconds.iter().map(Vec::len).sum();
        assert_eq!(
            (run.events_processed, run.frames_on_air, seconds),
            (events, frames_on_air, duration_s as usize),
            "{label}: (events, frames_on_air, analyzed seconds) drifted"
        );
    }
}
