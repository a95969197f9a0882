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
//!   unsharded through `MobileScenario::run` and are digested the same way,
//!   as the last two lines of the file: one ticks on the fade coherence
//!   interval, the other between its boundaries.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p congestion-bench --test
//! golden` — but only when a change is *supposed* to alter simulated output;
//! a perf PR that needs a re-bless is a broken perf PR.

use congestion_bench::streaming::{run_streaming, run_streaming_pipelined};
use congestion_bench::{run_cells, Cell, SweepArgs};
use ietf_workloads::{
    ietf_day, ietf_plenary, ietf_radio, load_ramp, mobile_venue, ChurnScale, MobileScenario,
    Scenario, ScenarioResult, SessionScale,
};
use wifi_frames::fc::FrameKind;
use wifi_frames::phy::Rate;
use wifi_sim::config::ChannelMgmt;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

const SECOND: u64 = 1_000_000;

/// Payload threshold of the fragmentation cell.
const FRAG_THRESHOLD: u32 = 512;

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

fn tiny_day(seed: u64) -> SessionScale {
    SessionScale {
        seed,
        users: 14,
        duration_s: 7,
        activity: 0.75,
        rts_fraction: 0.02,
    }
}

fn tiny_plenary(seed: u64) -> SessionScale {
    SessionScale {
        seed,
        users: 14,
        duration_s: 7,
        activity: 3.0,
        rts_fraction: 0.02,
    }
}

/// One uplink-heavy channel-0 client of the hand-built cells below.
fn client(pos: Pos, fps: f64) -> ClientConfig {
    ClientConfig {
        pos,
        channel_idx: 0,
        rts_policy: RtsPolicy::Never,
        adaptation: RateAdaptation::Arf(Rate::R11),
        traffic: TrafficProfile {
            uplink: FlowConfig::poisson(fps, SizeDist::ietf_mix()),
            downlink: FlowConfig::poisson(fps / 2.0, SizeDist::ietf_mix()),
        },
        join_at_us: 0,
        leave_at_us: None,
        power_save_interval_us: None,
        frag_threshold: None,
    }
}

/// Two loaded APs crammed onto channel 0 of three, with dynamic channel
/// assignment on: an AP migrates off the hot channel and its clients
/// follow it (`ChannelEval` → `FollowAp`, retuning mid-run).
fn channel_mgmt_cell(seed: u64) -> Scenario {
    let mut sim = Simulator::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        channel_mgmt: Some(ChannelMgmt {
            eval_interval_us: 2 * SECOND,
            switch_ratio: 1.5,
            follow_delay_max_us: 300_000,
        }),
        ..SimConfig::ietf_three_channels(seed)
    });
    sim.add_ap(Pos::new(4.0, 4.0), 0, 6);
    sim.add_ap(Pos::new(24.0, 4.0), 0, 6);
    for i in 0..14 {
        let pos = Pos::new((i % 7) as f64 * 4.0, 6.0 + (i / 7) as f64 * 3.0);
        sim.add_client(client(pos, 40.0));
    }
    for ch in 0..3 {
        sim.add_sniffer(SnifferConfig {
            pos: Pos::new(14.0, 6.0),
            channel_idx: ch,
            ..SnifferConfig::default()
        });
    }
    Scenario {
        name: "channel-mgmt".to_string(),
        duration_us: 10 * SECOND,
        sim,
    }
}

/// Two co-channel APs whose clients precede every data frame above 256
/// bytes with RTS/CTS, so overhearers set NAV on most exchanges.
fn rts_cell(seed: u64) -> Scenario {
    let mut sim = Simulator::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(10.0, 10.0), 0, 6);
    sim.add_ap(Pos::new(40.0, 10.0), 0, 6);
    for i in 0..16 {
        let pos = Pos::new(2.0 + (i % 8) as f64 * 6.0, 4.0 + (i / 8) as f64 * 12.0);
        sim.add_client(ClientConfig {
            rts_policy: RtsPolicy::Threshold(256),
            ..client(pos, 20.0)
        });
    }
    sim.add_sniffer(SnifferConfig {
        pos: Pos::new(25.0, 10.0),
        channel_idx: 0,
        ..SnifferConfig::default()
    });
    Scenario {
        name: "rts".to_string(),
        duration_us: 6 * SECOND,
        sim,
    }
}

/// One AP whose clients fragment every data MSDU above
/// [`FRAG_THRESHOLD`] into a SIFS-separated burst.
fn frag_cell(seed: u64) -> Scenario {
    let mut sim = Simulator::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        ..SimConfig::default()
    });
    sim.add_ap(Pos::new(16.0, 10.0), 0, 6);
    for i in 0..10 {
        let pos = Pos::new(6.0 + (i % 5) as f64 * 5.0, 4.0 + (i / 5) as f64 * 12.0);
        sim.add_client(ClientConfig {
            frag_threshold: Some(FRAG_THRESHOLD),
            // Uplink only: the AP does not fragment its downlink.
            traffic: TrafficProfile {
                uplink: FlowConfig::poisson(25.0, SizeDist::ietf_mix()),
                downlink: FlowConfig::off(),
            },
            ..client(pos, 25.0)
        });
    }
    sim.add_sniffer(SnifferConfig {
        pos: Pos::new(16.0, 12.0),
        channel_idx: 0,
        ..SnifferConfig::default()
    });
    Scenario {
        name: "frag".to_string(),
        duration_us: 6 * SECOND,
        sim,
    }
}

/// The golden cell set: fig4's two sessions plus ablation_knee's
/// (seed × load) ramp grid, at smoke scale; then one cell per MAC path the
/// small cells barely reach — a dense ramp (many idle listeners per frame),
/// an RTS-heavy cell (NAV), dynamic channel assignment and fragmentation.
fn golden_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for seed in [21u64, 22, 23] {
        cells.push(Cell::new(format!("day seed={seed}"), seed, move || {
            ietf_day(tiny_day(seed))
        }));
    }
    for seed in [31u64, 32, 33] {
        cells.push(Cell::new(format!("plenary seed={seed}"), seed, move || {
            ietf_plenary(tiny_plenary(seed))
        }));
    }
    for seed in [101u64, 102, 103] {
        for fps in [1.3f64, 1.7] {
            cells.push(Cell::new(
                format!("ramp seed={seed} fps={fps:.1}"),
                seed,
                move || load_ramp(seed, 12, 10, fps),
            ));
        }
    }
    cells.push(Cell::new("dense ramp seed=111 users=150", 111, || {
        load_ramp(111, 150, 4, 1.7)
    }));
    cells.push(Cell::new("rts seed=121", 121, || rts_cell(121)));
    cells.push(Cell::new("channel-mgmt seed=131", 131, || {
        channel_mgmt_cell(131)
    }));
    cells.push(Cell::new("frag seed=141", 141, || frag_cell(141)));
    cells
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

    let mut churn = churn_cell();
    churn.run_until(churn.duration_us);
    assert!(churn.mobility.moves > 0, "no walker moved");
    assert!(churn.mobility.roams > 0, "no walker roamed to another AP");

    let mut mid = churn_mid_interval_cell();
    let coherence_us = mid.sim.config.radio.fading.coherence_us;
    assert_ne!(
        mid.tick_us % coherence_us,
        0,
        "ticks land on fade boundaries"
    );
    mid.run_until(mid.duration_us);
    assert!(
        mid.mobility.moves > churn.mobility.moves,
        "the mid-interval cell moved {} times, the 4 s one {}",
        mid.mobility.moves,
        churn.mobility.moves
    );
}

/// The pipelined sim→analysis path must match the serial streaming path
/// byte-for-byte on the golden cell set — same per-second statistics, same
/// counters — and both must match the batch `Scenario::run` denominators.
#[test]
fn pipelined_streaming_matches_serial_on_golden_cells() {
    for cell in golden_cells() {
        let batch = cell.build_scenario().run();
        let serial = run_streaming(cell.build_scenario(), 1_000_000);
        let piped = run_streaming_pipelined(cell.build_scenario(), 1_000_000);
        assert_eq!(
            piped.events_processed, serial.events_processed,
            "{}: pipelined event count diverged",
            cell.label
        );
        assert_eq!(piped.frames_on_air, serial.frames_on_air, "{}", cell.label);
        assert_eq!(piped.medium_stats, serial.medium_stats, "{}", cell.label);
        assert_eq!(piped.queue, serial.queue, "{}", cell.label);
        assert_eq!(
            format!("{:?}", piped.sniffer_stats),
            format!("{:?}", serial.sniffer_stats),
            "{}",
            cell.label
        );
        assert_eq!(
            format!("{:?}", piped.per_sniffer_seconds),
            format!("{:?}", serial.per_sniffer_seconds),
            "{}: pipelined per-second analysis diverged",
            cell.label
        );
        assert_eq!(
            serial.events_processed, batch.events_processed,
            "{}",
            cell.label
        );
        assert_eq!(serial.frames_on_air, batch.frames_on_air, "{}", cell.label);
    }
}
