//! The golden cell set, shared by the golden digests (`golden.rs`) and the
//! component-path oracle tests (`shard_prop.rs`).

use congestion_bench::Cell;
use ietf_workloads::{ietf_day, ietf_plenary, ietf_radio, load_ramp, Scenario, SessionScale};
use wifi_frames::phy::Rate;
use wifi_sim::config::ChannelMgmt;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::ShardSpec;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig};

const SECOND: u64 = 1_000_000;

/// Payload threshold of the fragmentation cell.
pub const FRAG_THRESHOLD: u32 = 512;

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
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        channel_mgmt: Some(ChannelMgmt {
            eval_interval_us: 2 * SECOND,
            switch_ratio: 1.5,
            follow_delay_max_us: 300_000,
        }),
        ..SimConfig::ietf_three_channels(seed)
    });
    spec.add_ap(Pos::new(4.0, 4.0), 0, 6);
    spec.add_ap(Pos::new(24.0, 4.0), 0, 6);
    for i in 0..14 {
        let pos = Pos::new((i % 7) as f64 * 4.0, 6.0 + (i / 7) as f64 * 3.0);
        spec.add_client(client(pos, 40.0));
    }
    for ch in 0..3 {
        spec.add_sniffer(SnifferConfig {
            pos: Pos::new(14.0, 6.0),
            channel_idx: ch,
            ..SnifferConfig::default()
        });
    }
    Scenario::from_spec("channel-mgmt", 10 * SECOND, spec)
}

/// Two co-channel APs whose clients precede every data frame above 256
/// bytes with RTS/CTS, so overhearers set NAV on most exchanges.
fn rts_cell(seed: u64) -> Scenario {
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        ..SimConfig::default()
    });
    spec.add_ap(Pos::new(10.0, 10.0), 0, 6);
    spec.add_ap(Pos::new(40.0, 10.0), 0, 6);
    for i in 0..16 {
        let pos = Pos::new(2.0 + (i % 8) as f64 * 6.0, 4.0 + (i / 8) as f64 * 12.0);
        spec.add_client(ClientConfig {
            rts_policy: RtsPolicy::Threshold(256),
            ..client(pos, 20.0)
        });
    }
    spec.add_sniffer(SnifferConfig {
        pos: Pos::new(25.0, 10.0),
        channel_idx: 0,
        ..SnifferConfig::default()
    });
    Scenario::from_spec("rts", 6 * SECOND, spec)
}

/// One AP whose clients fragment every data MSDU above
/// [`FRAG_THRESHOLD`] into a SIFS-separated burst.
fn frag_cell(seed: u64) -> Scenario {
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        radio: ietf_radio(seed),
        ..SimConfig::default()
    });
    spec.add_ap(Pos::new(16.0, 10.0), 0, 6);
    for i in 0..10 {
        let pos = Pos::new(6.0 + (i % 5) as f64 * 5.0, 4.0 + (i / 5) as f64 * 12.0);
        spec.add_client(ClientConfig {
            frag_threshold: Some(FRAG_THRESHOLD),
            // Uplink only: the AP does not fragment its downlink.
            traffic: TrafficProfile {
                uplink: FlowConfig::poisson(25.0, SizeDist::ietf_mix()),
                downlink: FlowConfig::off(),
            },
            ..client(pos, 25.0)
        });
    }
    spec.add_sniffer(SnifferConfig {
        pos: Pos::new(16.0, 12.0),
        channel_idx: 0,
        ..SnifferConfig::default()
    });
    Scenario::from_spec("frag", 6 * SECOND, spec)
}

/// The golden cell set: fig4's two sessions plus ablation_knee's
/// (seed × load) ramp grid, at smoke scale; then one cell per MAC path the
/// small cells barely reach — a dense ramp (many idle listeners per frame),
/// an RTS-heavy cell (NAV), dynamic channel assignment and fragmentation.
pub fn golden_cells() -> Vec<Cell> {
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
