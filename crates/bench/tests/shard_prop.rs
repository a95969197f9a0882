//! Properties of the component runs against their whole-simulator oracles.
//!
//! - `run_sharded` merges to exactly `run_streaming`'s result for any
//!   campus shape, shard cap, and worker count. This is the end-to-end
//!   counterpart of `wifi-sim/tests/shard_equiv.rs`: that test pins raw
//!   simulator state (traces, station counters, ground truth); this one
//!   pins the full sharded *pipeline* — partition, parallel per-shard
//!   streaming analysis, merge — against the serial unsharded path, across
//!   `max_shards ∈ {1, auto}` and `threads ∈ {1, 4}`.
//! - `Scenario::run`, which runs a static scenario one RF-isolation
//!   component at a time when it plans two or more, equals the whole
//!   materialization (the built simulator run as one event loop) field by
//!   field, `stations` order included, on random multi-channel builds and
//!   on every golden cell; `run_streaming` matches it second by second.
//! - The scenarios that must run whole do: one-component plans, channel
//!   management, and runs that record the ground-truth tape.
//!
//! Queue churn is excluded throughout: how events spread over timing
//! wheels is observability, not output (see `ShardedRun::run`).

mod common;

use common::golden_cells;
use congestion::analyze;
use congestion_bench::streaming::{run_sharded, run_streaming, StreamedRun};
use ietf_workloads::scenario::HALL_SPACING;
use ietf_workloads::{
    ietf_plenary, ietf_radio, load_ramp, venue_campus, CampusScale, RunPlan, Scenario,
    ScenarioResult, SessionScale,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wifi_frames::phy::Rate;
use wifi_sim::config::ChannelMgmt;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::ShardSpec;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::TrafficProfile;
use wifi_sim::{ClientConfig, SimConfig};

const SECOND: u64 = 1_000_000;

fn assert_runs_match(got: &StreamedRun, want: &StreamedRun, label: &str) {
    assert_eq!(
        got.events_processed, want.events_processed,
        "{label}: events"
    );
    assert_eq!(got.frames_on_air, want.frames_on_air, "{label}: frames");
    assert_eq!(got.medium_stats, want.medium_stats, "{label}: medium");
    assert_eq!(
        format!("{:?}", got.sniffer_stats),
        format!("{:?}", want.sniffer_stats),
        "{label}: sniffer stats"
    );
    assert_eq!(
        got.per_sniffer_seconds.len(),
        want.per_sniffer_seconds.len(),
        "{label}: sniffer count"
    );
    for (i, (g, w)) in got
        .per_sniffer_seconds
        .iter()
        .zip(&want.per_sniffer_seconds)
        .enumerate()
    {
        assert_eq!(
            format!("{g:?}"),
            format!("{w:?}"),
            "{label}: sniffer {i} seconds"
        );
    }
}

/// `scenario` without its spec: its built simulator, run as one event loop.
fn whole(scenario: Scenario) -> Scenario {
    Scenario {
        spec: None,
        ..scenario
    }
}

/// Every output field of two batch results, in order.
fn assert_results_match(got: &ScenarioResult, want: &ScenarioResult, label: &str) {
    assert_eq!(got.name, want.name, "{label}: name");
    assert_eq!(got.traces, want.traces, "{label}: traces");
    assert_eq!(
        format!("{:?}", got.sniffer_stats),
        format!("{:?}", want.sniffer_stats),
        "{label}: sniffer stats"
    );
    assert_eq!(got.ground_truth, want.ground_truth, "{label}: ground truth");
    assert_eq!(got.medium_stats, want.medium_stats, "{label}: medium");
    assert_eq!(
        format!("{:?}", got.stations),
        format!("{:?}", want.stations),
        "{label}: stations"
    );
    assert_eq!(
        got.events_processed, want.events_processed,
        "{label}: events"
    );
    assert_eq!(got.frames_on_air, want.frames_on_air, "{label}: frames");
}

/// A streamed run against a batch result: the same counters, and each
/// sniffer's seconds equal to `analyze` over its whole trace.
fn assert_stream_matches(got: &StreamedRun, want: &ScenarioResult, label: &str) {
    assert_eq!(
        got.events_processed, want.events_processed,
        "{label}: events"
    );
    assert_eq!(got.frames_on_air, want.frames_on_air, "{label}: frames");
    assert_eq!(got.medium_stats, want.medium_stats, "{label}: medium");
    assert_eq!(
        format!("{:?}", got.sniffer_stats),
        format!("{:?}", want.sniffer_stats),
        "{label}: sniffer stats"
    );
    assert_eq!(got.per_sniffer_seconds.len(), want.traces.len(), "{label}");
    for (i, (seconds, trace)) in got.per_sniffer_seconds.iter().zip(&want.traces).enumerate() {
        assert_eq!(
            format!("{seconds:?}"),
            format!("{:?}", analyze(trace)),
            "{label}: sniffer {i} seconds"
        );
    }
}

/// A random small build: `halls` rooms [`HALL_SPACING`] apart, each with
/// one AP per orthogonal channel, and `clients` clients and `sniffers`
/// sniffers at random spots on random channels. Every channel of every
/// hall is its own RF-isolation component (more where a room's clients
/// spread out of range), and a sniffer out of everyone's range is a silent
/// one.
fn random_spec(seed: u64, halls: usize, clients: usize, sniffers: usize) -> ShardSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut spec = ShardSpec::new(SimConfig {
        radio: ietf_radio(seed),
        ..SimConfig::ietf_three_channels(seed)
    });
    for hall in 0..halls {
        for ch in 0..3 {
            let x = hall as f64 * HALL_SPACING + 10.0 + 20.0 * ch as f64;
            spec.add_ap(Pos::new(x, 18.0), ch, 6);
        }
    }
    let spot = |rng: &mut SmallRng| {
        let hall = rng.gen_range(0..halls);
        Pos::new(
            hall as f64 * HALL_SPACING + rng.gen_range(0.0..300.0),
            rng.gen_range(0.0..36.0),
        )
    };
    for _ in 0..clients {
        let pos = spot(&mut rng);
        let rts = rng.gen_bool(0.2);
        let leave = rng.gen_bool(0.3);
        spec.add_client(ClientConfig {
            pos,
            channel_idx: rng.gen_range(0..3),
            rts_policy: if rts {
                RtsPolicy::Threshold(256)
            } else {
                RtsPolicy::Never
            },
            adaptation: RateAdaptation::Arf(Rate::R11),
            traffic: TrafficProfile::symmetric(rng.gen_range(2.0..40.0)),
            join_at_us: rng.gen_range(0..SECOND),
            leave_at_us: leave.then(|| rng.gen_range(SECOND..2 * SECOND)),
            power_save_interval_us: None,
            frag_threshold: None,
        });
    }
    for _ in 0..sniffers {
        let pos = spot(&mut rng);
        spec.add_sniffer(SnifferConfig {
            pos,
            channel_idx: rng.gen_range(0..3),
            ..SnifferConfig::default()
        });
    }
    spec
}

proptest! {
    fn sharded_pipeline_matches_serial(
        seed in 0u64..10_000,
        halls in 1usize..4,
        users in 2usize..14,
        cap_auto in 0u8..2,
        four_threads in 0u8..2,
        chunk_sel in 0usize..3,
    ) {
        // One (max_shards, threads) point per case; 256 cases sweep the
        // {1, auto} × {1, 4} grid many times over.
        let max_shards = if cap_auto == 1 { usize::MAX } else { 1 };
        let threads = if four_threads == 1 { 4 } else { 1 };
        let chunk_us = [250_000u64, 1_000_000, 10_000_000][chunk_sel];
        let scale = CampusScale { seed, halls, users, duration_s: 2, activity: 1.0 };
        let reference = venue_campus(scale);
        let baseline = run_streaming(
            Scenario {
                name: reference.name.clone(),
                duration_us: reference.duration_us,
                spec: None,
                sim: reference.spec.build_unsharded(),
            },
            chunk_us,
        );
        let sharded = run_sharded(venue_campus(scale), chunk_us, threads, max_shards);
        prop_assert!(sharded.shards >= 1 && sharded.shards <= sharded.components);
        assert_runs_match(
            &sharded.run,
            &baseline,
            &format!("shards={max_shards} threads={threads}"),
        );
    }

    fn component_runs_match_the_whole(
        seed in 0u64..10_000,
        halls in 1usize..3,
        clients in 0usize..16,
        sniffers in 1usize..5,
        chunk_sel in 0usize..3,
    ) {
        let chunk_us = [250_000u64, 1_000_000, 10_000_000][chunk_sel];
        let scenario = || {
            let spec = random_spec(seed, halls, clients, sniffers);
            Scenario::from_spec("random", 2 * SECOND, spec)
        };
        // Three channels of APs are three components at least.
        prop_assert!(matches!(scenario().plan().2, RunPlan::Components(..)));
        let want = whole(scenario()).run();
        let label = format!("seed={seed} halls={halls} clients={clients} sniffers={sniffers}");
        assert_results_match(&scenario().run(), &want, &label);
        assert_stream_matches(&run_streaming(scenario(), chunk_us), &want, &label);
    }
}

/// Every golden cell runs to the same output as its whole simulator, by
/// `Scenario::run` and by `run_streaming`. The sessions are the cells that
/// run as components (one per channel); the single-channel cells plan one
/// component and the channel-managed one declines, so they run whole.
#[test]
fn component_runs_match_the_whole_on_golden_cells() {
    for cell in golden_cells() {
        let label = &cell.label;
        let session = label.starts_with("day") || label.starts_with("plenary");
        let components = matches!(cell.build_scenario().plan().2, RunPlan::Components(..));
        assert_eq!(components, session, "{label}: which path");
        let want = whole(cell.build_scenario()).run();
        assert_results_match(&cell.build_scenario().run(), &want, label);
        assert_stream_matches(
            &run_streaming(cell.build_scenario(), 1_000_000),
            &want,
            label,
        );
    }
}

/// The scenarios the component path must leave whole: a one-component
/// plan (a load ramp, on the simulator its builder built), a
/// channel-managed build (the planner declines), and a run that records
/// the ground-truth tape, which still comes back full.
#[test]
fn whole_path_cases_run_whole() {
    let ramp = load_ramp(5, 12, 2, 1.5);
    assert!(matches!(ramp.plan().2, RunPlan::Whole(_)));

    let mut spec = random_spec(7, 2, 12, 3);
    spec.config_mut().channel_mgmt = Some(ChannelMgmt {
        eval_interval_us: SECOND,
        switch_ratio: 1.5,
        follow_delay_max_us: 300_000,
    });
    let managed = Scenario::from_spec("managed", 2 * SECOND, spec);
    assert!(matches!(managed.plan().2, RunPlan::Whole(_)));

    let scale = SessionScale {
        seed: 9,
        users: 30,
        duration_s: 3,
        activity: 3.0,
        rts_fraction: 0.02,
    };
    match ietf_plenary(scale).plan().2 {
        RunPlan::Components(_, shards) => assert_eq!(shards.len(), 3),
        RunPlan::Whole(_) => panic!("the plenary is one component per channel"),
    }
    let taped = || {
        let mut plenary = ietf_plenary(scale);
        plenary.sim.config.record_ground_truth = true;
        plenary
    };
    assert!(matches!(taped().plan().2, RunPlan::Whole(_)));
    let result = taped().run();
    assert!(!result.ground_truth.is_empty());
    assert_eq!(result.ground_truth.len() as u64, result.frames_on_air);
    let untaped = ietf_plenary(scale).run();
    assert!(untaped.ground_truth.is_empty());
    assert_eq!(untaped.traces, result.traces);
    assert_eq!(untaped.frames_on_air, result.frames_on_air);
}
