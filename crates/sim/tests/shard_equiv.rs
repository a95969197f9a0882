//! Sharded ≡ unsharded: the RF-isolation partitioning must not move a
//! single byte of simulated output.
//!
//! A [`ShardSpec`] is materialized twice — once as one per-channel
//! simulator over every station, once as per-channel shard simulators over
//! groups of RF-isolation components — and everything observable must
//! match:
//!
//! * per-sniffer traces, byte-identical (each sniffer lives in exactly one
//!   shard, so no merging is involved);
//! * per-station counters, keyed by the scenario-wide build index;
//! * ground-truth records as a canonically-ordered multiset (same-timestamp
//!   records from *different* components have no defined mutual order, so
//!   both sides sort by a canonical key before comparing);
//! * summed per-channel medium stats, ground-truth counters, and the
//!   events-processed denominator (per-entity event counts are exact, so
//!   the shard sum reproduces the global count).
//!
//! Timing-wheel churn (`QueueStats`) is deliberately *not* compared:
//! cascade bookkeeping depends on how events distribute over wheels —
//! observability, not simulated output.
//!
//! The property test drives this across random campus topologies (hall
//! count, spacing, per-hall population, channel layouts, sniffer
//! placement), random shard caps, and both materializations. The spacing
//! straddles the coupling range, so packed shards put same-channel halls
//! just past the floor on one medium, where only the coupling filters keep
//! them apart.

use proptest::prelude::*;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::SECOND;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::ShardSpec;
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

/// Canonical order for ground-truth records: timestamp first, then the full
/// record rendering as a tiebreak — total, and independent of which
/// component emitted the frame.
fn canonical(records: &mut [FrameRecord]) {
    records.sort_by(|a, b| {
        a.timestamp_us
            .cmp(&b.timestamp_us)
            .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
    });
}

/// Everything we compare from one materialization.
struct Observed {
    sniffer_traces: Vec<Vec<FrameRecord>>,
    sniffer_stats: Vec<String>,
    station_stats: Vec<(u64, String)>,
    ground_truth: Vec<FrameRecord>,
    medium_stats: Vec<(u64, u64)>,
    transmissions: u64,
    delivered: u64,
    retry_drops: u64,
    events_processed: u64,
}

/// Runs every simulator to `until` and gathers the comparable output.
fn observe(mut sims: Vec<(Simulator, Vec<usize>)>, until: u64, sniffers: usize) -> Observed {
    let mut sniffer_traces = vec![Vec::new(); sniffers];
    let mut sniffer_stats = vec![String::new(); sniffers];
    let mut station_stats = Vec::new();
    let mut ground_truth = Vec::new();
    let mut medium_stats = Vec::new();
    let (mut transmissions, mut delivered, mut retry_drops, mut events) = (0, 0, 0, 0);
    for (sim, sniffer_idx) in &mut sims {
        sim.run_until(until);
        for (local, &global) in sniffer_idx.iter().enumerate() {
            sniffer_traces[global] = std::mem::take(&mut sim.sniffers_mut()[local].trace);
            sniffer_stats[global] = format!("{:?}", sim.sniffers()[local].stats);
        }
        for (i, st) in sim.stations().iter().enumerate() {
            station_stats.push((sim.hot().key[i], format!("{:?}", st.stats)));
        }
        ground_truth.extend(sim.ground_truth.records.iter().copied());
        if medium_stats.is_empty() {
            medium_stats = sim.medium_stats();
        } else {
            for (acc, (tx, coll)) in medium_stats.iter_mut().zip(sim.medium_stats()) {
                acc.0 += tx;
                acc.1 += coll;
            }
        }
        transmissions += sim.ground_truth.transmissions;
        delivered += sim.ground_truth.delivered;
        retry_drops += sim.ground_truth.retry_drops;
        events += sim.events_processed();
    }
    station_stats.sort_by_key(|&(key, _)| key);
    canonical(&mut ground_truth);
    Observed {
        sniffer_traces,
        sniffer_stats,
        station_stats,
        ground_truth,
        medium_stats,
        transmissions,
        delivered,
        retry_drops,
        events_processed: events,
    }
}

fn assert_equivalent(spec: &ShardSpec, until: u64, max_shards: usize) {
    let sniffers = spec.sniffer_count();
    let unsharded = observe(
        vec![(spec.build_unsharded(), (0..sniffers).collect())],
        until,
        sniffers,
    );
    let plan = spec
        .partition(max_shards)
        .expect("test scenarios are shardable");
    let sims = plan
        .shards
        .iter()
        .map(|s| (spec.build_shard(s), s.sniffer_indices().collect()))
        .collect();
    let sharded = observe(sims, until, sniffers);

    assert_eq!(
        sharded.sniffer_traces, unsharded.sniffer_traces,
        "sniffer traces diverged (max_shards={max_shards})"
    );
    assert_eq!(sharded.sniffer_stats, unsharded.sniffer_stats);
    assert_eq!(sharded.station_stats, unsharded.station_stats);
    assert_eq!(
        unsharded.ground_truth.len() as u64,
        unsharded.transmissions,
        "the ground-truth tape must be recorded for the comparison to bite"
    );
    assert_eq!(sharded.ground_truth, unsharded.ground_truth);
    assert_eq!(sharded.medium_stats, unsharded.medium_stats);
    assert_eq!(sharded.transmissions, unsharded.transmissions);
    assert_eq!(sharded.delivered, unsharded.delivered);
    assert_eq!(sharded.retry_drops, unsharded.retry_drops);
    assert_eq!(
        sharded.events_processed, unsharded.events_processed,
        "events-processed denominator diverged"
    );
}

fn traffic(fps: f64) -> TrafficProfile {
    TrafficProfile {
        uplink: FlowConfig::bursty(fps * 0.25, SizeDist::ietf_mix(), 20.0),
        downlink: FlowConfig::bursty(fps, SizeDist::ietf_mix(), 25.0),
    }
}

/// A campus: `halls` placed `spacing` metres apart, each with one AP per
/// channel and `per_hall` clients spread over the channels.
fn campus(
    seed: u64,
    halls: usize,
    per_hall: usize,
    channels: usize,
    spacing: f64,
    sniffer_halls: &[usize],
) -> ShardSpec {
    let chans: Vec<wifi_frames::phy::Channel> = [1u8, 6, 11][..channels]
        .iter()
        .map(|&c| wifi_frames::phy::Channel::new(c).unwrap())
        .collect();
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        channels: chans,
        record_ground_truth: true, // compared as a multiset
        ..SimConfig::default()
    });
    for h in 0..halls {
        let x = h as f64 * spacing;
        for ch in 0..channels {
            spec.add_ap(Pos::new(x + 10.0 * ch as f64, 0.0), ch, 6);
        }
    }
    for h in 0..halls {
        let x = h as f64 * spacing;
        for i in 0..per_hall {
            spec.add_client(ClientConfig {
                pos: Pos::new(x + 3.0 * i as f64, 5.0 + (i % 3) as f64),
                channel_idx: i % channels,
                rts_policy: if i % 7 == 0 {
                    RtsPolicy::Threshold(400)
                } else {
                    RtsPolicy::Never
                },
                adaptation: RateAdaptation::Arf(wifi_frames::phy::Rate::R11),
                traffic: traffic(2.0 + (i % 4) as f64),
                join_at_us: (i as u64 % 5) * 200_000,
                leave_at_us: None,
                power_save_interval_us: if i % 3 == 0 { Some(10_000_000) } else { None },
                frag_threshold: if i % 11 == 0 { Some(600) } else { None },
            });
        }
    }
    for &h in sniffer_halls {
        for ch in 0..channels {
            spec.add_sniffer(SnifferConfig {
                pos: Pos::new(h as f64 * spacing + 8.0, 3.0),
                channel_idx: ch,
                ..SnifferConfig::default()
            });
        }
    }
    spec
}

/// The deterministic anchor: a three-hall campus across the full shard-cap
/// range, including `max_shards = 1` (every hall in one simulator, sharing
/// its channels' media).
#[test]
fn campus_sharded_matches_unsharded() {
    let spec = campus(42, 3, 6, 3, 5_000.0, &[0, 2]);
    for max_shards in [1, 2, 16] {
        assert_equivalent(&spec, 4 * SECOND, max_shards);
    }
}

/// One hall only: the shard build is the whole scenario and must still
/// match.
#[test]
fn single_hall_is_identity() {
    let spec = campus(7, 1, 8, 2, 5_000.0, &[0]);
    assert_equivalent(&spec, 3 * SECOND, 8);
}

/// The distance at which the default radio's path RSSI falls to the
/// effective coupling floor (about 680 m).
fn coupling_range_m() -> f64 {
    let radio = SimConfig::default().radio;
    radio.range_at_dbm(radio.effective_coupling_floor_dbm())
}

proptest! {
    /// Random topologies: hall count, hall spacing around the coupling
    /// range, population, channel count, sniffer placement, and shard cap.
    fn random_campus_equivalence(
        seed in 0u64..1_000,
        halls in 1usize..4,
        spacing_factor in 0.9f64..1.2,
        per_hall in 1usize..5,
        channels in 1usize..4,
        sniffer_hall in 0usize..4,
        max_shards in 1usize..10,
    ) {
        let spec = campus(
            seed,
            halls,
            per_hall,
            channels,
            spacing_factor * coupling_range_m(),
            &[sniffer_hall % halls],
        );
        assert_equivalent(&spec, SECOND, max_shards);
    }
}
