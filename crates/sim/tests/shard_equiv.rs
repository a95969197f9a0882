//! Sharded ≡ unsharded: the RF-isolation partitioning must not move a
//! single byte of simulated output.
//!
//! A [`ShardSpec`] is materialized twice — once as one per-channel
//! simulator, once as partitioned component simulators — and everything
//! observable must match:
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
//! cascade and ghost bookkeeping depends on how events distribute over
//! wheels — observability, not simulated output.
//!
//! The property test drives this across random campus topologies (hall
//! count, spacing, per-hall population, channel layouts, sniffer
//! placement), random shard caps, and both materializations.
//!
//! The second half does the same for **time-window lockstep sharding**
//! ([`ShardSpec::partition_lockstep`]): dense single-cell topologies where
//! every station is coupled, split by BSS and advanced in bounded windows
//! with cross-shard TxStart/TxEnd ghost exchange. The serial driver here
//! replicates the round protocol of `congestion_bench::streaming` (publish
//! → apply in shard order → skip-ahead), and the same byte-identity must
//! hold for every `(max_shards, window)` within the safe-window bound.

use proptest::prelude::*;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::SECOND;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::{ShardSpec, DEFAULT_LOCKSTEP_WINDOW_US};
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, RemoteNotice, SimConfig, Simulator};

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

fn observe(mut sims: Vec<(Simulator, Vec<usize>)>, until: u64, sniffers: usize) -> Observed {
    for (sim, _) in &mut sims {
        sim.run_until(until);
    }
    collect(sims, sniffers)
}

/// Gathers the comparable output of already-run simulators. Passive shell
/// stations (lockstep shards materialize the full roster) are skipped: they
/// hold no simulated state, and their owners report the real counters.
fn collect(mut sims: Vec<(Simulator, Vec<usize>)>, sniffers: usize) -> Observed {
    let mut sniffer_traces = vec![Vec::new(); sniffers];
    let mut sniffer_stats = vec![String::new(); sniffers];
    let mut station_stats = Vec::new();
    let mut ground_truth = Vec::new();
    let mut medium_stats = Vec::new();
    let (mut transmissions, mut delivered, mut retry_drops, mut events) = (0, 0, 0, 0);
    for (sim, sniffer_idx) in &mut sims {
        for (local, &global) in sniffer_idx.iter().enumerate() {
            sniffer_traces[global] = std::mem::take(&mut sim.sniffers_mut()[local].trace);
            sniffer_stats[global] = format!("{:?}", sim.sniffers()[local].stats);
        }
        for (i, st) in sim.stations().iter().enumerate() {
            if sim.hot().shell[i] {
                continue;
            }
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

/// A campus: `halls` separated far beyond the coupling floor, each with one
/// AP per channel and `per_hall` clients spread over the channels.
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
/// range, including `max_shards = 1` (partitioned media in one simulator).
#[test]
fn campus_sharded_matches_unsharded() {
    let spec = campus(42, 3, 6, 3, 5_000.0, &[0, 2]);
    for max_shards in [1, 2, 16] {
        assert_equivalent(&spec, 4 * SECOND, max_shards);
    }
}

/// One hall only: the "partitioned" build degenerates to per-channel media
/// and must still match.
#[test]
fn single_hall_is_identity() {
    let spec = campus(7, 1, 8, 2, 5_000.0, &[0]);
    assert_equivalent(&spec, 3 * SECOND, 8);
}

/// Serial reference implementation of the lockstep round protocol: run every
/// shard to the window end, exchange TxStart/TxEnd notices (each shard
/// applies its siblings' batches in shard order, never its own), then all
/// shards move to the same next window — skipping ahead when every shard is
/// idle past the window. Mirrors `run_lockstep` in
/// `congestion_bench::streaming` minus the threads and barriers; the merged
/// output must not depend on which driver ran the protocol. It takes the
/// next window from the *post-exchange* queues — the definition that the
/// threaded driver's one-barrier rule (pre-exchange times plus the
/// notices' ghost `CsBusy` times) reproduces.
fn run_lockstep_serial(sims: &mut [Simulator], window_us: u64, until: u64) {
    let w = window_us;
    let mut outboxes: Vec<Vec<RemoteNotice>> = vec![Vec::new(); sims.len()];
    let mut start = 0u64;
    loop {
        let target = (start + w - 1).min(until);
        for sim in sims.iter_mut() {
            sim.run_until(target);
        }
        if target == until {
            // Final window: leftover notices could only seed events past
            // the end of the run.
            break;
        }
        for (slot, sim) in outboxes.iter_mut().zip(sims.iter_mut()) {
            slot.clear();
            sim.drain_remote_notices(slot);
        }
        let mut min_next = u64::MAX;
        for (dst, sim) in sims.iter_mut().enumerate() {
            for (src, batch) in outboxes.iter().enumerate() {
                if src == dst {
                    continue;
                }
                for notice in batch {
                    sim.apply_remote_tx(notice);
                }
            }
            min_next = min_next.min(sim.next_event_time().unwrap_or(u64::MAX));
        }
        let mut next = start + w;
        if min_next > target {
            next = next.max(min_next.min(until) / w * w);
        }
        start = next.min(until / w * w);
    }
}

fn assert_lockstep_equivalent(spec: &ShardSpec, until: u64, max_shards: usize, window_us: u64) {
    let sniffers = spec.sniffer_count();
    let unsharded = observe(
        vec![(spec.build_unsharded(), (0..sniffers).collect())],
        until,
        sniffers,
    );
    let plan = spec
        .partition_lockstep(max_shards, window_us)
        .expect("dense-cell test scenarios admit a lockstep split");
    assert!(
        plan.shards.len() >= 2,
        "lockstep plan did not split (max_shards={max_shards})"
    );
    let mut sims: Vec<Simulator> = plan
        .shards
        .iter()
        .map(|s| spec.build_lockstep_shard(s))
        .collect();
    run_lockstep_serial(&mut sims, window_us, until);
    let lockstep = collect(
        sims.into_iter()
            .zip(&plan.shards)
            .map(|(sim, s)| (sim, s.sniffer_indices().collect()))
            .collect(),
        sniffers,
    );

    let tag = format!("(max_shards={max_shards}, window={window_us})");
    assert_eq!(
        lockstep.sniffer_traces, unsharded.sniffer_traces,
        "lockstep sniffer traces diverged {tag}"
    );
    assert_eq!(lockstep.sniffer_stats, unsharded.sniffer_stats, "{tag}");
    assert_eq!(lockstep.station_stats, unsharded.station_stats, "{tag}");
    assert_eq!(lockstep.ground_truth, unsharded.ground_truth, "{tag}");
    assert_eq!(lockstep.medium_stats, unsharded.medium_stats, "{tag}");
    assert_eq!(lockstep.transmissions, unsharded.transmissions, "{tag}");
    assert_eq!(lockstep.delivered, unsharded.delivered, "{tag}");
    assert_eq!(lockstep.retry_drops, unsharded.retry_drops, "{tag}");
    assert_eq!(
        lockstep.events_processed, unsharded.events_processed,
        "lockstep events-processed denominator diverged {tag}"
    );
}

/// One dense cell: `aps` base stations a few tens of meters apart — far
/// inside the coupling range, so every station carrier-senses every other
/// and the component partitioner sees a single blob per channel. Clients
/// cluster around their AP; sniffers sit in the middle of the cell.
fn dense_cell(seed: u64, aps: usize, per_ap: usize, channels: usize, spacing: f64) -> ShardSpec {
    let chans: Vec<wifi_frames::phy::Channel> = [1u8, 6, 11][..channels]
        .iter()
        .map(|&c| wifi_frames::phy::Channel::new(c).unwrap())
        .collect();
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        channels: chans,
        ..SimConfig::default()
    });
    for a in 0..aps {
        spec.add_ap(Pos::new(a as f64 * spacing, 0.0), a % channels, 6);
    }
    for a in 0..aps {
        for i in 0..per_ap {
            spec.add_client(ClientConfig {
                pos: Pos::new(a as f64 * spacing + 2.0 + 3.0 * i as f64, 4.0),
                channel_idx: a % channels,
                rts_policy: if i % 5 == 0 {
                    RtsPolicy::Threshold(400)
                } else {
                    RtsPolicy::Never
                },
                adaptation: RateAdaptation::Arf(wifi_frames::phy::Rate::R11),
                traffic: traffic(2.0 + (i % 4) as f64),
                join_at_us: ((a + i) as u64 % 4) * 100_000,
                leave_at_us: None,
                power_save_interval_us: if i % 3 == 0 { Some(10_000_000) } else { None },
                frag_threshold: if (a + i) % 7 == 0 { Some(600) } else { None },
            });
        }
    }
    for ch in 0..channels {
        spec.add_sniffer(SnifferConfig {
            pos: Pos::new(spacing * (aps - 1) as f64 / 2.0, 2.0),
            channel_idx: ch,
            ..SnifferConfig::default()
        });
    }
    spec
}

/// Deterministic lockstep anchor: one coupled cell of three BSSes, split
/// across shard caps and window widths (the full safe range ends at the
/// 10 µs overlap guard).
#[test]
fn dense_cell_lockstep_matches_unsharded() {
    let spec = dense_cell(23, 3, 4, 2, 40.0);
    for (max_shards, window_us) in [
        (2, DEFAULT_LOCKSTEP_WINDOW_US),
        (3, DEFAULT_LOCKSTEP_WINDOW_US),
        (8, 1),
        (3, 7),
    ] {
        assert_lockstep_equivalent(&spec, 2 * SECOND, max_shards, window_us);
    }
}

proptest! {
    /// Random dense cells: AP count, per-BSS population, channel count, AP
    /// spacing, shard cap, and lockstep window — the merged lockstep output
    /// must stay byte-identical to the unsharded run for all of them.
    fn random_dense_cell_lockstep_equivalence(
        seed in 0u64..1_000,
        aps in 2usize..5,
        per_ap in 1usize..4,
        channels in 1usize..3,
        spacing_sel in 0usize..3,
        max_shards in 2usize..8,
        window_us in 1u64..=10,
    ) {
        let spacing = [15.0, 40.0, 90.0][spacing_sel];
        let spec = dense_cell(seed, aps, per_ap, channels, spacing);
        assert_lockstep_equivalent(&spec, SECOND / 2, max_shards, window_us);
    }
}

proptest! {
    /// Random topologies: hall count, population, channel count, sniffer
    /// placement, and shard cap.
    fn random_campus_equivalence(
        seed in 0u64..1_000,
        halls in 1usize..4,
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
            4_000.0,
            &[sniffer_hall % halls],
        );
        assert_equivalent(&spec, SECOND, max_shards);
    }
}
