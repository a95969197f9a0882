//! Sharded ≡ unsharded under *mobility*: moves that change the coupling
//! cut mid-run must not move a byte of simulated output.
//!
//! A serial mobile driver advances component shards in coherence-tick
//! lockstep (moves only apply at tick boundaries), maintains a driver-side
//! [`SensingTopology`] incrementally, and watches for coupling-graph drift
//! with [`ShardPlan::drifted`]. When a move makes the natural cut escape
//! the current plan's medium grouping, the driver accumulates the
//! constraint edges of every signature seen so far
//! ([`CouplingSignature::constraint_edges`]), re-partitions with
//! [`ShardSpec::partition_with`], and deterministically restarts from t=0
//! replaying the same move schedule — the protocol documented in
//! `docs/DETERMINISM.md` §mobility. Plans only coarsen under accumulated
//! constraints, so the restart loop terminates; the merged result must be
//! byte-identical to an unsharded simulator driven through the identical
//! move schedule.

use wifi_frames::record::FrameRecord;
use wifi_frames::timing::SECOND;
use wifi_sim::geometry::Pos;
use wifi_sim::rate::RateAdaptation;
use wifi_sim::shard::{ShardPlan, ShardSpec};
use wifi_sim::sniffer::SnifferConfig;
use wifi_sim::station::RtsPolicy;
use wifi_sim::topology::SensingTopology;
use wifi_sim::traffic::{FlowConfig, SizeDist, TrafficProfile};
use wifi_sim::{ClientConfig, SimConfig, Simulator};

/// Reassociation hysteresis used by both drivers.
const HYSTERESIS_DB: f64 = 0.0;

/// One scheduled move: at tick boundary `at_us`, station `node` appears at
/// `pos` (ascending `(at_us, node)` — the canonical application order).
type MoveSchedule = Vec<(u64, usize, Pos)>;

fn canonical(records: &mut [FrameRecord]) {
    records.sort_by(|a, b| {
        a.timestamp_us
            .cmp(&b.timestamp_us)
            .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
    });
}

struct Observed {
    sniffer_traces: Vec<Vec<FrameRecord>>,
    station_stats: Vec<(u64, String)>,
    ground_truth: Vec<FrameRecord>,
    transmissions: u64,
    events_processed: u64,
}

/// Gathers the comparable output of already-run simulators (each paired
/// with its global sniffer indices).
fn collect(mut sims: Vec<(Simulator, Vec<usize>)>, sniffers: usize) -> Observed {
    let mut sniffer_traces = vec![Vec::new(); sniffers];
    let mut station_stats = Vec::new();
    let mut ground_truth = Vec::new();
    let (mut transmissions, mut events) = (0, 0);
    for (sim, sniffer_idx) in &mut sims {
        for (local, &global) in sniffer_idx.iter().enumerate() {
            sniffer_traces[global] = std::mem::take(&mut sim.sniffers_mut()[local].trace);
        }
        for (i, st) in sim.stations().iter().enumerate() {
            station_stats.push((sim.hot().key[i], format!("{:?}", st.stats)));
        }
        ground_truth.extend(sim.ground_truth.records.iter().copied());
        transmissions += sim.ground_truth.transmissions;
        events += sim.events_processed();
    }
    station_stats.sort_by_key(|&(key, _)| key);
    canonical(&mut ground_truth);
    Observed {
        sniffer_traces,
        station_stats,
        ground_truth,
        transmissions,
        events_processed: events,
    }
}

/// The unsharded reference: one simulator, the same tick loop, the same
/// two-pass move-then-reassociate boundary protocol.
fn run_unsharded_mobile(
    spec: &ShardSpec,
    schedule: &MoveSchedule,
    until: u64,
    tick: u64,
) -> Observed {
    let mut sim = spec.build_unsharded();
    let mut now = 0u64;
    while now < until {
        now = (now + tick).min(until);
        sim.run_until(now);
        if now < until {
            let due: Vec<_> = schedule.iter().filter(|&&(at, _, _)| at == now).collect();
            for &&(_, node, pos) in &due {
                sim.move_station(node, pos);
            }
            for &&(_, node, _) in &due {
                sim.reassociate_strongest(node, HYSTERESIS_DB);
            }
        }
    }
    collect(
        vec![(sim, (0..spec.sniffer_count()).collect())],
        spec.sniffer_count(),
    )
}

/// Does the natural cut `sig` stay inside `plan`'s *medium* grouping?
/// Components become media of a shard's partitioned simulator, so any
/// united pair landing in different media — even of the same shard —
/// means a coupled interaction (or an argmax AP) the plan cannot express.
fn cut_contained(
    sig: &wifi_sim::shard::CouplingSignature,
    plan: &ShardPlan,
    n: usize,
    sniffers: usize,
) -> bool {
    // Entity (stations, then sniffers) → globally unique (shard, medium).
    let mut medium_of = vec![(usize::MAX, usize::MAX); n + sniffers];
    for (si, shard) in plan.shards.iter().enumerate() {
        for (gi, medium) in shard.station_media() {
            medium_of[gi] = (si, medium);
        }
        for (gs, medium) in shard.sniffer_media() {
            medium_of[n + gs] = (si, medium);
        }
    }
    sig.constraint_edges()
        .iter()
        .all(|&(a, b)| medium_of[a] == medium_of[b])
}

/// The mobile sharded driver: ticks, drift detection, constrained
/// re-partition with deterministic restart. Returns the merged observation
/// and how many restarts the schedule forced.
fn run_sharded_mobile(
    spec: &ShardSpec,
    station_pos: &[Pos],
    sniffer_pos: &[Pos],
    schedule: &MoveSchedule,
    until: u64,
    tick: u64,
    max_shards: usize,
) -> (Observed, usize) {
    let radio = spec.config().radio;
    let n = station_pos.len();
    let mut keep: Vec<(usize, usize)> = Vec::new();
    let mut restarts = 0usize;
    'attempt: loop {
        // The driver's topology starts at the build positions — the plan
        // must be valid for the whole replayed history.
        let mut topo = SensingTopology::default();
        topo.rebuild(station_pos, sniffer_pos, &radio);
        let plan = spec
            .partition_with(max_shards, &topo, &keep)
            .expect("test scenarios are shardable");
        let mut sims: Vec<Simulator> = plan.shards.iter().map(|s| spec.build_shard(s)).collect();
        // Global station → (shard, local node id).
        let mut loc = vec![(usize::MAX, usize::MAX); n];
        for (si, shard) in plan.shards.iter().enumerate() {
            for (local, gi) in shard.station_indices().enumerate() {
                loc[gi] = (si, local);
            }
        }
        let mut now = 0u64;
        while now < until {
            now = (now + tick).min(until);
            for sim in &mut sims {
                sim.run_until(now);
            }
            if now >= until {
                break;
            }
            let due: Vec<_> = schedule.iter().filter(|&&(at, _, _)| at == now).collect();
            if due.is_empty() {
                continue;
            }
            for &&(_, node, pos) in &due {
                let (si, local) = loc[node];
                sims[si].move_station(local, pos);
                topo.update_station(node, pos, &radio);
            }
            for &&(_, node, _) in &due {
                let (si, local) = loc[node];
                sims[si].reassociate_strongest(local, HYSTERESIS_DB);
            }
            // Epoch boundary: has the natural cut drifted out of the plan?
            if plan.drifted(spec, &topo) {
                let sig = spec
                    .coupling_signature(&topo)
                    .expect("coverage was checked at partition time");
                if !cut_contained(&sig, &plan, n, sniffer_pos.len()) {
                    // The new cut crosses the shard grouping: accumulate
                    // the constraints of both the plan's cut and the new
                    // one, and deterministically restart from t=0.
                    keep.extend(plan.signature.constraint_edges());
                    keep.extend(sig.constraint_edges());
                    restarts += 1;
                    assert!(restarts <= n, "restart loop failed to converge");
                    continue 'attempt;
                }
                // Drift that stays inside the grouping (a split, or a merge
                // already co-shard) is exact without re-partitioning.
            }
        }
        let observed = collect(
            sims.into_iter()
                .zip(&plan.shards)
                .map(|(sim, s)| (sim, s.sniffer_indices().collect()))
                .collect(),
            sniffer_pos.len(),
        );
        return (observed, restarts);
    }
}

fn traffic(fps: f64) -> TrafficProfile {
    TrafficProfile {
        uplink: FlowConfig::bursty(fps * 0.25, SizeDist::ietf_mix(), 20.0),
        downlink: FlowConfig::bursty(fps, SizeDist::ietf_mix(), 25.0),
    }
}

/// Two halls far beyond the coupling floor, one AP + `per_hall` clients
/// each, a sniffer in each hall. Returns the spec, the recorded positions,
/// and the node id of the "walker" (last client of hall A).
fn two_halls(seed: u64, per_hall: usize, spacing: f64) -> (ShardSpec, Vec<Pos>, Vec<Pos>, usize) {
    let mut spec = ShardSpec::new(SimConfig {
        seed,
        record_ground_truth: true, // compared as a multiset
        ..SimConfig::default()
    });
    let mut station_pos = Vec::new();
    let add_ap = |spec: &mut ShardSpec, pos: Pos, sp: &mut Vec<Pos>| {
        spec.add_ap(pos, 0, 6);
        sp.push(pos);
    };
    let mut walker = 0usize;
    add_ap(&mut spec, Pos::new(0.0, 0.0), &mut station_pos);
    add_ap(&mut spec, Pos::new(spacing, 0.0), &mut station_pos);
    for hall in 0..2 {
        let x0 = hall as f64 * spacing;
        for i in 0..per_hall {
            let pos = Pos::new(x0 + 3.0 + 2.0 * i as f64, 4.0);
            let node = spec.add_client(ClientConfig {
                pos,
                channel_idx: 0,
                rts_policy: RtsPolicy::Never,
                adaptation: RateAdaptation::Arf(wifi_frames::phy::Rate::R11),
                traffic: traffic(2.0 + i as f64),
                join_at_us: i as u64 * 100_000,
                leave_at_us: None,
                power_save_interval_us: None,
                frag_threshold: None,
            });
            station_pos.push(pos);
            if hall == 0 && i == per_hall - 1 {
                walker = node;
            }
        }
    }
    let mut sniffer_pos = Vec::new();
    for hall in 0..2 {
        let pos = Pos::new(hall as f64 * spacing + 5.0, 2.0);
        spec.add_sniffer(SnifferConfig {
            pos,
            channel_idx: 0,
            ..SnifferConfig::default()
        });
        sniffer_pos.push(pos);
    }
    (spec, station_pos, sniffer_pos, walker)
}

#[allow(clippy::too_many_arguments)]
fn assert_mobile_equivalent(
    spec: &ShardSpec,
    station_pos: &[Pos],
    sniffer_pos: &[Pos],
    schedule: &MoveSchedule,
    until: u64,
    tick: u64,
    max_shards: usize,
    expect_restart: bool,
) {
    let unsharded = run_unsharded_mobile(spec, schedule, until, tick);
    let (sharded, restarts) = run_sharded_mobile(
        spec,
        station_pos,
        sniffer_pos,
        schedule,
        until,
        tick,
        max_shards,
    );
    if expect_restart {
        assert!(restarts > 0, "schedule was built to change the cut");
    } else {
        assert_eq!(restarts, 0, "stable schedule must keep the plan");
    }
    assert_eq!(
        sharded.sniffer_traces, unsharded.sniffer_traces,
        "sniffer traces diverged under mobility"
    );
    assert_eq!(sharded.station_stats, unsharded.station_stats);
    assert_eq!(
        unsharded.ground_truth.len() as u64,
        unsharded.transmissions,
        "the ground-truth tape must be recorded for the comparison to bite"
    );
    assert_eq!(sharded.ground_truth, unsharded.ground_truth);
    assert_eq!(sharded.transmissions, unsharded.transmissions);
    assert_eq!(
        sharded.events_processed, unsharded.events_processed,
        "events-processed denominator diverged under mobility"
    );
}

/// A walker crosses from hall A to hall B mid-run: its coupling edges and
/// argmax AP flip to the other component, the drift detector fires, and
/// the constrained re-partition (both halls forced co-shard) reproduces
/// the unsharded run exactly.
#[test]
fn move_changing_component_cut_matches_unsharded() {
    let (spec, station_pos, sniffer_pos, walker) = two_halls(42, 3, 5_000.0);
    let tick = SECOND / 2;
    let schedule: MoveSchedule = vec![
        // First hop stays inside hall A; the cut is unchanged.
        (tick, walker, Pos::new(12.0, 6.0)),
        // Second hop lands next to hall B's AP: cut change.
        (2 * tick, walker, Pos::new(5_003.0, 2.0)),
    ];
    for max_shards in [2, 8] {
        assert_mobile_equivalent(
            &spec,
            &station_pos,
            &sniffer_pos,
            &schedule,
            2 * SECOND,
            tick,
            max_shards,
            true,
        );
    }
}

/// Moves that keep the cut (wandering within the home hall) never trigger
/// a re-partition and still match.
#[test]
fn stable_moves_keep_plan_and_match_unsharded() {
    let (spec, station_pos, sniffer_pos, walker) = two_halls(7, 3, 5_000.0);
    let tick = SECOND / 2;
    let schedule: MoveSchedule = vec![
        (tick, walker, Pos::new(10.0, 8.0)),
        (2 * tick, walker, Pos::new(1.0, 6.0)),
        (3 * tick, walker, Pos::new(14.0, 1.0)),
    ];
    assert_mobile_equivalent(
        &spec,
        &station_pos,
        &sniffer_pos,
        &schedule,
        2 * SECOND,
        tick,
        8,
        false,
    );
}
