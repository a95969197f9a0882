//! Chunked scenario execution with streaming per-second analysis.
//!
//! [`Scenario::run`] buffers every captured frame until the end and analyzes
//! post hoc — O(frames) peak memory, which at congestion-knee scale is the
//! dominant allocation. The drivers here instead run one serial chunk loop:
//! advance the simulator to the next chunk boundary (repeated `run_until`
//! calls are pure continuations of the same event queue, so results are
//! identical), then fold every sniffer's drained trace into its
//! [`SecondAccumulator`] on the calling thread. Peak memory is
//! O(chunk + seconds), however long the run.
//!
//! - [`run_streaming`]: the loop advances a [`Scenario`]'s simulator.
//! - [`run_streaming_mobile`]: the loop advances a [`MobileScenario`],
//!   whose own tick schedule ([`MobileScenario::run_until`]) moves the
//!   walkers between continuations.
//! - [`run_sharded`]: intra-scenario parallelism. The scenario runs
//!   unsharded when [`wifi_sim::shard::ShardSpec::partition`] declines,
//!   and otherwise as RF-isolation component shards, each streamed by
//!   `run_streaming`'s loop on a worker. Every shard's result merges, by
//!   global sniffer index and by sums, into a run byte-identical to the
//!   unsharded one.

use congestion::persec::{SecondAccumulator, SecondStats};
use ietf_workloads::{MobileScenario, Scenario, ShardScenario};
use wifi_frames::timing::Micros;
use wifi_sim::events::QueueStats;
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::Shard;
use wifi_sim::sniffer::SnifferStats;
use wifi_sim::Simulator;

/// What a streaming run yields: the analysis, plus the counters the run
/// reports and perf baselines need. Raw traces are intentionally absent —
/// not buffering them is the point.
#[derive(Default)]
pub struct StreamedRun {
    /// Scenario name.
    pub name: String,
    /// Per-sniffer per-second statistics (same order as the sniffers).
    pub per_sniffer_seconds: Vec<Vec<SecondStats>>,
    /// Capture-performance counters per sniffer.
    pub sniffer_stats: Vec<SnifferStats>,
    /// `(transmissions, collisions)` per channel.
    pub medium_stats: Vec<(u64, u64)>,
    /// Discrete events processed.
    pub events_processed: u64,
    /// Ground-truth transmission count (independent of trace recording).
    pub frames_on_air: u64,
    /// Event-queue churn counters (pushed/popped/stale-dropped/cascaded).
    pub queue: QueueStats,
}

/// The streaming analysis of one simulator's sniffers: the result path of
/// every driver.
struct Analysis {
    accs: Vec<SecondAccumulator>,
}

impl Analysis {
    fn new(sim: &Simulator) -> Analysis {
        let accs = sim
            .sniffers()
            .iter()
            .map(|_| SecondAccumulator::new())
            .collect();
        Analysis { accs }
    }

    /// The one chunk loop: advances `run` to `duration_us` in steps of at
    /// most `chunk_us`, and after every step drains each sniffer's captured
    /// frames into its accumulator, in capture order.
    fn stream(&mut self, run: &mut impl Advance, duration_us: Micros, chunk_us: Micros) {
        let chunk_us = chunk_us.max(1);
        let mut now: Micros = 0;
        while now < duration_us {
            now = (now + chunk_us).min(duration_us);
            let sim = run.advance(now);
            for (acc, sniffer) in self.accs.iter_mut().zip(sim.sniffers_mut()) {
                for record in sniffer.trace.drain(..) {
                    acc.push(record);
                }
            }
        }
    }

    /// The finished run: the per-second series plus `sim`'s counters.
    fn finish(self, name: String, sim: &Simulator) -> StreamedRun {
        StreamedRun {
            name,
            per_sniffer_seconds: self
                .accs
                .into_iter()
                .map(SecondAccumulator::finish)
                .collect(),
            sniffer_stats: sim.sniffers().iter().map(|s| s.stats).collect(),
            medium_stats: sim.medium_stats(),
            events_processed: sim.events_processed(),
            frames_on_air: sim.ground_truth.transmissions,
            queue: sim.queue_stats(),
        }
    }
}

/// What the chunk loop advances: a simulator, or a mobile scenario that
/// moves its walkers at its own tick boundaries on the way.
trait Advance {
    /// Runs to `until` and returns the simulator whose traces to drain.
    fn advance(&mut self, until: Micros) -> &mut Simulator;
}

impl Advance for Simulator {
    fn advance(&mut self, until: Micros) -> &mut Simulator {
        self.run_until(until);
        self
    }
}

impl Advance for MobileScenario {
    fn advance(&mut self, until: Micros) -> &mut Simulator {
        self.run_until(until);
        &mut self.sim
    }
}

/// Runs `scenario` to completion in `chunk_us` steps, folding captured
/// frames into per-sniffer accumulators as they appear.
///
/// ```
/// use congestion_bench::streaming::run_streaming;
/// use ietf_workloads::load_ramp;
///
/// let run = run_streaming(load_ramp(7, 4, 2, 1.0), 1_000_000);
/// assert!(run.events_processed > 0);
/// for seconds in &run.per_sniffer_seconds {
///     assert_eq!(seconds.len(), 2); // one row per simulated second
/// }
/// ```
pub fn run_streaming(mut scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    let mut analysis = Analysis::new(&scenario.sim);
    analysis.stream(&mut scenario.sim, scenario.duration_us, chunk_us);
    analysis.finish(scenario.name, &scenario.sim)
}

/// Mobility counters of a finished [`run_streaming_mobile`] run, reported
/// alongside the [`StreamedRun`] for the churn trajectory entries.
#[derive(Clone, Copy, Debug)]
pub struct MobilityStats {
    /// Walkers registered with the waypoint model.
    pub walkers: usize,
    /// Positions applied via `Simulator::move_station`.
    pub moves: u64,
    /// Roams triggered via `Simulator::reassociate_strongest`.
    pub roams: u64,
}

/// [`run_streaming`] for a [`MobileScenario`]: the same chunk loop, with
/// the waypoint walkers advanced at every mobility-tick boundary by the
/// scenario's own schedule ([`MobileScenario::run_until`]), so the stream
/// reproduces [`MobileScenario::run`] for any chunk size.
pub fn run_streaming_mobile(
    mut scenario: MobileScenario,
    chunk_us: Micros,
) -> (StreamedRun, MobilityStats) {
    let mut analysis = Analysis::new(&scenario.sim);
    let duration_us = scenario.duration_us;
    analysis.stream(&mut scenario, duration_us, chunk_us);
    let stats = MobilityStats {
        walkers: scenario.mobility.walker_count(),
        moves: scenario.mobility.moves,
        roams: scenario.mobility.roams,
    };
    (analysis.finish(scenario.name, &scenario.sim), stats)
}

/// [`run_streaming`] under its former name. Kept only because the frozen
/// `perfbench/` calls it by name; ROADMAP item 6's benchmark PR moves
/// `perfbench/` to [`run_streaming`] and deletes this forward.
pub fn run_streaming_pipelined(scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    run_streaming(scenario, chunk_us)
}

/// What a sharded run yields: the merged [`StreamedRun`] plus how the
/// scenario was cut up.
pub struct ShardedRun {
    /// The merged result — field-for-field comparable with an unsharded
    /// [`run_streaming`] of the same scenario (`queue` excepted: timing-
    /// wheel churn like cascade counts depends on how events distribute
    /// over wheels, so it is observability, not output).
    pub run: StreamedRun,
    /// Sub-simulators the scenario ran as (1 when sharding declined).
    pub shards: usize,
    /// RF-isolation components found (the parallelism ceiling).
    pub components: usize,
    /// Always `false`: production runs no lockstep sharding. Kept only for
    /// perfbench's traced pass until ROADMAP item 1's benchmark PR.
    pub lockstep: bool,
}

/// One shard's result: its sniffers' global indices, and its run.
type ShardRun = (Vec<usize>, StreamedRun);

/// Runs a recorded scenario with intra-scenario parallelism:
///
/// - **unsharded** when [`wifi_sim::shard::ShardSpec::partition`]
///   declines (dynamic channel management, or a client whose channel has
///   no AP);
/// - **RF-isolation components** ([`wifi_sim::shard`]) otherwise, packed
///   into at most `max_shards` shards, each streamed by [`run_streaming`]'s
///   loop on the [`run_parallel`] work queue across `threads` workers.
///
/// The per-shard results merge into one [`StreamedRun`]. Every sniffer
/// lives in exactly one shard, so per-sniffer seconds and counters need no
/// cross-shard merging — they are placed by global sniffer index. Channel-
/// level medium stats and the scalar counters sum. The merged output is
/// identical to the unsharded run for any `max_shards` and `threads`
/// (`tests/shard_prop.rs` pins this): determinism comes from per-entity RNG
/// streams keyed by scenario-wide build indices, not from the schedule.
///
/// ```
/// use congestion_bench::streaming::{run_sharded, run_streaming};
/// use ietf_workloads::{ietf_plenary, ietf_plenary_sharded, SessionScale};
///
/// let scale = SessionScale { seed: 3, users: 24, duration_s: 1, activity: 1.0, rts_fraction: 0.0 };
/// let sharded = run_sharded(ietf_plenary_sharded(scale), 1_000_000, 4, 6);
/// // One coupled cell per channel: three component shards.
/// assert_eq!((sharded.components, sharded.shards), (3, 3));
///
/// // The merged result reproduces the serial run bit for bit.
/// let serial = run_streaming(ietf_plenary(scale), 1_000_000);
/// assert_eq!(sharded.run.events_processed, serial.events_processed);
/// assert_eq!(sharded.run.medium_stats, serial.medium_stats);
/// assert_eq!(
///     format!("{:?}", sharded.run.per_sniffer_seconds),
///     format!("{:?}", serial.per_sniffer_seconds),
/// );
/// ```
pub fn run_sharded(
    scenario: ShardScenario,
    chunk_us: Micros,
    threads: usize,
    max_shards: usize,
) -> ShardedRun {
    let ShardScenario {
        name,
        duration_us,
        spec,
    } = scenario;
    let stream_shard = |sim: Simulator| {
        let shard = Scenario {
            name: String::new(),
            duration_us,
            sim,
        };
        run_streaming(shard, chunk_us)
    };
    let (runs, components): (Vec<ShardRun>, usize) = match spec.partition(max_shards) {
        None => {
            let all_sniffers = (0..spec.sniffer_count()).collect();
            let run = stream_shard(spec.build_unsharded());
            (vec![(all_sniffers, run)], 1)
        }
        Some(plan) => {
            // Sub-simulators are built inside the worker (a Simulator is
            // not Send; the spec is).
            let runs = run_parallel(&plan.shards, threads, |shard: &Shard| {
                (
                    shard.sniffer_indices().collect(),
                    stream_shard(spec.build_shard(shard)),
                )
            });
            (runs, plan.components)
        }
    };
    ShardedRun {
        shards: runs.len(),
        run: merge(name, runs),
        components,
        lockstep: false,
    }
}

/// Merges per-shard runs into one. Placement and sums only: every sniffer
/// lives in exactly one shard, and medium stats and the scalar counters
/// are disjoint per shard, so the merge is exact.
fn merge(name: String, runs: Vec<ShardRun>) -> StreamedRun {
    let mut sniffers = Vec::new();
    let mut merged = StreamedRun::default();
    for (indices, run) in runs {
        sniffers.extend(
            indices
                .into_iter()
                .zip(run.per_sniffer_seconds.into_iter().zip(run.sniffer_stats)),
        );
        merged.medium_stats.resize(run.medium_stats.len(), (0, 0));
        for (sum, (tx, coll)) in merged.medium_stats.iter_mut().zip(run.medium_stats) {
            sum.0 += tx;
            sum.1 += coll;
        }
        merged.events_processed += run.events_processed;
        merged.frames_on_air += run.frames_on_air;
        merged.queue.pushed += run.queue.pushed;
        merged.queue.popped += run.queue.popped;
        merged.queue.stale_dropped += run.queue.stale_dropped;
        merged.queue.cascaded += run.queue.cascaded;
    }
    // The shards' sniffers together are the whole roster, once each.
    sniffers.sort_by_key(|&(gi, _)| gi);
    debug_assert!(sniffers.iter().enumerate().all(|(i, &(gi, _))| i == gi));
    (merged.per_sniffer_seconds, merged.sniffer_stats) =
        sniffers.into_iter().map(|(_, sniffer)| sniffer).unzip();
    merged.name = name;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::analyze;
    use ietf_workloads::load_ramp;

    /// The streaming path must reproduce the batch path exactly: same
    /// events, same captures, same per-second statistics.
    #[test]
    fn streaming_matches_batch_run() {
        let batch = load_ramp(7, 8, 6, 1.5).run();
        let streamed = run_streaming(load_ramp(7, 8, 6, 1.5), 750_000);
        assert_eq!(streamed.events_processed, batch.events_processed);
        assert_eq!(streamed.frames_on_air, batch.frames_on_air);
        assert_eq!(streamed.medium_stats, batch.medium_stats);
        assert_eq!(streamed.sniffer_stats.len(), batch.sniffer_stats.len());
        for (s, b) in streamed.sniffer_stats.iter().zip(&batch.sniffer_stats) {
            assert_eq!(s.captured, b.captured);
            assert_eq!(s.total_on_air(), b.total_on_air());
        }
        for (seconds, trace) in streamed.per_sniffer_seconds.iter().zip(&batch.traces) {
            let expect = analyze(trace);
            assert_eq!(seconds.len(), expect.len());
            for (got, want) in seconds.iter().zip(&expect) {
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
    }

    /// The mobile driver must reproduce the batch mobile run — events,
    /// captures, per-second statistics and walker moves — whether chunks
    /// end before, on or after the mobility ticks, and when the duration
    /// is not a whole number of ticks.
    #[test]
    fn streaming_mobile_matches_batch() {
        use ietf_workloads::{mobile_venue, ChurnScale};
        let scenario = || {
            let mut sc = mobile_venue(ChurnScale {
                seed: 7,
                users: 24,
                duration_s: 3,
                activity: 1.5,
                walker_fraction: 1.0,
            });
            sc.tick_us = 300_000;
            sc.duration_us = 2_150_000;
            sc
        };
        let batch = scenario().run();
        let mut walked = scenario();
        walked.run_until(walked.duration_us);
        let (moves, roams) = (walked.mobility.moves, walked.mobility.roams);
        assert!(moves > 0, "walkers moved");
        for chunk_us in [100_000u64, 300_000, 700_000] {
            let (run, stats) = run_streaming_mobile(scenario(), chunk_us);
            assert_eq!(run.events_processed, batch.events_processed);
            assert_eq!(run.frames_on_air, batch.frames_on_air);
            assert_eq!(run.medium_stats, batch.medium_stats);
            assert_eq!(
                format!("{:?}", run.sniffer_stats),
                format!("{:?}", batch.sniffer_stats)
            );
            assert_eq!((stats.moves, stats.roams), (moves, roams));
            for (seconds, trace) in run.per_sniffer_seconds.iter().zip(&batch.traces) {
                assert_eq!(format!("{seconds:?}"), format!("{:?}", analyze(trace)));
            }
        }
    }

    /// A sharded campus run must merge to exactly the unsharded streaming
    /// result — for every shard cap and worker count (queue churn excepted;
    /// see [`ShardedRun::run`]).
    #[test]
    fn sharded_campus_matches_unsharded() {
        use ietf_workloads::{venue_campus, CampusScale};
        let scale = CampusScale {
            seed: 5,
            halls: 3,
            users: 24,
            duration_s: 6,
            activity: 1.0,
        };
        let reference = venue_campus(scale);
        let baseline = run_streaming(
            Scenario {
                name: reference.name.clone(),
                duration_us: reference.duration_us,
                sim: reference.spec.build_unsharded(),
            },
            1_000_000,
        );
        for (threads, max_shards) in [(1, 1), (1, 16), (4, 16), (4, 3)] {
            let sharded = run_sharded(venue_campus(scale), 1_000_000, threads, max_shards);
            assert!(
                sharded.shards <= max_shards,
                "shard cap violated (got {} shards, cap {max_shards})",
                sharded.shards
            );
            if max_shards > 1 {
                assert!(
                    sharded.shards > 1,
                    "campus should actually shard (got {} shards, cap {max_shards})",
                    sharded.shards
                );
            }
            // 3 halls × 3 channels of mutually isolated cells.
            assert_eq!(sharded.components, 9);
            let run = &sharded.run;
            assert_eq!(run.events_processed, baseline.events_processed);
            assert_eq!(run.frames_on_air, baseline.frames_on_air);
            assert_eq!(run.medium_stats, baseline.medium_stats);
            assert_eq!(
                format!("{:?}", run.sniffer_stats),
                format!("{:?}", baseline.sniffer_stats)
            );
            for (s, b) in run
                .per_sniffer_seconds
                .iter()
                .zip(&baseline.per_sniffer_seconds)
            {
                assert_eq!(format!("{s:?}"), format!("{b:?}"));
            }
        }
    }

    /// The plenary — one dense coupled cell per channel — plans as its
    /// three RF-isolation components, and the component shards merge to
    /// exactly the unsharded streaming result for every `(threads,
    /// max_shards)`.
    #[test]
    fn plenary_plans_as_components() {
        use ietf_workloads::{ietf_plenary_sharded, SessionScale};
        let scale = SessionScale {
            seed: 13,
            users: 40,
            duration_s: 4,
            activity: 1.5,
            rts_fraction: 0.02,
        };
        let reference = ietf_plenary_sharded(scale);
        let baseline = run_streaming(
            Scenario {
                name: reference.name.clone(),
                duration_us: reference.duration_us,
                sim: reference.spec.build_unsharded(),
            },
            1_000_000,
        );
        for (threads, max_shards) in [(1, 1), (1, 6), (4, 2), (4, 6)] {
            let sharded = run_sharded(ietf_plenary_sharded(scale), 1_000_000, threads, max_shards);
            assert_eq!(
                sharded.components, 3,
                "the plenary is one coupled cell per channel"
            );
            assert_eq!(sharded.shards, max_shards.min(3));
            assert!(!sharded.lockstep);
            let run = &sharded.run;
            assert_eq!(run.events_processed, baseline.events_processed);
            assert_eq!(run.frames_on_air, baseline.frames_on_air);
            assert_eq!(run.medium_stats, baseline.medium_stats);
            assert_eq!(
                format!("{:?}", run.sniffer_stats),
                format!("{:?}", baseline.sniffer_stats)
            );
            for (s, b) in run
                .per_sniffer_seconds
                .iter()
                .zip(&baseline.per_sniffer_seconds)
            {
                assert_eq!(format!("{s:?}"), format!("{b:?}"));
            }
        }
    }

    /// Chunk size must not matter — continuations are exact.
    #[test]
    fn chunk_size_is_invisible() {
        let coarse = run_streaming(load_ramp(9, 6, 5, 1.5), 5_000_000);
        let fine = run_streaming(load_ramp(9, 6, 5, 1.5), 100_000);
        assert_eq!(coarse.events_processed, fine.events_processed);
        assert_eq!(coarse.frames_on_air, fine.frames_on_air);
        for (c, f) in coarse
            .per_sniffer_seconds
            .iter()
            .zip(&fine.per_sniffer_seconds)
        {
            assert_eq!(format!("{c:?}"), format!("{f:?}"));
        }
    }
}
