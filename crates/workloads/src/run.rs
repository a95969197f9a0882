//! Running scenarios: one chunk loop, one component loop, one merge.
//!
//! Every way a scenario runs in the workspace goes through the code here:
//!
//! - **The planner** ([`Scenario::plan`], and [`run_sharded`] on a
//!   [`ShardScenario`]) decides between the whole simulator and its
//!   RF-isolation components ([`wifi_sim::shard`]). It runs whole when the
//!   run records the ground-truth tape (same-microsecond frames of two
//!   components have no key to merge the tape by), when
//!   [`ShardSpec::partition`] declines (channel management, or a client
//!   whose channel has no AP), and when the plan has one shard.
//! - **The chunk loop** advances one simulator from 0 to the run's end. It
//!   stops on every chunk boundary, and on every mobility tick of a
//!   [`MobileScenario`], where the walkers move. At each chunk boundary every
//!   sniffer's new captures go to that sniffer's sink: a whole trace
//!   (`Vec<FrameRecord>`) or a [`SecondAccumulator`] (O(chunk + seconds)
//!   memory however long the run). Successive `run_until` calls are pure
//!   continuations of one event queue, so the chunk size never shows in
//!   the output.
//! - **The component loop** runs a plan's components on the
//!   [`run_parallel`] pool (inline, in plan order, on one thread). Each
//!   simulator is built inside its worker (a `Simulator` is not `Send`; the
//!   spec is), driven and dropped. **The merge** places sniffers and
//!   stations by global index and sums the rest, so a component run equals
//!   the whole run: determinism comes from per-entity RNG streams keyed by
//!   scenario-wide build indices, not from the schedule.
//!
//! The entry points differ only in sink, chunk and threads:
//!
//! | entry point | sink | chunk | threads |
//! |---|---|---|---|
//! | [`Scenario::run`] | whole traces | `duration_us` | 1 |
//! | [`MobileScenario::run`] | whole traces | `duration_us` | 1 (always whole) |
//! | [`run_streaming`] | per-second rows | `chunk_us` | 1 |
//! | [`run_streaming_mobile`] | per-second rows | `chunk_us` | 1 (always whole) |
//! | [`run_sharded`] | per-second rows | `chunk_us` | `threads`, at most `max_shards` shards |
//!
//! Walkers change the coupling cut as they move, so a mobile scenario
//! always runs whole.

use crate::mobility::{MobileScenario, WaypointMobility};
use crate::scenario::{Scenario, ScenarioResult, ShardScenario, StationSummary};
use congestion::persec::{SecondAccumulator, SecondStats};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;
use wifi_sim::events::QueueStats;
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::{by_global_index, Shard, ShardSpec};
use wifi_sim::sniffer::SnifferStats;
use wifi_sim::station::RtsPolicy;
use wifi_sim::Simulator;

/// How a scenario runs, from the planner.
pub enum RunPlan {
    /// The whole simulator, as one event loop.
    Whole(Box<Simulator>),
    /// Two or more shards of RF-isolation components, in plan order
    /// (largest first), each built from the spec.
    Components(ShardSpec, Vec<Shard>),
}

/// Where one sniffer's captures go as a run advances.
trait Sink: Default {
    /// What the sink holds when the run ends.
    type Output: Default + Send;
    /// Whether a run with this sink reports per-station summaries. Whole
    /// traces do; a streamed run would only drop them, after merging
    /// O(stations) of them.
    const STATIONS: bool;
    /// Takes the sniffer's captures since the last call, in capture order,
    /// and leaves `trace` empty.
    fn take(&mut self, trace: &mut Vec<FrameRecord>);
    /// The sniffer's output.
    fn finish(self) -> Self::Output;
}

impl Sink for Vec<FrameRecord> {
    type Output = Vec<FrameRecord>;
    const STATIONS: bool = true;
    /// The first call swaps the buffers, so a one-chunk run hands over each
    /// trace with no copy.
    fn take(&mut self, trace: &mut Vec<FrameRecord>) {
        if self.is_empty() {
            std::mem::swap(self, trace);
        } else {
            self.append(trace);
        }
    }
    fn finish(self) -> Vec<FrameRecord> {
        self
    }
}

impl Sink for SecondAccumulator {
    type Output = Vec<SecondStats>;
    const STATIONS: bool = false;
    fn take(&mut self, trace: &mut Vec<FrameRecord>) {
        for record in trace.drain(..) {
            self.push(record);
        }
    }
    fn finish(self) -> Vec<SecondStats> {
        SecondAccumulator::finish(self)
    }
}

/// One run's output: each sniffer's sink output beside its capture
/// counters, and the simulator's counters (`stations` empty unless the
/// sink keeps them).
#[derive(Default)]
struct Outcome<T> {
    sniffers: Vec<(T, SnifferStats)>,
    stations: Vec<StationSummary>,
    ground_truth: Vec<FrameRecord>,
    medium_stats: Vec<(u64, u64)>,
    events_processed: u64,
    frames_on_air: u64,
    queue: QueueStats,
}

/// The chunk loop: advances `sim` from 0 to `duration_us`, stopping at
/// every multiple of `chunk_us` and, with walkers, of their tick (a zero
/// chunk or tick counts as 1 µs). At a tick before the end the walkers
/// move; the end moves nothing, as nothing is left to observe it. At a
/// chunk boundary every sniffer's captures go to its sink. The loop steps
/// at least once, so a zero-length run still dispatches the events due at
/// 0 µs.
fn drive<S: Sink>(
    sim: &mut Simulator,
    mut walk: Option<(&mut WaypointMobility, Micros)>,
    duration_us: Micros,
    chunk_us: Micros,
) -> Outcome<S::Output> {
    let mut sinks: Vec<S> = sim.sniffers().iter().map(|_| S::default()).collect();
    let chunk_us = chunk_us.max(1);
    let tick_us = walk.as_ref().map_or(Micros::MAX, |&(_, tick)| tick.max(1));
    let next = |now: Micros, step: Micros| (now - now % step).saturating_add(step);
    let mut now = 0;
    loop {
        let chunk_end = next(now, chunk_us).min(duration_us);
        let tick = next(now, tick_us);
        now = chunk_end.min(tick);
        sim.run_until(now);
        if now == tick && now < duration_us {
            if let Some((walkers, _)) = walk.as_mut() {
                walkers.advance(sim, tick_us);
            }
        }
        if now == chunk_end {
            for (sink, sniffer) in sinks.iter_mut().zip(sim.sniffers_mut()) {
                sink.take(&mut sniffer.trace);
            }
        }
        if now >= duration_us {
            return finish(sim, sinks);
        }
    }
}

/// A finished simulator's outcome, with `sinks` in sniffer order.
fn finish<S: Sink>(sim: &mut Simulator, sinks: Vec<S>) -> Outcome<S::Output> {
    let stats = sim.sniffers().iter().map(|s| s.stats);
    let stations = if S::STATIONS { sim.stations() } else { &[] };
    Outcome {
        sniffers: sinks.into_iter().map(S::finish).zip(stats).collect(),
        stations: stations
            .iter()
            .map(|s| StationSummary {
                mac: s.mac,
                is_ap: s.is_ap(),
                uses_rts: s.rts_policy != RtsPolicy::Never,
                delivered: s.stats.delivered,
                attempts: s.stats.tx_attempts,
                retry_drops: s.stats.retry_drops,
                queue_drops: s.stats.queue_drops,
                delay_total_us: s.stats.delivery_delay_total_us,
            })
            .collect(),
        ground_truth: std::mem::take(&mut sim.ground_truth.records),
        medium_stats: sim.medium_stats(),
        events_processed: sim.events_processed(),
        frames_on_air: sim.ground_truth.transmissions,
        queue: sim.queue_stats(),
    }
}

/// The components' outcomes, in plan order, merged into the whole run's:
/// sniffers and stations (when kept) placed by global index (each lives in
/// exactly one shard), medium stats and counters summed (disjoint per
/// shard). Components record no tape: the planner runs a taped scenario
/// whole.
fn merge<T: Default>(shards: &[Shard], parts: Vec<Outcome<T>>) -> Outcome<T> {
    let mut sniffers = Vec::new();
    let mut stations = Vec::new();
    let mut merged = Outcome::default();
    for (shard, part) in shards.iter().zip(parts) {
        debug_assert!(part.ground_truth.is_empty(), "a component taped");
        sniffers.extend(shard.sniffer_indices().zip(part.sniffers));
        stations.extend(shard.station_indices().zip(part.stations));
        merged.medium_stats.resize(part.medium_stats.len(), (0, 0));
        for (sum, (tx, coll)) in merged.medium_stats.iter_mut().zip(part.medium_stats) {
            sum.0 += tx;
            sum.1 += coll;
        }
        merged.events_processed += part.events_processed;
        merged.frames_on_air += part.frames_on_air;
        merged.queue += part.queue;
    }
    merged.sniffers = by_global_index(sniffers);
    merged.stations = by_global_index(stations);
    merged
}

impl RunPlan {
    /// The planner: `spec`'s components, packed into at most `max_shards`
    /// shards, or the whole simulator (see the module docs for when), with
    /// the number of components found (1 when none were sought). `built`
    /// is the scenario's whole simulator, built and not yet run, if it has
    /// one: the components are built against its live config, and a whole
    /// plan runs it rather than building another. A component plan drops
    /// it, so its fade table and topology are freed before the first
    /// component is built.
    fn new(mut spec: ShardSpec, built: Option<Simulator>, max_shards: usize) -> (RunPlan, usize) {
        if let Some(sim) = &built {
            debug_assert!(
                sim.now() == 0
                    && sim.stations().len() == spec.station_count()
                    && sim.sniffers().len() == spec.sniffer_count(),
                "a scenario's simulator is its spec's unrun materialization"
            );
            *spec.config_mut() = sim.config.clone();
        }
        let partition = if spec.config().record_ground_truth {
            None
        } else {
            spec.partition(max_shards)
        };
        match partition {
            Some(plan) if plan.shards.len() > 1 => {
                (RunPlan::Components(spec, plan.shards), plan.components)
            }
            plan => {
                let sim = built.unwrap_or_else(|| spec.build_unsharded());
                let components = plan.map_or(1, |plan| plan.components);
                (RunPlan::Whole(Box::new(sim)), components)
            }
        }
    }

    /// Simulators the plan runs.
    fn shards(&self) -> usize {
        match self {
            RunPlan::Whole(_) => 1,
            RunPlan::Components(_, shards) => shards.len(),
        }
    }

    /// The component loop: the whole simulator through the chunk loop, or
    /// each component on `threads` workers, merged.
    fn run<S: Sink>(
        self,
        duration_us: Micros,
        chunk_us: Micros,
        threads: usize,
    ) -> Outcome<S::Output> {
        match self {
            RunPlan::Whole(mut sim) => drive::<S>(&mut sim, None, duration_us, chunk_us),
            RunPlan::Components(spec, shards) => {
                let parts = run_parallel(&shards, threads, |shard: &Shard| {
                    drive::<S>(&mut spec.build_shard(shard), None, duration_us, chunk_us)
                });
                merge(&shards, parts)
            }
        }
    }
}

impl Outcome<Vec<FrameRecord>> {
    fn into_result(self, name: String) -> ScenarioResult {
        let (traces, sniffer_stats) = self.sniffers.into_iter().unzip();
        ScenarioResult {
            name,
            traces,
            sniffer_stats,
            ground_truth: self.ground_truth,
            medium_stats: self.medium_stats,
            stations: self.stations,
            events_processed: self.events_processed,
            frames_on_air: self.frames_on_air,
            queue: self.queue,
        }
    }
}

impl Outcome<Vec<SecondStats>> {
    fn into_streamed(self, name: String) -> StreamedRun {
        let (per_sniffer_seconds, sniffer_stats) = self.sniffers.into_iter().unzip();
        StreamedRun {
            name,
            per_sniffer_seconds,
            sniffer_stats,
            medium_stats: self.medium_stats,
            events_processed: self.events_processed,
            frames_on_air: self.frames_on_air,
            queue: self.queue,
        }
    }
}

impl Scenario {
    /// Splits the scenario into its name, its duration and its plan. A
    /// scenario without a spec runs its simulator whole.
    pub fn plan(self) -> (String, Micros, RunPlan) {
        let Scenario {
            name,
            duration_us,
            spec,
            sim,
        } = self;
        let plan = match spec {
            Some(spec) => RunPlan::new(spec, Some(sim), usize::MAX).0,
            None => RunPlan::Whole(Box::new(sim)),
        };
        (name, duration_us, plan)
    }

    /// Runs the scenario to completion and keeps every sniffer's whole
    /// trace: the chunk loop in one chunk, over the whole simulator or one
    /// component after another, as [`Scenario::plan`] says.
    pub fn run(self) -> ScenarioResult {
        let (name, duration_us, plan) = self.plan();
        plan.run::<Vec<FrameRecord>>(duration_us, duration_us, 1)
            .into_result(name)
    }
}

impl MobileScenario {
    /// Runs to completion, the walkers moving at every tick, and keeps
    /// every sniffer's whole trace: the chunk loop in one chunk.
    pub fn run(mut self) -> ScenarioResult {
        self.drive::<Vec<FrameRecord>>(self.duration_us)
            .into_result(self.name)
    }

    /// The chunk loop over the whole simulator and the walkers, which keep
    /// their counters.
    fn drive<S: Sink>(&mut self, chunk_us: Micros) -> Outcome<S::Output> {
        let walk = Some((&mut self.mobility, self.tick_us));
        drive::<S>(&mut self.sim, walk, self.duration_us, chunk_us)
    }
}

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

/// Runs `scenario` to completion in `chunk_us` steps, folding captured
/// frames into per-sniffer accumulators as they appear: whole, or one
/// RF-isolation component after another, as [`Scenario::plan`] says.
///
/// ```
/// use ietf_workloads::load_ramp;
/// use ietf_workloads::run::run_streaming;
///
/// let run = run_streaming(load_ramp(7, 4, 2, 1.0), 1_000_000);
/// assert!(run.events_processed > 0);
/// for seconds in &run.per_sniffer_seconds {
///     assert_eq!(seconds.len(), 2); // one row per simulated second
/// }
/// ```
pub fn run_streaming(scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    let (name, duration_us, plan) = scenario.plan();
    plan.run::<SecondAccumulator>(duration_us, chunk_us, 1)
        .into_streamed(name)
}

/// Mobility counters of a finished [`run_streaming_mobile`] run, reported
/// alongside the [`StreamedRun`].
#[derive(Clone, Copy, Debug)]
pub struct MobilityStats {
    /// Positions applied via `Simulator::move_station`.
    pub moves: u64,
    /// Roams triggered via `Simulator::reassociate_strongest`.
    pub roams: u64,
}

/// [`run_streaming`] for a [`MobileScenario`]: the same chunk loop, the
/// walkers moving at every tick, so the stream reproduces
/// [`MobileScenario::run`] for any chunk size.
pub fn run_streaming_mobile(
    mut scenario: MobileScenario,
    chunk_us: Micros,
) -> (StreamedRun, MobilityStats) {
    let run = scenario.drive::<SecondAccumulator>(chunk_us);
    let stats = MobilityStats {
        moves: scenario.mobility.moves,
        roams: scenario.mobility.roams,
    };
    (run.into_streamed(scenario.name), stats)
}

/// What a sharded run yields: the merged [`StreamedRun`] plus how the
/// scenario was cut up.
pub struct ShardedRun {
    /// The merged result — field-for-field comparable with an unsharded
    /// [`run_streaming`] of the same scenario (`queue` excepted: timing-
    /// wheel churn like cascade counts depends on how events distribute
    /// over wheels, so it is observability, not output).
    pub run: StreamedRun,
    /// Simulators the scenario ran as (1 when it ran whole).
    pub shards: usize,
    /// RF-isolation components found (the parallelism ceiling).
    pub components: usize,
    /// Always `false`: production runs no lockstep sharding. Kept only for
    /// perfbench's traced pass until ROADMAP item 1's benchmark PR.
    pub lockstep: bool,
}

/// Runs a recorded scenario with intra-scenario parallelism: the planner's
/// RF-isolation components, packed into at most `max_shards` shards, on
/// the [`run_parallel`] work queue across `threads` workers; or the whole
/// simulator when the planner keeps it (see the module docs).
///
/// The merged output is identical to the unsharded run for any
/// `max_shards` and `threads` (`tests/shard_prop.rs` in `congestion-bench`
/// pins this).
///
/// ```
/// use ietf_workloads::run::{run_sharded, run_streaming};
/// use ietf_workloads::{ietf_plenary, ietf_plenary_sharded, Scenario, SessionScale};
///
/// let scale = SessionScale { seed: 3, users: 24, duration_s: 1, activity: 1.0, rts_fraction: 0.0 };
/// let sharded = run_sharded(ietf_plenary_sharded(scale), 1_000_000, 4, 6);
/// // One coupled cell per channel: three component shards.
/// assert_eq!((sharded.components, sharded.shards), (3, 3));
///
/// // The merged result reproduces the whole simulator's run bit for bit.
/// let whole = Scenario { spec: None, ..ietf_plenary(scale) };
/// let serial = run_streaming(whole, 1_000_000);
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
    let (plan, components) = RunPlan::new(scenario.spec, None, max_shards);
    let shards = plan.shards();
    let run = plan.run::<SecondAccumulator>(scenario.duration_us, chunk_us, threads);
    ShardedRun {
        run: run.into_streamed(scenario.name),
        shards,
        components,
        lockstep: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::tests::tick_by_tick;
    use crate::{load_ramp, mobile_venue, ChurnScale};
    use congestion::analyze;

    /// A streamed run against whole traces: the same counters, and each
    /// sniffer's seconds equal to `analyze` over its whole trace.
    fn assert_stream_matches(run: &StreamedRun, batch: &ScenarioResult, label: &str) {
        assert_eq!(run.events_processed, batch.events_processed, "{label}");
        assert_eq!(run.frames_on_air, batch.frames_on_air, "{label}");
        assert_eq!(run.medium_stats, batch.medium_stats, "{label}");
        assert_eq!(
            format!("{:?}", run.sniffer_stats),
            format!("{:?}", batch.sniffer_stats),
            "{label}"
        );
        assert_eq!(run.per_sniffer_seconds.len(), batch.traces.len(), "{label}");
        for (seconds, trace) in run.per_sniffer_seconds.iter().zip(&batch.traces) {
            assert_eq!(
                format!("{seconds:?}"),
                format!("{:?}", analyze(trace)),
                "{label}"
            );
        }
    }

    /// Two streamed runs, field by field (queue churn excepted).
    fn assert_runs_match(got: &StreamedRun, want: &StreamedRun) {
        assert_eq!(got.events_processed, want.events_processed);
        assert_eq!(got.frames_on_air, want.frames_on_air);
        assert_eq!(got.medium_stats, want.medium_stats);
        assert_eq!(
            format!("{:?}", got.sniffer_stats),
            format!("{:?}", want.sniffer_stats)
        );
        assert_eq!(
            format!("{:?}", got.per_sniffer_seconds),
            format!("{:?}", want.per_sniffer_seconds)
        );
    }

    /// `scenario` rebuilt without its spec: the whole simulator.
    fn whole(scenario: ShardScenario) -> Scenario {
        Scenario {
            name: scenario.name,
            duration_us: scenario.duration_us,
            spec: None,
            sim: scenario.spec.build_unsharded(),
        }
    }

    /// The streaming path must reproduce the batch path exactly: same
    /// events, same captures, same per-second statistics.
    #[test]
    fn streaming_matches_batch_run() {
        let batch = load_ramp(7, 8, 6, 1.5).run();
        let streamed = run_streaming(load_ramp(7, 8, 6, 1.5), 750_000);
        assert_stream_matches(&streamed, &batch, "ramp");
    }

    /// Chunk size must not matter — continuations are exact.
    #[test]
    fn chunk_size_is_invisible() {
        let coarse = run_streaming(load_ramp(9, 6, 5, 1.5), 5_000_000);
        let fine = run_streaming(load_ramp(9, 6, 5, 1.5), 100_000);
        assert_runs_match(&coarse, &fine);
    }

    /// A zero-length run steps once, to 0 µs, whatever the driver: whole
    /// traces and streamed seconds agree, on a whole plan and on a
    /// component plan.
    #[test]
    fn zero_length_runs_agree() {
        use crate::{ietf_plenary, SessionScale};
        fn at_zero(label: &str, build: impl Fn() -> Scenario) -> u64 {
            let zero = || Scenario {
                duration_us: 0,
                ..build()
            };
            let batch = zero().run();
            assert_stream_matches(&run_streaming(zero(), 1_000_000), &batch, label);
            batch.events_processed
        }
        // The ramp's events due at 0 µs run.
        assert_eq!(at_zero("ramp", || load_ramp(3, 5, 1, 1.0)), 5);
        let scale = SessionScale {
            seed: 3,
            users: 12,
            duration_s: 1,
            activity: 1.0,
            rts_fraction: 0.0,
        };
        assert!(matches!(
            ietf_plenary(scale).plan().2,
            RunPlan::Components(..)
        ));
        at_zero("plenary", || ietf_plenary(scale));
    }

    /// The mobile drivers against the tick-by-tick oracle: events, frames,
    /// sniffer stats, seconds, moves and roams, whether chunks end before,
    /// on or after the mobility ticks, when the duration is not a whole
    /// number of ticks, when it is zero, and when the tick is zero (1 µs).
    #[test]
    fn mobile_runs_match_the_tick_oracle() {
        let cases: [(Micros, Micros, &[Micros]); 3] = [
            (300_000, 2_150_000, &[100_000, 300_000, 700_000]),
            (300_000, 0, &[100_000]),
            (0, 2_000, &[7, 100_000, 300_000, 700_000]),
        ];
        for (tick_us, duration_us, chunks) in cases {
            let scenario = || {
                let mut sc = mobile_venue(ChurnScale {
                    seed: 7,
                    users: 24,
                    duration_s: 3,
                    activity: 1.5,
                    walker_fraction: 1.0,
                });
                sc.tick_us = tick_us;
                sc.duration_us = duration_us;
                sc
            };
            let mut oracle = scenario();
            tick_by_tick(&mut oracle);
            let walkers = oracle.mobility.walker_count() as u64;
            let (moves, roams) = (oracle.mobility.moves, oracle.mobility.roams);
            let label = format!("tick {tick_us} µs, {duration_us} µs");
            if duration_us > 0 {
                assert!(moves > 0, "{label}: walkers moved");
            }
            if tick_us == 0 {
                // 1 µs steps never reach a waypoint, and the end moves no one.
                assert_eq!(moves, walkers * (duration_us - 1), "{label}");
            }
            let sim = &mut oracle.sim;
            let want = ScenarioResult {
                traces: sim
                    .sniffers_mut()
                    .iter_mut()
                    .map(|s| std::mem::take(&mut s.trace))
                    .collect(),
                sniffer_stats: sim.sniffers().iter().map(|s| s.stats).collect(),
                medium_stats: sim.medium_stats(),
                events_processed: sim.events_processed(),
                frames_on_air: sim.ground_truth.transmissions,
                ..ScenarioResult::default()
            };
            let batch = scenario().run();
            assert_eq!(batch.traces, want.traces, "{label}: traces");
            assert_eq!(batch.events_processed, want.events_processed, "{label}");
            for &chunk_us in chunks {
                let (run, stats) = run_streaming_mobile(scenario(), chunk_us);
                let label = format!("{label}, chunk {chunk_us} µs");
                assert_stream_matches(&run, &want, &label);
                assert_eq!((stats.moves, stats.roams), (moves, roams), "{label}");
            }
        }
    }

    /// A sharded campus run must merge to exactly the unsharded streaming
    /// result — for every shard cap and worker count (queue churn excepted;
    /// see [`ShardedRun::run`]).
    #[test]
    fn sharded_campus_matches_unsharded() {
        use crate::{venue_campus, CampusScale};
        let scale = CampusScale {
            seed: 5,
            halls: 3,
            users: 24,
            duration_s: 6,
            activity: 1.0,
        };
        let baseline = run_streaming(whole(venue_campus(scale)), 1_000_000);
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
            assert_runs_match(&sharded.run, &baseline);
        }
    }

    /// The plenary — one dense coupled cell per channel — plans as its
    /// three RF-isolation components, and the component shards merge to
    /// exactly the unsharded streaming result for every `(threads,
    /// max_shards)`.
    #[test]
    fn plenary_plans_as_components() {
        use crate::{ietf_plenary_sharded, SessionScale};
        let scale = SessionScale {
            seed: 13,
            users: 40,
            duration_s: 4,
            activity: 1.5,
            rts_fraction: 0.02,
        };
        let baseline = run_streaming(whole(ietf_plenary_sharded(scale)), 1_000_000);
        for (threads, max_shards) in [(1, 1), (1, 6), (4, 2), (4, 6)] {
            let sharded = run_sharded(ietf_plenary_sharded(scale), 1_000_000, threads, max_shards);
            assert_eq!(
                sharded.components, 3,
                "the plenary is one coupled cell per channel"
            );
            assert_eq!(sharded.shards, max_shards.min(3));
            assert!(!sharded.lockstep);
            assert_runs_match(&sharded.run, &baseline);
        }
    }
}
