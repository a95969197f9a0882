//! Chunked scenario execution with streaming per-second analysis.
//!
//! [`Scenario::run`] buffers every captured frame until the end and analyzes
//! post hoc — O(frames) peak memory, which at congestion-knee scale is the
//! dominant allocation. The drivers here instead run one chunk loop: advance
//! the simulator to the next chunk boundary (repeated `run_until` calls are
//! pure continuations of the same event queue, so results are identical),
//! then drain every sniffer's trace into a sink. Peak memory is
//! O(chunk + seconds), however long the run.
//!
//! - [`run_streaming`]: the sink is the per-sniffer [`SecondAccumulator`]s,
//!   on the calling thread.
//! - [`run_streaming_pipelined`]: the sink is a bounded SPSC channel to an
//!   analysis thread folding into the same accumulators in the same order,
//!   so the results are byte-identical — analysis of chunk *n* just runs
//!   while chunk *n + 1* simulates.
//! - [`run_streaming_mobile`]: the loop advances a [`MobileScenario`],
//!   whose own tick schedule ([`MobileScenario::run_until`]) moves the
//!   walkers between continuations.
//! - [`run_sharded`]: intra-scenario parallelism. [`ShardSpec::plan`]
//!   decides once between the unsharded build, RF-isolation component
//!   shards (each streamed by `run_streaming`'s loop on a worker), and
//!   **time-window lockstep** shards ([`wifi_sim::shard`]) — one dense
//!   coupled cell cut along BSS lines into full-roster shards that advance
//!   window-by-window, exchanging cross-shard transmissions as ghosts at
//!   each boundary. Every shard's result merges, by global sniffer index
//!   and by sums, into a run byte-identical to the unsharded one.

use congestion::persec::{SecondAccumulator, SecondStats};
use ietf_workloads::{MobileScenario, Scenario, ShardScenario};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::vec::Drain;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;
use wifi_sim::events::QueueStats;
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::{LockstepPlan, Shard, ShardSpec, Sharding};
use wifi_sim::sniffer::SnifferStats;
use wifi_sim::spsc;
use wifi_sim::{RemoteNotice, Simulator};

/// Chunks buffered in the sim→analysis channel before the producer blocks.
const PIPELINE_DEPTH: usize = 4;

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

/// Drains every sniffer's captured frames out of `sim`, in sniffer order,
/// handing `each` the sniffer's index and its frames.
fn drain_traces(sim: &mut Simulator, mut each: impl FnMut(usize, Drain<'_, FrameRecord>)) {
    for (i, sniffer) in sim.sniffers_mut().iter_mut().enumerate() {
        each(i, sniffer.trace.drain(..));
    }
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

    /// Folds frames captured by sniffer `i`, in capture order.
    fn push(&mut self, i: usize, records: impl IntoIterator<Item = FrameRecord>) {
        let acc = &mut self.accs[i];
        for record in records {
            acc.push(record);
        }
    }

    /// Folds everything `sim`'s sniffers captured since the last drain.
    fn drain(&mut self, sim: &mut Simulator) {
        drain_traces(sim, |i, records| self.push(i, records));
    }

    /// The chunk loop with these accumulators as the sink.
    fn stream(&mut self, run: &mut impl Advance, duration_us: Micros, chunk_us: Micros) {
        run_chunks(run, duration_us, chunk_us, |sim| {
            self.drain(sim);
            true
        });
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

/// The one chunk loop: advances `run` to `duration_us` in steps of at most
/// `chunk_us` and hands the simulator to `sink` after every step to drain
/// its traces. A `false` from `sink` stops the loop early.
fn run_chunks(
    run: &mut impl Advance,
    duration_us: Micros,
    chunk_us: Micros,
    mut sink: impl FnMut(&mut Simulator) -> bool,
) {
    let chunk_us = chunk_us.max(1);
    let mut now: Micros = 0;
    while now < duration_us {
        now = (now + chunk_us).min(duration_us);
        if !sink(run.advance(now)) {
            break;
        }
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

/// [`run_streaming`] with simulation and analysis overlapped on two threads.
///
/// The simulator (which is not `Send` and never migrates) runs chunks on the
/// calling thread; after each chunk the captured frames are drained into a
/// per-sniffer batch and sent through a bounded [`spsc`] channel to a scoped
/// analysis thread that folds them into the [`SecondAccumulator`]s. Every
/// frame reaches its accumulator in the same order as the serial path, so
/// the returned [`StreamedRun`] is byte-identical to `run_streaming`'s; the
/// channel bound keeps at most `PIPELINE_DEPTH` (4) chunks of frames alive.
pub fn run_streaming_pipelined(mut scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    let sniffers = scenario.sim.sniffers().len();
    let mut analysis = Analysis::new(&scenario.sim);
    let (tx, rx) = spsc::channel::<Vec<Vec<FrameRecord>>>(PIPELINE_DEPTH);
    let analysis = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            while let Some(batch) = rx.recv() {
                for (i, records) in batch.into_iter().enumerate() {
                    analysis.push(i, records);
                }
            }
            analysis
        });
        run_chunks(&mut scenario.sim, scenario.duration_us, chunk_us, |sim| {
            let mut batch = vec![Vec::new(); sniffers];
            drain_traces(sim, |i, records| batch[i].extend(records));
            // A closed channel means the consumer died; its join below
            // propagates the panic.
            tx.send(batch).is_ok()
        });
        drop(tx);
        consumer.join().expect("analysis thread panicked")
    });
    analysis.finish(scenario.name, &scenario.sim)
}

/// What a sharded run yields: the merged [`StreamedRun`] plus how the
/// scenario was cut up.
pub struct ShardedRun {
    /// The merged result — field-for-field comparable with an unsharded
    /// [`run_streaming`] of the same scenario (`queue` excepted: timing-
    /// wheel churn like cascade counts depends on how events distribute
    /// over wheels — and, under lockstep, on ghost bookkeeping — so it is
    /// observability, not output).
    pub run: StreamedRun,
    /// Sub-simulators the scenario ran as (1 when sharding declined).
    pub shards: usize,
    /// RF-isolation components found (the parallelism ceiling of component
    /// sharding; lockstep sharding can exceed it).
    pub components: usize,
    /// Whether time-window lockstep sharding engaged (one coupled
    /// component, split along BSS lines).
    pub lockstep: bool,
}

/// One shard's result: its sniffers' global indices, and its run.
type ShardRun = (Vec<usize>, StreamedRun);

/// Runs a recorded scenario with intra-scenario parallelism, as
/// [`ShardSpec::plan`] decides:
///
/// - **unsharded** when the scenario cannot be partitioned (dynamic
///   channel management, or a client whose channel has no AP);
/// - **RF-isolation components** ([`wifi_sim::shard`]), each streamed by
///   [`run_streaming`]'s loop on the [`run_parallel`] work queue across
///   `threads` workers;
/// - **time-window lockstep** at the default window
///   ([`wifi_sim::shard::DEFAULT_LOCKSTEP_WINDOW_US`]) when the components
///   stop short of `max_shards` (dense coupled cells — the paper's plenary
///   is one per channel) and the BSS cut is strictly finer.
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
/// assert!(sharded.lockstep && sharded.shards > sharded.components);
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
    let (runs, components, lockstep): (Vec<ShardRun>, usize, bool) = match spec.plan(max_shards) {
        Sharding::Unsharded => {
            let all_sniffers = (0..spec.sniffer_count()).collect();
            let runs = vec![(all_sniffers, stream_shard(spec.build_unsharded()))];
            (runs, 1, false)
        }
        Sharding::Components(plan) => {
            // Sub-simulators are built inside the worker (a Simulator is
            // not Send; the spec is).
            let runs = run_parallel(&plan.shards, threads, |shard: &Shard| {
                (
                    shard.sniffer_indices().collect(),
                    stream_shard(spec.build_shard(shard)),
                )
            });
            (runs, plan.components, false)
        }
        Sharding::Lockstep { plan, components } => (
            run_lockstep(&spec, &plan, duration_us, threads),
            components,
            true,
        ),
    };
    ShardedRun {
        shards: runs.len(),
        run: merge(name, runs),
        components,
        lockstep,
    }
}

/// Merges per-shard runs into one. Placement and sums only: every sniffer
/// lives in exactly one shard, medium stats and the scalar counters are
/// disjoint per shard (under lockstep, ghosts are excluded from every
/// counter on non-owner shards), so the merge is exact.
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

/// A sense-reversing spin barrier. The lockstep protocol crosses a barrier
/// twice per window (potentially millions of times per run); parking OS
/// threads at that frequency would dominate the runtime, and the wait is
/// bounded by one window of sibling simulation, so spinning is the right
/// trade.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Blocks until all `n` participants arrive. `local_sense` is the
    /// caller's thread-local phase flag, initialized `false`. Spins briefly
    /// (the common case: siblings are one window behind), then yields —
    /// pure spinning livelocks when workers outnumber cores.
    fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                spins += 1;
                if spins < 1_000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One worker's owned lockstep shard: the sub-simulator plus its streaming
/// analysis.
struct LockstepState {
    shard_idx: usize,
    sim: Simulator,
    sniffer_indices: Vec<usize>,
    analysis: Analysis,
}

/// Drives a lockstep plan to `duration_us`: every shard advances through
/// the same bounded windows, with a two-barrier exchange round at each
/// boundary (see `docs/DETERMINISM.md` for the protocol and its proof).
/// Returns each shard's run, in shard order.
///
/// Round structure, per window `[start, target]`:
/// 1. each worker runs its shards to `target` and drains sniffer traces
///    into the per-shard analysis;
/// 2. each worker publishes its shards' outgoing [`RemoteNotice`]s, then
///    **barrier** — all outboxes are complete;
/// 3. each worker applies every *other* shard's notices to its own shards
///    as ghosts (in shard-index order) and publishes each shard's
///    next-event time, then **barrier** — all inboxes are drained;
/// 4. every worker independently computes the same next window start,
///    skipping whole windows up to the global minimum next-event time.
///
/// The schedule is a pure function of the plan and the window, so the
/// result is identical for any worker count.
fn run_lockstep(
    spec: &ShardSpec,
    plan: &LockstepPlan,
    duration_us: Micros,
    threads: usize,
) -> Vec<ShardRun> {
    let k = plan.shards.len();
    let w = plan.window_us;
    // Worker count is a pure throughput knob — shard↔worker assignment and
    // results are schedule-independent — so clamp to the cores actually
    // available: oversubscribed barrier workers just steal each other's
    // timeslices.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = threads.min(cores).clamp(1, k);
    let barrier = SpinBarrier::new(workers);
    // One outbox and one next-event slot per shard; written by the owner
    // before a barrier, read by everyone after it.
    let outboxes: Vec<Mutex<Vec<RemoteNotice>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
    let next_times: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
    let mut runs: Vec<(usize, ShardRun)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (barrier, outboxes, next_times) = (&barrier, &outboxes, &next_times);
            handles.push(scope.spawn(move || {
                // Static ownership: worker j drives shards j, j+W, ... —
                // the shard→worker map never affects results, only the
                // schedule.
                let mut states: Vec<LockstepState> = (worker..k)
                    .step_by(workers)
                    .map(|shard_idx| {
                        let shard = &plan.shards[shard_idx];
                        let sim = spec.build_lockstep_shard(shard);
                        LockstepState {
                            shard_idx,
                            analysis: Analysis::new(&sim),
                            sim,
                            sniffer_indices: shard.sniffer_indices().collect(),
                        }
                    })
                    .collect();
                let mut sense = false;
                let mut notices: Vec<RemoteNotice> = Vec::new();
                let mut start: Micros = 0;
                loop {
                    // Phase A: simulate the window and stream the analysis.
                    let target = (start + w - 1).min(duration_us);
                    for st in &mut states {
                        st.sim.run_until(target);
                        st.analysis.drain(&mut st.sim);
                    }
                    if target == duration_us {
                        // Final window: remaining notices could only seed
                        // events past the end of the run.
                        break;
                    }
                    // Publish outboxes, then wait for every shard's.
                    for st in &mut states {
                        let mut slot = outboxes[st.shard_idx].lock().unwrap();
                        slot.clear();
                        st.sim.drain_remote_notices(&mut slot);
                    }
                    barrier.wait(&mut sense);
                    // Apply every sibling's notices as ghosts, in shard
                    // order, then publish the post-exchange next-event time.
                    for st in &mut states {
                        for (src, outbox) in outboxes.iter().enumerate().take(k) {
                            if src == st.shard_idx {
                                continue;
                            }
                            notices.clear();
                            notices.extend_from_slice(&outbox.lock().unwrap());
                            for notice in &notices {
                                st.sim.apply_remote_tx(notice);
                            }
                        }
                        let next = st.sim.next_event_time().unwrap_or(u64::MAX);
                        next_times[st.shard_idx].store(next, Ordering::Release);
                    }
                    barrier.wait(&mut sense);
                    // Everyone computes the same next window start: the
                    // natural successor, or — when every shard is idle
                    // longer — the window holding the global minimum
                    // next-event time (never past the final window).
                    let min_next = next_times
                        .iter()
                        .map(|t| t.load(Ordering::Acquire))
                        .min()
                        .unwrap_or(u64::MAX);
                    let mut next = start + w;
                    if min_next > target {
                        next = next.max(min_next.min(duration_us) / w * w);
                    }
                    start = next.min(duration_us / w * w);
                }
                // Owner-filtered counters: shells own nothing — ghost air
                // time, collisions and events are all excluded on non-owner
                // shards, so the shards' sums are the unsharded totals.
                states
                    .into_iter()
                    .map(|st| {
                        let run = st.analysis.finish(String::new(), &st.sim);
                        (st.shard_idx, (st.sniffer_indices, run))
                    })
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lockstep worker panicked"))
            .collect()
    });
    runs.sort_by_key(|&(shard_idx, _)| shard_idx);
    runs.into_iter().map(|(_, run)| run).collect()
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

    /// The pipelined path must be byte-identical to the serial streaming
    /// path: same analysis, same counters, whatever the chunk size.
    #[test]
    fn pipelined_matches_serial_streaming() {
        for chunk_us in [750_000u64, 5_000_000] {
            let serial = run_streaming(load_ramp(7, 8, 6, 1.5), chunk_us);
            let piped = run_streaming_pipelined(load_ramp(7, 8, 6, 1.5), chunk_us);
            assert_eq!(piped.events_processed, serial.events_processed);
            assert_eq!(piped.frames_on_air, serial.frames_on_air);
            assert_eq!(piped.medium_stats, serial.medium_stats);
            assert_eq!(piped.queue, serial.queue);
            assert_eq!(
                format!("{:?}", piped.sniffer_stats),
                format!("{:?}", serial.sniffer_stats)
            );
            for (p, s) in piped
                .per_sniffer_seconds
                .iter()
                .zip(&serial.per_sniffer_seconds)
            {
                assert_eq!(format!("{p:?}"), format!("{s:?}"));
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

    /// A lockstep plenary run — one dense coupled component split along
    /// BSS lines — must merge to exactly the unsharded streaming result
    /// for every `(threads, max_shards)` at the fixed default window.
    #[test]
    fn lockstep_plenary_matches_unsharded() {
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
            if max_shards > sharded.components {
                assert!(
                    sharded.lockstep,
                    "lockstep must engage past the component ceiling"
                );
                assert!(
                    sharded.shards > sharded.components,
                    "lockstep must cut finer than components (got {} shards)",
                    sharded.shards
                );
            } else {
                assert!(!sharded.lockstep, "components fill a cap of {max_shards}");
                assert_eq!(sharded.shards, max_shards);
            }
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
