//! The traced pass: a replica of each workload's entry point assembled from
//! the same public calls, with a span around every call into a layer, and
//! the per-layer metrics computed from those spans and the run's counters.
//!
//! Spans are kept in memory and turned into metrics (and, on request, a
//! Chrome trace-event file) after the run. Every replica must reproduce its
//! untraced entry point's digest; the caller checks that.

use congestion::analyze;
use congestion::merge::MergeStream;
use congestion::persec::{SecondAccumulator, SecondStats};
use congestion_bench::streaming::{run_sharded, run_streaming_pipelined};
use ietf80211_congestion::trace::CaptureStream;
use ietf_workloads::WaypointMobility;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;
use wifi_sim::events::QueueStats;
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::DEFAULT_LOCKSTEP_WINDOW_US;
use wifi_sim::sniffer::SnifferStats;
use wifi_sim::spsc::{batch_channel, BatchReceiver, BatchSender, TryRecv};
use wifi_sim::Simulator;

use crate::host::{reset_peak_rss, status_kb};
use crate::json::{obj, Json};
use crate::stats::Better;
use crate::workloads::{
    churn, digest, figure_cells, plenary, plenary_sharded, venue, Fingerprint, Workload, CHUNK_US,
    LOCKSTEP_SHARDS, THREADS,
};

/// The layer a span times; one per module boundary the benchmark crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The whole traced run (the scope the untraced `wall_s` times).
    Run,
    /// `ietf_workloads` constructors and `Cell::build_scenario`.
    Build,
    /// `ShardSpec::partition`.
    Partition,
    /// `ShardSpec::partition_lockstep`.
    LockstepPlan,
    /// `ShardSpec::build_shard` / `build_lockstep_shard`.
    ShardBuild,
    /// One whole `run_sharded` call, opaque from outside.
    ShardRun,
    /// A `run_parallel` region: the main thread waits for its workers.
    Pool,
    /// One item of a `run_parallel` region, on a worker.
    Task,
    /// `Simulator::run_until` / `Scenario::run`: event queue, MAC, PHY and
    /// sniffer capture.
    Sim,
    /// Sniffer-trace drain plus `SecondAccumulator::push`, or `analyze`.
    Persec,
    /// `WaypointMobility::advance`: moves and roams written into the
    /// sensing topology.
    Topology,
    /// One producer's `CaptureStream` decode loop.
    Decode,
    /// A `BatchSender` push that ships a batch (blocks while the channel is
    /// full).
    PushBlocked,
    /// A `BatchReceiver::next` that found no batch ready.
    Starved,
    /// The consumer's `MergeStream` loop.
    Merge,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Build => "workloads.build",
            Layer::Partition => "shard.partition",
            Layer::LockstepPlan => "shard.lockstep_plan",
            Layer::ShardBuild => "shard.build",
            Layer::ShardRun => "shard.run",
            Layer::Pool => "pool",
            Layer::Task => "pool.task",
            Layer::Sim => "sim.run_until",
            Layer::Persec => "persec",
            Layer::Topology => "topology.advance",
            Layer::Decode => "ingest.decode",
            Layer::PushBlocked => "spsc.push_blocked",
            Layer::Starved => "spsc.starved",
            Layer::Merge => "merge",
        }
    }

    /// The share metric this layer's self time counts toward, if it lies
    /// on the main thread's path.
    fn share(self) -> Option<&'static str> {
        Some(match self {
            Layer::Build => "share.build",
            Layer::Partition => "share.partition",
            Layer::LockstepPlan => "share.lockstep_plan",
            Layer::ShardBuild => "share.shard_build",
            Layer::ShardRun => "share.shard_run",
            Layer::Sim => "share.sim",
            Layer::Persec => "share.persec",
            Layer::Topology => "share.topology",
            Layer::Merge => "share.merge",
            Layer::Starved | Layer::Pool => "share.wait",
            Layer::Run | Layer::Task => "share.untraced",
            Layer::Decode | Layer::PushBlocked => return None,
        })
    }
}

/// Every per-layer metric, in report order: name, unit, better direction.
///
/// `share.*` split the traced wall time of the run between layers: the
/// main thread's self time per layer, plus, inside a `run_parallel`
/// region, each worker layer's busy time divided by the worker count (idle
/// worker capacity counts as `share.wait`). They sum to 1.
pub const LAYER_METRICS: &[(&str, &str, Better)] = &[
    ("trace.wall_s", "s", Better::Lower),
    ("trace.overhead", "ratio", Better::Lower),
    ("share.build", "ratio", Better::Lower),
    ("share.partition", "ratio", Better::Lower),
    ("share.lockstep_plan", "ratio", Better::Lower),
    ("share.shard_build", "ratio", Better::Lower),
    ("share.shard_run", "ratio", Better::Lower),
    ("share.sim", "ratio", Better::Lower),
    ("share.persec", "ratio", Better::Lower),
    ("share.topology", "ratio", Better::Lower),
    ("share.merge", "ratio", Better::Lower),
    ("share.wait", "ratio", Better::Lower),
    ("share.untraced", "ratio", Better::Lower),
    ("sim.events_per_s", "1/s", Better::Higher),
    ("persec.records_per_s", "1/s", Better::Higher),
    ("topology.moves_per_s", "1/s", Better::Higher),
    ("ingest.records_per_s", "1/s", Better::Higher),
    ("merge.records_per_s", "1/s", Better::Higher),
    ("pool.parallel_eff", "ratio", Better::Higher),
    ("pool.imbalance", "ratio", Better::Lower),
    ("pool.task_max_share", "ratio", Better::Lower),
    ("spsc.producer_blocked_ratio", "ratio", Better::Lower),
    ("shard.partition_rss_mb", "MB", Better::Lower),
    ("shard.lockstep_plan_rss_mb", "MB", Better::Lower),
    ("shard.count", "count", Better::Higher),
    ("shard.components", "count", Better::Higher),
    ("shard.lockstep", "count", Better::Higher),
    ("lockstep.queue_push_ratio", "ratio", Better::Lower),
    ("queue.pushed", "count", Better::Lower),
    ("queue.popped", "count", Better::Lower),
    ("queue.stale_dropped", "count", Better::Lower),
    ("queue.cascaded", "count", Better::Lower),
    ("queue.stale_ratio", "ratio", Better::Lower),
    ("sim.events", "count", Better::Lower),
    ("sim.frames_on_air", "count", Better::Lower),
    ("persec.records", "count", Better::Lower),
    ("ingest.records", "count", Better::Lower),
    ("ingest.skipped", "count", Better::Lower),
    ("merge.records", "count", Better::Lower),
    ("merge.dedup_ratio", "ratio", Better::Lower),
    ("topology.moves", "count", Better::Lower),
    ("topology.roams", "count", Better::Lower),
    ("mac.collision_ratio", "ratio", Better::Lower),
    ("sniffer.capture_ratio", "ratio", Better::Higher),
];

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: Layer,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Worker threads of a [`Layer::Pool`] span.
    pub pool_threads: usize,
    /// Peak RSS growth during the call, where it was measured and the
    /// kernel allowed the peak to be reset.
    pub rss_mb: Option<f64>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread. The thread that creates it is the
/// main thread, whose timeline the share metrics decompose.
pub struct Tracer {
    origin: Instant,
    main: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            main: thread_id(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter<R>(
        &self,
        layer: Layer,
        parent: Option<u64>,
        pool_threads: usize,
        measure_rss: bool,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let rss_base = if measure_rss { reset_peak_rss() } else { None };
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        let rss_mb = rss_base
            .and_then(|base| Some((status_kb("VmHWM")?.saturating_sub(base)) as f64 / 1024.0));
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                layer,
                thread: thread_id(),
                start_ns,
                end_ns,
                pool_threads,
                rss_mb,
            });
        r
    }

    /// Times `f` as a `layer` span under `parent`.
    pub fn span<R>(&self, layer: Layer, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.enter(layer, Some(parent), 0, false, f)
    }

    /// [`Tracer::span`] that also records the call's peak RSS growth.
    pub fn span_rss<R>(&self, layer: Layer, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.enter(layer, Some(parent), 0, true, f)
    }

    /// Times a `run_parallel` region of `threads` workers.
    pub fn pool<R>(&self, parent: u64, threads: usize, f: impl FnOnce(u64) -> R) -> R {
        self.enter(Layer::Pool, Some(parent), threads, false, f)
    }

    /// Times a span with no parent: the run itself, or set-up outside it.
    pub fn top<R>(&self, layer: Layer, f: impl FnOnce(u64) -> R) -> R {
        self.enter(layer, None, 0, false, f)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a thread panicked while recording a span")
    }
}

/// What a replica counted, beyond its spans.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    events: u64,
    frames_on_air: u64,
    queue: QueueStats,
    transmissions: u64,
    collisions: u64,
    captured: u64,
    on_air_at_sniffers: u64,
    persec_records: u64,
    decoded: u64,
    skipped: u64,
    merged: u64,
    moves: u64,
    roams: u64,
    shards: u64,
    components: u64,
    lockstep: bool,
    /// `queue.pushed` of the same scenario run serially.
    serial_pushed: u64,
}

impl Counters {
    fn add_sim(&mut self, sim: &Simulator) {
        self.events += sim.events_processed();
        self.frames_on_air += sim.ground_truth.transmissions;
        add_queue(&mut self.queue, &sim.queue_stats());
        self.add_medium(&sim.medium_stats());
        for s in sim.sniffers() {
            self.add_sniffer(&s.stats);
        }
    }

    fn add_medium(&mut self, medium: &[(u64, u64)]) {
        for &(tx, coll) in medium {
            self.transmissions += tx;
            self.collisions += coll;
        }
    }

    fn add_sniffer(&mut self, stats: &SnifferStats) {
        self.captured += stats.captured;
        self.on_air_at_sniffers += stats.total_on_air();
    }
}

fn add_queue(total: &mut QueueStats, q: &QueueStats) {
    total.pushed += q.pushed;
    total.popped += q.popped;
    total.stale_dropped += q.stale_dropped;
    total.cascaded += q.cascaded;
}

/// One traced run.
pub struct TracedRun {
    /// Duration of the [`Layer::Run`] span.
    pub wall_s: f64,
    pub fingerprint: Fingerprint,
    /// Every [`LAYER_METRICS`] entry except `trace.overhead`, which needs
    /// the untraced runs.
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    main_thread: u64,
}

/// The `run_streaming` loop from public calls: advance one chunk, fold the
/// captures, repeat. A mobile scenario passes its walkers and tick; its
/// chunks then end on every tick, where the walkers move, as in
/// `run_streaming_mobile`.
fn stream(
    t: &Tracer,
    parent: u64,
    sim: &mut Simulator,
    duration_us: Micros,
    records: &mut u64,
    mut mobility: Option<(&mut WaypointMobility, Micros)>,
) -> Vec<Vec<SecondStats>> {
    let mut accs: Vec<SecondAccumulator> = sim
        .sniffers()
        .iter()
        .map(|_| SecondAccumulator::new())
        .collect();
    let tick_us = mobility
        .as_ref()
        .map_or(Micros::MAX, |(_, us)| (*us).max(1));
    let mut next_tick = tick_us;
    let mut now: Micros = 0;
    while now < duration_us {
        now = (now + CHUNK_US).min(duration_us).min(next_tick);
        t.span(Layer::Sim, parent, |_| sim.run_until(now));
        t.span(Layer::Persec, parent, |_| {
            for (sniffer, acc) in sim.sniffers_mut().iter_mut().zip(&mut accs) {
                *records += sniffer.trace.len() as u64;
                for record in sniffer.trace.drain(..) {
                    acc.push(record);
                }
            }
        });
        if now == next_tick {
            if now < duration_us {
                if let Some((walkers, _)) = mobility.as_mut() {
                    t.span(Layer::Topology, parent, |_| walkers.advance(sim, tick_us));
                }
            }
            next_tick += tick_us;
        }
    }
    accs.into_iter().map(SecondAccumulator::finish).collect()
}

/// Runs the traced replica of `workload` once. `captures` are the
/// `trace-merge-3x` input files.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    captures: &[PathBuf],
) -> Result<TracedRun, String> {
    let t = Tracer::new();
    let mut c = Counters::default();
    let mut fp = Fingerprint::default();
    let seconds: Vec<SecondStats> = match workload {
        Workload::Plenary523 => {
            let mut scenario = t.top(Layer::Build, |_| plenary(seed));
            let seconds = t.top(Layer::Run, |root| {
                stream(
                    &t,
                    root,
                    &mut scenario.sim,
                    scenario.duration_us,
                    &mut c.persec_records,
                    None,
                )
            });
            c.add_sim(&scenario.sim);
            seconds.into_iter().flatten().collect()
        }
        Workload::Churn => {
            let mut scenario = t.top(Layer::Build, |_| churn(seed));
            let seconds = t.top(Layer::Run, |root| {
                stream(
                    &t,
                    root,
                    &mut scenario.sim,
                    scenario.duration_us,
                    &mut c.persec_records,
                    Some((&mut scenario.mobility, scenario.tick_us)),
                )
            });
            c.add_sim(&scenario.sim);
            c.moves = scenario.mobility.moves;
            c.roams = scenario.mobility.roams;
            seconds.into_iter().flatten().collect()
        }
        Workload::Venue5k => {
            let scenario = t.top(Layer::Build, |_| venue(seed));
            let seconds = t.top(Layer::Run, |root| {
                venue_replica(&t, root, &scenario, &mut c)
            })?;
            seconds.into_iter().flatten().collect()
        }
        Workload::PlenarySharded => {
            let scenario = t.top(Layer::Build, |_| plenary_sharded(seed));
            let sharded = t.top(Layer::Run, |root| {
                let spec = &scenario.spec;
                t.span_rss(Layer::Partition, root, |_| {
                    drop(spec.partition(LOCKSTEP_SHARDS))
                });
                let lockstep = t.span_rss(Layer::LockstepPlan, root, |_| {
                    spec.partition_lockstep(LOCKSTEP_SHARDS, DEFAULT_LOCKSTEP_WINDOW_US)
                });
                for shard in lockstep.iter().flat_map(|plan| &plan.shards) {
                    t.span(Layer::ShardBuild, root, |_| {
                        drop(spec.build_lockstep_shard(shard))
                    });
                }
                drop(lockstep);
                t.span(Layer::ShardRun, root, |_| {
                    run_sharded(scenario, CHUNK_US, THREADS, LOCKSTEP_SHARDS)
                })
            });
            let run = &sharded.run;
            c.events = run.events_processed;
            c.frames_on_air = run.frames_on_air;
            c.queue = run.queue;
            c.add_medium(&run.medium_stats);
            run.sniffer_stats.iter().for_each(|s| c.add_sniffer(s));
            c.persec_records = c.captured;
            c.shards = sharded.shards as u64;
            c.components = sharded.components as u64;
            c.lockstep = sharded.lockstep;
            // The serial path of the same scenario: the base of the push
            // ratio, and the identity the sharded output must reproduce.
            let serial = run_streaming_pipelined(plenary(seed), CHUNK_US);
            c.serial_pushed = serial.queue.pushed;
            let serial_digest = digest(serial.per_sniffer_seconds.iter().flatten());
            if digest(run.per_sniffer_seconds.iter().flatten()) != serial_digest {
                return Err("plenary-sharded output differs from the serial plenary run".into());
            }
            run.per_sniffer_seconds.iter().flatten().cloned().collect()
        }
        Workload::FigureSweep => {
            let cells = figure_cells(seed);
            t.top(Layer::Run, |root| {
                let results = t.pool(root, THREADS, |pool| {
                    run_parallel(&cells, THREADS, |cell| {
                        t.span(Layer::Task, pool, |task| {
                            let scenario = t.span(Layer::Build, task, |_| cell.build_scenario());
                            t.span(Layer::Sim, task, |_| scenario.run())
                        })
                    })
                });
                let mut seconds = Vec::new();
                for result in &results {
                    c.events += result.events_processed;
                    c.frames_on_air += result.frames_on_air;
                    add_queue(&mut c.queue, &result.queue);
                    c.add_medium(&result.medium_stats);
                    result.sniffer_stats.iter().for_each(|s| c.add_sniffer(s));
                    for trace in &result.traces {
                        c.persec_records += trace.len() as u64;
                        seconds.extend(t.span(Layer::Persec, root, |_| analyze(trace)));
                    }
                }
                seconds
            })
        }
        Workload::TraceMerge3x => {
            t.top(Layer::Run, |root| merge_replica(&t, root, captures, &mut c))?
        }
    };

    fp.events = c.events;
    fp.frames_on_air = c.frames_on_air;
    fp.records = if workload.simulates() {
        c.persec_records
    } else {
        c.decoded
    };
    fp.merged = c.merged;
    fp.moves = c.moves;
    fp.roams = c.roams;
    fp.digest = digest(&seconds);
    let main_thread = t.main;
    let spans = t.into_spans();
    let metrics = layer_metrics(&spans, main_thread, &c);
    Ok(TracedRun {
        wall_s: metrics["trace.wall_s"],
        fingerprint: fp,
        metrics,
        spans,
        main_thread,
    })
}

/// `run_sharded`'s component path for `venue-5k`, call for call: plan,
/// plan lockstep (which `run_sharded` tries whenever components fall short
/// of the shard cap, here unbounded), then build and stream every shard on
/// the `run_parallel` pool.
fn venue_replica(
    t: &Tracer,
    root: u64,
    scenario: &ietf_workloads::ShardScenario,
    c: &mut Counters,
) -> Result<Vec<Vec<SecondStats>>, String> {
    let spec = &scenario.spec;
    let plan = t
        .span_rss(Layer::Partition, root, |_| spec.partition(usize::MAX))
        .ok_or("venue-5k did not partition")?;
    let lockstep_shards = t.span_rss(Layer::LockstepPlan, root, |_| {
        spec.partition_lockstep(usize::MAX, DEFAULT_LOCKSTEP_WINDOW_US)
            .map_or(0, |p| p.shards.len())
    });
    if lockstep_shards > plan.shards.len() {
        return Err(
            "venue-5k would take the lockstep path, which this replica does not cover".into(),
        );
    }
    let outs = t.pool(root, THREADS, |pool| {
        run_parallel(&plan.shards, THREADS, |shard| {
            t.span(Layer::Task, pool, |task| {
                let mut sim = t.span(Layer::ShardBuild, task, |_| spec.build_shard(shard));
                let mut records = 0;
                let seconds = stream(t, task, &mut sim, scenario.duration_us, &mut records, None);
                let mut counters = Counters::default();
                counters.add_sim(&sim);
                counters.persec_records = records;
                (
                    shard.sniffer_indices().collect::<Vec<_>>(),
                    seconds,
                    counters,
                )
            })
        })
    });
    let mut per_sniffer: Vec<Vec<SecondStats>> = vec![Vec::new(); spec.sniffer_count()];
    for (indices, seconds, counters) in outs {
        for (gi, s) in indices.into_iter().zip(seconds) {
            per_sniffer[gi] = s;
        }
        c.events += counters.events;
        c.frames_on_air += counters.frames_on_air;
        add_queue(&mut c.queue, &counters.queue);
        c.transmissions += counters.transmissions;
        c.collisions += counters.collisions;
        c.captured += counters.captured;
        c.on_air_at_sniffers += counters.on_air_at_sniffers;
        c.persec_records += counters.persec_records;
    }
    c.shards = plan.shards.len() as u64;
    c.components = plan.components as u64;
    Ok(per_sniffer)
}

/// Records per channel batch and batches in flight, as
/// `analyze_capture_streams` sizes its channels.
const BATCH_LEN: u64 = 256;
const CHANNEL_BATCHES: usize = 8;

/// A `BatchReceiver` whose blocking waits are timed: a record already
/// buffered comes out of `try_next`; only an empty channel falls through
/// to the blocking `next`.
struct TimedReceiver<'a> {
    rx: BatchReceiver<FrameRecord>,
    tracer: &'a Tracer,
    parent: u64,
}

impl Iterator for TimedReceiver<'_> {
    type Item = FrameRecord;

    fn next(&mut self) -> Option<FrameRecord> {
        match self.rx.try_next() {
            TryRecv::Item(r) => Some(r),
            TryRecv::Disconnected => None,
            TryRecv::Empty => self
                .tracer
                .span(Layer::Starved, self.parent, |_| self.rx.next()),
        }
    }
}

/// One producer of `analyze_capture_streams`: decode a capture into its
/// batch channel. Only the pushes that ship a batch can block, so only
/// those are timed.
fn produce(
    t: &Tracer,
    decode: u64,
    path: &Path,
    mut tx: BatchSender<FrameRecord>,
) -> Result<wifi_pcap::IngestReport, String> {
    let mut stream = CaptureStream::open(path).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let mut pushed = 0u64;
    for record in stream.by_ref() {
        pushed += 1;
        let sent = if pushed.is_multiple_of(BATCH_LEN) {
            t.span(Layer::PushBlocked, decode, |_| tx.push(record))
        } else {
            tx.push(record)
        };
        sent.map_err(|_| "the merge stopped early")?;
    }
    t.span(Layer::PushBlocked, decode, |_| tx.flush())
        .map_err(|_| "the merge stopped early")?;
    stream
        .finish()
        .map_err(|e| format!("{}: {e:?}", path.display()))
}

/// `analyze_capture_streams` rebuilt from its parts: one decode thread per
/// capture, bounded batch channels, the k-way `MergeStream` and the
/// `SecondAccumulator` on this thread. Merged records reach the accumulator
/// in batches so that the analysis is timed per batch, not per record.
fn merge_replica(
    t: &Tracer,
    root: u64,
    paths: &[PathBuf],
    c: &mut Counters,
) -> Result<Vec<SecondStats>, String> {
    let (senders, receivers): (Vec<_>, Vec<_>) = paths
        .iter()
        .map(|_| batch_channel::<FrameRecord>(CHANNEL_BATCHES, BATCH_LEN as usize))
        .unzip();
    let (seconds, merged, reports) = std::thread::scope(|scope| {
        let producers: Vec<_> = paths
            .iter()
            .zip(senders)
            .map(|(path, tx)| {
                scope.spawn(move || t.span(Layer::Decode, root, |d| produce(t, d, path, tx)))
            })
            .collect();
        let (seconds, merged) = t.span(Layer::Merge, root, |merge_id| {
            let streams: Vec<TimedReceiver> = receivers
                .into_iter()
                .map(|rx| TimedReceiver {
                    rx,
                    tracer: t,
                    parent: merge_id,
                })
                .collect();
            let mut acc = SecondAccumulator::new();
            let mut batch = Vec::with_capacity(BATCH_LEN as usize);
            let mut merged = 0u64;
            let flush = |batch: &mut Vec<FrameRecord>, acc: &mut SecondAccumulator| {
                t.span(Layer::Persec, merge_id, |_| {
                    batch.drain(..).for_each(|r| acc.push(r))
                })
            };
            for record in MergeStream::new(streams) {
                merged += 1;
                batch.push(record);
                if batch.len() == BATCH_LEN as usize {
                    flush(&mut batch, &mut acc);
                }
            }
            flush(&mut batch, &mut acc);
            (t.span(Layer::Persec, merge_id, |_| acc.finish()), merged)
        });
        let reports: Vec<_> = producers
            .into_iter()
            .map(|p| p.join().expect("decode thread panicked"))
            .collect();
        (seconds, merged, reports)
    });
    for report in reports {
        let report = report?;
        c.decoded += report.records_total();
        c.skipped +=
            report.blocks_skipped + report.undecodable_radiotap + report.undecodable_frames;
    }
    c.merged = merged;
    c.persec_records = merged;
    Ok(seconds)
}

/// Self time of every span: its duration minus its same-thread children's.
fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut self_ns: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    let thread_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if thread_of.get(&p) == Some(&s.thread) {
                let v = self_ns.get_mut(&p).expect("parent span recorded");
                *v = v.saturating_sub(s.dur_ns());
            }
        }
    }
    self_ns
}

/// Self seconds per layer over the whole run, every thread included.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let self_ns = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0.0) += self_ns[&s.id] as f64 / 1e9;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(spans: &[Span], main: u64, c: &Counters) -> BTreeMap<&'static str, f64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let self_ns = self_times(spans);
    let root = spans
        .iter()
        .find(|s| s.layer == Layer::Run)
        .expect("every replica records a run span");
    // The nearest ancestor of `s` that is the root or a pool, if any.
    let anchor = |s: &Span| -> Option<&Span> {
        let mut p = s.parent;
        while let Some(id) = p {
            let a = by_id[&id];
            if a.layer == Layer::Pool || a.id == root.id {
                return Some(a);
            }
            p = a.parent;
        }
        None
    };

    let mut m: BTreeMap<&'static str, f64> = LAYER_METRICS
        .iter()
        .map(|&(name, _, _)| (name, 0.0))
        .collect();
    let wall_ns = root.dur_ns() as f64;
    // Busy ns per pool, and per (pool, worker thread).
    let mut pool_busy: HashMap<u64, f64> = HashMap::new();
    let mut thread_busy: HashMap<(u64, u64), f64> = HashMap::new();
    let mut task_max_ns = 0.0f64;
    let busy = |layer: Layer| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| self_ns[&s.id] as f64)
            .sum::<f64>()
            / 1e9
    };
    let (sim_s, persec_s, topo_s, merge_s, decode_s) = (
        busy(Layer::Sim),
        busy(Layer::Persec),
        busy(Layer::Topology),
        busy(Layer::Merge),
        busy(Layer::Decode),
    );
    let decode_total_s: f64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Decode)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    let blocked_s = busy(Layer::PushBlocked);

    for s in spans {
        let own = self_ns[&s.id] as f64;
        let in_run = s.id == root.id || anchor(s).is_some();
        if !in_run {
            continue; // set-up outside the run
        }
        if s.thread == main {
            if s.layer != Layer::Pool {
                if let Some(share) = s.layer.share() {
                    *m.get_mut(share).expect("share metric listed") += own;
                }
            }
        } else if let Some(pool) = anchor(s).filter(|a| a.layer == Layer::Pool) {
            if let Some(share) = s.layer.share() {
                *m.get_mut(share).expect("share metric listed") += own / pool.pool_threads as f64;
            }
            *pool_busy.entry(pool.id).or_default() += own;
            *thread_busy.entry((pool.id, s.thread)).or_default() += own;
            if s.layer == Layer::Task {
                task_max_ns = task_max_ns.max(s.dur_ns() as f64);
            }
        }
    }
    let mut pool_ns = 0.0;
    let mut capacity_ns = 0.0;
    let mut busy_ns = 0.0;
    let mut imbalance: f64 = 0.0;
    for pool in spans.iter().filter(|s| s.layer == Layer::Pool) {
        let threads = pool.pool_threads as f64;
        let b = pool_busy.get(&pool.id).copied().unwrap_or(0.0);
        *m.get_mut("share.wait").expect("listed") += pool.dur_ns() as f64 - b / threads;
        pool_ns += pool.dur_ns() as f64;
        capacity_ns += threads * pool.dur_ns() as f64;
        busy_ns += b;
        let max = thread_busy
            .iter()
            .filter(|((p, _), _)| *p == pool.id)
            .map(|(_, &v)| v)
            .fold(0.0, f64::max);
        imbalance = imbalance.max(ratio(max, b / threads));
    }
    for &(name, _, _) in LAYER_METRICS {
        if name.starts_with("share.") {
            *m.get_mut(name).expect("listed") /= wall_ns;
        }
    }

    let ls = |key: &str| {
        spans
            .iter()
            .find(|s| s.layer.name() == key)
            .and_then(|s| s.rss_mb)
    };
    let set = |m: &mut BTreeMap<&'static str, f64>, k: &'static str, v: f64| {
        *m.get_mut(k)
            .unwrap_or_else(|| panic!("{k} is not in LAYER_METRICS")) = v;
    };
    set(&mut m, "trace.wall_s", wall_ns / 1e9);
    set(&mut m, "sim.events_per_s", ratio(c.events as f64, sim_s));
    set(
        &mut m,
        "persec.records_per_s",
        ratio(c.persec_records as f64, persec_s),
    );
    set(
        &mut m,
        "topology.moves_per_s",
        ratio(c.moves as f64, topo_s),
    );
    set(
        &mut m,
        "ingest.records_per_s",
        ratio(c.decoded as f64, decode_s),
    );
    set(
        &mut m,
        "merge.records_per_s",
        ratio(c.merged as f64, merge_s),
    );
    set(&mut m, "pool.parallel_eff", ratio(busy_ns, capacity_ns));
    set(&mut m, "pool.imbalance", imbalance);
    set(&mut m, "pool.task_max_share", ratio(task_max_ns, pool_ns));
    set(
        &mut m,
        "spsc.producer_blocked_ratio",
        ratio(blocked_s, decode_total_s),
    );
    set(
        &mut m,
        "shard.partition_rss_mb",
        ls("shard.partition").unwrap_or(0.0),
    );
    set(
        &mut m,
        "shard.lockstep_plan_rss_mb",
        ls("shard.lockstep_plan").unwrap_or(0.0),
    );
    set(&mut m, "shard.count", c.shards as f64);
    set(&mut m, "shard.components", c.components as f64);
    set(&mut m, "shard.lockstep", u64::from(c.lockstep) as f64);
    set(
        &mut m,
        "lockstep.queue_push_ratio",
        ratio(c.queue.pushed as f64, c.serial_pushed as f64),
    );
    set(&mut m, "queue.pushed", c.queue.pushed as f64);
    set(&mut m, "queue.popped", c.queue.popped as f64);
    set(&mut m, "queue.stale_dropped", c.queue.stale_dropped as f64);
    set(&mut m, "queue.cascaded", c.queue.cascaded as f64);
    set(
        &mut m,
        "queue.stale_ratio",
        ratio(c.queue.stale_dropped as f64, c.queue.pushed as f64),
    );
    set(&mut m, "sim.events", c.events as f64);
    set(&mut m, "sim.frames_on_air", c.frames_on_air as f64);
    set(&mut m, "persec.records", c.persec_records as f64);
    set(&mut m, "ingest.records", c.decoded as f64);
    set(&mut m, "ingest.skipped", c.skipped as f64);
    set(&mut m, "merge.records", c.merged as f64);
    set(
        &mut m,
        "merge.dedup_ratio",
        ratio(c.merged as f64, c.decoded as f64),
    );
    set(&mut m, "topology.moves", c.moves as f64);
    set(&mut m, "topology.roams", c.roams as f64);
    set(
        &mut m,
        "mac.collision_ratio",
        ratio(c.collisions as f64, c.transmissions as f64),
    );
    set(
        &mut m,
        "sniffer.capture_ratio",
        ratio(c.captured as f64, c.on_air_at_sniffers as f64),
    );
    m
}

impl TracedRun {
    /// The spans as Chrome trace events under process `pid`, with each
    /// span's id, parent id, self time and measured RSS growth in `args`.
    pub fn trace_events(&self, pid: u64, workload: &str) -> Vec<Json> {
        let self_ns = self_times(&self.spans);
        let mut events = vec![obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("args", obj([("name", workload.into())])),
        ])];
        for s in &self.spans {
            let mut args = vec![
                ("id".to_string(), Json::from(s.id)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, Json::from),
                ),
                (
                    "self_us".to_string(),
                    Json::from(self_ns[&s.id] as f64 / 1e3),
                ),
            ];
            if let Some(rss) = s.rss_mb {
                args.push(("rss_mb".to_string(), rss.into()));
            }
            let tid = if s.thread == self.main_thread {
                0
            } else {
                s.thread
            };
            events.push(obj([
                ("name", s.layer.name().into()),
                ("cat", workload.into()),
                ("ph", "X".into()),
                ("pid", pid.into()),
                ("tid", tid.into()),
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.dur_ns() as f64 / 1e3).into()),
                ("args", Json::Obj(args)),
            ]));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: Layer, thread: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            thread,
            start_ns: start,
            end_ns: end,
            pool_threads: if layer == Layer::Pool { 2 } else { 0 },
            rss_mb: None,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            span(1, None, Layer::Run, 1, 0, 100),
            span(2, Some(1), Layer::Sim, 1, 0, 60),
            span(3, Some(1), Layer::Decode, 2, 0, 90),
            span(4, Some(3), Layer::PushBlocked, 2, 10, 20),
        ];
        let s = self_times(&spans);
        assert_eq!((s[&1], s[&2], s[&3], s[&4]), (40, 60, 80, 10));
    }

    #[test]
    fn shares_split_pools_by_worker_busy_time_and_sum_to_one() {
        // Main thread 1: run 0..100 with sim 0..20 and a 2-worker pool
        // 20..100. Worker 2 is busy for 80 ns (60 sim + 20 build), worker 3
        // for 40 ns (sim), so the pool's 80 ns split as sim 50, build 10,
        // idle 20.
        let spans = [
            span(1, None, Layer::Run, 1, 0, 100),
            span(2, Some(1), Layer::Sim, 1, 0, 20),
            span(3, Some(1), Layer::Pool, 1, 20, 100),
            span(4, Some(3), Layer::Task, 2, 20, 100),
            span(5, Some(4), Layer::Build, 2, 20, 40),
            span(6, Some(4), Layer::Sim, 2, 40, 100),
            span(7, Some(3), Layer::Task, 3, 20, 60),
            span(8, Some(7), Layer::Sim, 3, 20, 60),
            // set-up outside the run never counts
            span(9, None, Layer::Build, 1, 100, 200),
        ];
        let m = layer_metrics(&spans, 1, &Counters::default());
        let close = |k: &str, v: f64| assert!((m[k] - v).abs() < 1e-9, "{k} = {}, want {v}", m[k]);
        close("share.sim", 0.70);
        close("share.build", 0.10);
        close("share.wait", 0.20);
        close("share.untraced", 0.0);
        let total: f64 = m
            .iter()
            .filter(|(k, _)| k.starts_with("share."))
            .map(|(_, v)| v)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        close("pool.parallel_eff", 120.0 / 160.0);
        close("pool.imbalance", 80.0 / 60.0);
        close("pool.task_max_share", 1.0);
        close("trace.wall_s", 100e-9);
    }

    #[test]
    fn every_metric_is_reported_once() {
        let m = layer_metrics(
            &[span(1, None, Layer::Run, 1, 0, 10)],
            1,
            &Counters::default(),
        );
        assert_eq!(m.len(), LAYER_METRICS.len());
        assert_eq!(m["share.untraced"], 1.0);
    }
}
