//! # perfbench — the repository benchmark
//!
//! One command measures the two programs of the congestion study — the
//! 802.11b DCF simulator that regenerates the paper's figures, and the
//! multi-sniffer busy-time analyzer — end to end, checks every output, and,
//! in a separate traced pass, says which layer the time and memory went to.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plenary-523 --seed 11 --seconds 20 --trace 0
//! ```
//!
//! runs fresh sample processes of one workload for `--seconds` seconds and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The other subcommands:
//!
//! | command | does |
//! |---|---|
//! | `suite --out SET.json [--seed S] [--rounds 10] [--label L] [--parent-exe EXE --parent-out PARENT.json]` | one discarded warm-up round, then interleaved rounds of all six workloads, one fresh process per sample; writes every value plus median, quartiles and `n`; with a parent build, pairs every sample with one of the parent's, alternating which runs first |
//! | `compare PARENT.json CHANGE.json` | verdicts per workload and metric, see below |
//! | `trace [--seed S] [--trace-events OUT.json]` | one untraced and one traced sample per workload; prints self time per layer and writes Chrome trace events |
//! | `fingerprints [--seed S]` | prints every workload's output fingerprint, to re-bless [`workloads::expected`] |
//! | `sample …` | one sample in this process (what the others spawn) |
//!
//! Every workload takes its inputs from `--seed` (default 11): run *r* of
//! a sample simulates the scenario at seed `--seed + r`
//! ([`workloads::run_seed`]), so each sample covers the same few scenarios
//! and a number moves less from one `--seed` to the next than a single
//! scenario's would. The run at scenario seed 11 is checked against the
//! committed fingerprint in [`workloads::expected`]; at any seed, every
//! sample process must produce the same per-run outputs, `plenary-sharded`
//! must reproduce `plenary-523`'s per-second digests, and every traced
//! replica must reproduce its untraced entry point's. A run that panics or
//! fails a check counts as failed. Parallel entry points use
//! [`workloads::THREADS`] = 2 workers whatever the host has; `host_cpus`
//! is recorded in result sets.
//!
//! ## Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `figure-sweep` | the Figs 6–15 dataset: two 320-user 700 s load ramps, the day and the plenary session, as `Cell`s through `run_cells` on 2 threads, then `analyze` on every trace. One run per sample (~3 s on two CPUs). | The path that regenerates the paper's figures; the only one through the cell pool that materialises whole traces (~350–450 MB peak). |
//! | `plenary-523` | the 523-user plenary peak, 30 s at activity 3.0, 2 % RTS, through `run_streaming_pipelined`. Five runs per sample. | Densest contention: the event loop (timing wheel, carrier-sense fan-out, PHY batch) does nearly all the work, with no sharding and no topology writes. |
//! | `plenary-sharded` | the same scenario through `run_sharded(.., 2 threads, 6 shards)`: time-window lockstep over six BSS shards. Two runs per sample. | Its output must equal `plenary-523`'s, so the pair isolates the cost of the lockstep exchange. |
//! | `venue-5k` | `venue_campus(CampusScale::venue_5k)`: 5 000 users in 39 RF-isolated components, `run_sharded(.., 2, unbounded)`. Two runs per sample. | Scale: planning and topology dominate and per-cell contention is light. |
//! | `churn` | `mobile_venue(ChurnScale::venue_default)`: 160 users, a third walking, 60 s, through `run_streaming_mobile`. Eight runs per sample. | The write side of the topology layer (`move_station` repairs and roams). |
//! | `trace-merge-3x` | three skewed, ~20 %-lossy 30 s captures of one channel through `ingest::analyze_capture_streams`; captures are written once per sample process, before timing. 25 runs per sample. | Bypasses the simulator: pcap decode, batch channels, k-way merge and the per-second accumulator — the `wifi-congestion analyze` path. |
//!
//! Each workload exercises mechanisms another bypasses: the simulator
//! (`trace-merge-3x` has none), sharding (serial `plenary-523` and `churn`
//! have none), topology writes (only `churn`), whole-trace memory (only
//! `figure-sweep`), capture decoding (only `trace-merge-3x`).
//!
//! ## Steady numbers on a shared host
//!
//! On a shared virtual machine the speed of a CPU drifts by tens of percent
//! from one minute to the next; raw wall times of the same code, minutes
//! apart, differed by up to 1.5× on a 2-vCPU x86-64 host. The end-to-end
//! samples therefore
//!
//! - run on a fixed number of CPUs, [`Workload::cpus`]: [`workloads::THREADS`]
//!   for `figure-sweep`, `plenary-sharded` and `venue-5k`, whose entry points
//!   take that worker count, so their `wall_s` includes the parallel
//!   speed-up (or the lockstep exchange's lack of it); one for the others
//!   (the sample process pins itself before starting any thread), and
//! - time the calibration kernel in [`host`] before the first run and after
//!   every run (at least a fifth of the timed time), and report every time
//!   `t` as `t × CAL_REF_S / k`, with
//!   `k` the sample's median kernel time: seconds on a host that runs the
//!   kernel in [`host::CAL_REF_S`]. The kernel is the benchmark's own code,
//!   so a change to the program moves the numerator only.
//!
//! A single-threaded kernel scales the two-CPU samples about as steadily as
//! a kernel on both CPUs would: over ten seeds on a 2-vCPU host, the spread
//! of `wall_s` was 9 % against 8 % for `figure-sweep`, 4 % against 5 % for
//! `plenary-sharded` and 3 % against 5 % for `venue-5k`.
//!
//! ## End-to-end metrics
//!
//! Reported per workload as the median over samples; `suite` also gives
//! quartiles and `n`. A sample's value is the mean over its runs (its
//! total work over its total time, for the rates).
//!
//! | name | unit | better | bound (regression when worse by more) |
//! |---|---|---|---|
//! | `wall_s` | s per run | lower | 20 % |
//! | `setup_s` | s | lower | 25 % or 2 ms, whichever is larger |
//! | `events_per_s` | simulated events (decoded records on `trace-merge-3x`) per second of `wall_s` | higher | 20 % |
//! | `frames_per_s` | frames put on air (capture frames decoded on `trace-merge-3x`) per second of `wall_s` | higher | 20 % |
//! | `peak_rss_mb` | MB, `VmHWM` of the sample process | lower | 15 % or 1 MB |
//!
//! Times are at the reference host speed (see above). `wall_s` times the
//! entry-point call only. `setup_s` times the scenario
//! constructor handed to it (`plenary-523`, `plenary-sharded`, `venue-5k`,
//! `churn`), building the four sweep cells once more outside the sweep
//! (`figure-sweep`, whose sweep builds them internally), or writing the
//! captures (`trace-merge-3x`, once per process). Planning inside
//! `run_sharded` stays in `wall_s`; the per-layer metrics break it out. The
//! failure rate is `failed / attempted` in the result line; any increase
//! is a regression.
//!
//! ## Per-layer metrics (`--trace 1`, `trace`)
//!
//! The traced pass rebuilds each entry point from the same public calls and
//! times every call into a layer from outside ([`traced`]). `share.*` split
//! the traced run's wall time between layers and sum to 1; `trace.overhead`
//! is traced over untraced `wall_s`, minus 1. The serial simulator replicas
//! replay `run_streaming` without the pipelining thread, and the
//! `plenary-sharded` replica plans and builds the shards once before the
//! opaque `run_sharded` call, so their overhead includes that work. Layer
//! metrics a workload does not exercise read 0.
//!
//! | layer (module) | metrics | should move | most work / little or none |
//! |---|---|---|---|
//! | `ietf_workloads` constructors, `Cell::build_scenario` | `share.build` (and `setup_s`) | `setup_s`, `wall_s` | `figure-sweep` / `trace-merge-3x` |
//! | `wifi_sim::shard` planning | `share.partition`, `share.lockstep_plan`, `shard.partition_rss_mb`, `shard.lockstep_plan_rss_mb`, `share.shard_build` | `wall_s`, `peak_rss_mb` | `venue-5k`, `plenary-sharded` / serial workloads |
//! | `wifi_sim::shard` execution, `runner::run_parallel` | `shard.count`, `shard.components`, `shard.lockstep`, `pool.parallel_eff`, `pool.imbalance`, `pool.task_max_share`, `share.wait` | `wall_s` | `venue-5k`, `figure-sweep` / serial workloads |
//! | lockstep exchange | `share.shard_run`, `lockstep.queue_push_ratio` (sharded over serial `queue.pushed`) | `events_per_s` | `plenary-sharded` / all others |
//! | `Simulator::run_until` (queue, MAC, PHY, sniffer) | `share.sim`, `sim.events_per_s`, `sim.events`, `sim.frames_on_air` | `events_per_s` | `plenary-523`, `figure-sweep` / `trace-merge-3x` |
//! | `wifi_sim::events` | `queue.pushed`, `queue.popped`, `queue.stale_dropped`, `queue.cascaded`, `queue.stale_ratio` | `events_per_s` | `plenary-523` / `trace-merge-3x` |
//! | `WaypointMobility::advance` → `SensingTopology` writes | `share.topology`, `topology.moves_per_s`, `topology.moves`, `topology.roams` | `wall_s` | `churn` / all others |
//! | `congestion::persec` | `share.persec`, `persec.records_per_s`, `persec.records` | `frames_per_s` on `trace-merge-3x`, `wall_s` on `figure-sweep` | `trace-merge-3x`, `figure-sweep` / none (pipelined off the critical path in untraced `plenary-523`) |
//! | `trace::CaptureStream` + `wifi_pcap` streams | `ingest.records_per_s`, `ingest.records`, `ingest.skipped` | `frames_per_s` | `trace-merge-3x` / sim workloads |
//! | `wifi_sim::spsc` batch channels | `spsc.producer_blocked_ratio`, `share.wait` | `frames_per_s` | `trace-merge-3x` / — |
//! | `congestion::merge::MergeStream` | `share.merge`, `merge.records_per_s`, `merge.records`, `merge.dedup_ratio` | `frames_per_s` | `trace-merge-3x` / — |
//! | simulated statistics (identical in any performance change) | `mac.collision_ratio`, `sniffer.capture_ratio` | — | all sim workloads |
//! | the benchmark itself | `trace.wall_s`, `trace.overhead`, `share.untraced` | — | all |
//!
//! ## Entry points the benchmark depends on
//!
//! `congestion_bench::{run_cells, Cell, SweepArgs, DAY_SEED, PLENARY_SEED,
//! RAMP_SEED}`, `congestion_bench::streaming::{run_streaming_pipelined,
//! run_sharded, run_streaming_mobile}`, `ietf_workloads::{ietf_day,
//! ietf_plenary, ietf_plenary_sharded, load_ramp, mobile_venue,
//! venue_campus, SessionScale, CampusScale, ChurnScale}`,
//! `ietf80211_congestion::ingest::analyze_capture_streams`,
//! `ietf80211_congestion::trace::{CaptureWriter, CaptureStream}`,
//! `congestion::{analyze, merge::MergeStream, persec::SecondAccumulator}`,
//! `wifi_sim::{Simulator::run_until, runner::run_parallel, spsc,
//! shard::ShardSpec::{partition, partition_lockstep, build_shard,
//! build_lockstep_shard}}`, `WaypointMobility::advance`. A change that
//! supersedes one of these keeps it callable until the benchmark moves.
//!
//! ## Reading `compare`
//!
//! `compare PARENT.json CHANGE.json` takes the two files of one paired
//! `suite` run (build the parent commit's tree with this benchmark, then
//! `suite --out CHANGE.json --parent-exe PARENT_EXE --parent-out
//! PARENT.json`; round *i* of each file is pair *i*, and a round whose
//! sample failed on either side, stored as `null`, is left out of both)
//! and prints one row per workload:
//!
//! - `gain`: the change wins at least 9 of every 10 pairs (ten pairs or
//!   more, ties count for neither) and its median beats the parent's by
//!   more than the parent's inter-quartile distance (and than the bound's
//!   absolute floor);
//! - `REGRESSION`: the change's median is worse than the parent's by more
//!   than the bound above;
//! - `unresolved`: the parent's own inter-quartile distance is wider than
//!   the bound, and not every change run beats every parent run — rerun
//!   with more rounds rather than read it as unchanged;
//! - `unchanged`: none of the above.
//!
//! Counts (`events`, `frames_on_air`, `records`, `merged`, `moves`,
//! `roams`) and the digest must be exactly equal between the two sets at
//! the same seed, and the failure count may not rise. The exit code is 1 on
//! any regression or count change.

mod host;
mod json;
mod stats;
mod traced;
mod workloads;

use host::{calibrate, pin_to_cpus, status_kb, CAL_REF_S};
use json::{obj, Json};
use stats::{median, Better, Bound, Summary, Verdict};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use traced::{run_traced, LAYER_METRICS};
use workloads::{expected, run_once, write_captures, Fingerprint, Workload};

/// The end-to-end metrics: name, unit, better direction, and the
/// regression bound as a share of the parent's median and an absolute
/// floor.
///
/// A bound holds for every workload, so the noisiest one sets it. The
/// spread (inter-quartile distance over median) between ten runs at ten
/// seeds, measured three times, an hour apart, on a 2-vCPU x86-64 host,
/// reached 11 % for the time metrics of `figure-sweep` (its 20 s run holds
/// only five 3-s samples, and its seeds differ by 5 % in work), and up to
/// 11 % for the others while the host was busiest; memory spread reached
/// 9 % (`figure-sweep`, whose peak depends on which cells overlap). The
/// medians of two such sets of ten differed by at most 9 %. `setup_s`,
/// whose millisecond times vary most, has the widest bound.
const END_TO_END: &[(&str, &str, Better, f64, f64)] = &[
    ("wall_s", "s", Better::Lower, 0.20, 0.0),
    ("setup_s", "s", Better::Lower, 0.25, 0.002),
    ("events_per_s", "1/s", Better::Higher, 0.20, 0.0),
    ("frames_per_s", "1/s", Better::Higher, 0.20, 0.0),
    ("peak_rss_mb", "MB", Better::Lower, 0.15, 1.0),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("sample") => cmd_sample(rest),
        Some("suite") => cmd_suite(rest),
        Some("compare") => cmd_compare(rest),
        Some("trace") => cmd_trace(rest),
        Some("fingerprints") => cmd_fingerprints(rest),
        Some("--help" | "-h") => {
            println!(
                "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n\
                 \x20      perfbench suite --out SET.json [--seed N] [--rounds N] [--label TEXT]\n\
                 \x20        [--parent-exe EXE --parent-out PARENT.json]\n\
                 \x20      perfbench compare PARENT.json CHANGE.json\n\
                 \x20      perfbench trace [--seed N] [--trace-events OUT.json]\n\
                 \x20      perfbench fingerprints [--seed N]\n\
                 workloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            Ok(0)
        }
        _ => cmd_measure(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg} (try --help)");
            std::process::exit(2);
        }
    }
}

/// `--flag value` pairs and bare `--switch`es, checked against the names a
/// command accepts.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], with_value: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if with_value.contains(&arg.as_str()) {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.insert(arg.clone(), v.clone());
            } else if switches.contains(&arg.as_str()) {
                flags.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown argument {arg:?}"));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} needs a number, got {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory inside the current directory for sample processes:
/// capture files and the sweep's run report. Removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(".bench_work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

// ---------------------------------------------------------------- samples

/// Calibration time per sample, as a share of the timed runs' time.
const CAL_SHARE: f64 = 0.2;
/// Most calibration time after one run, s.
const CAL_ROUND_S: f64 = 0.25;

/// How a sample process runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// On the workload's [`Workload::cpus`], with the calibration kernel
    /// between runs: the end-to-end metrics.
    Pinned,
    /// On every CPU, untimed against the kernel: the base of
    /// `trace.overhead`.
    Free,
    /// The traced replicas, on every CPU; `Some(pid)` also returns the
    /// first run's spans as trace events of process `pid`.
    Traced(Option<u64>),
}

/// `sample`: runs one sample in this process and prints it as one JSON
/// line. Exits 1 if a run failed or its output differs from another run's
/// or from the committed fingerprint.
fn cmd_sample(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--reps", "--dir", "--pid"],
        &["--traced", "--spans", "--pinned"],
    )?;
    let workload = flags.workload()?;
    let seed: u64 = flags.num("--seed", workloads::REFERENCE_SEED)?;
    let reps: usize = flags.num("--reps", workload.reps())?;
    let dir = PathBuf::from(flags.get("--dir").ok_or("--dir is required")?);
    let traced = flags.has("--traced");
    let pinned = flags.has("--pinned");
    std::env::set_current_dir(&dir).map_err(|e| format!("cannot enter {}: {e}", dir.display()))?;
    if pinned {
        pin_to_cpus(workload.cpus())?;
    }

    // One kernel run before the first timed run and at least one after
    // each, more while kernel time is under CAL_SHARE of the timed time, at
    // most CAL_ROUND_S per round.
    let mut cal_s = Vec::new();
    let mut run_total = 0.0;
    let mut cal_total = 0.0;
    let mut calibrate_after = |run_s: f64, cal_s: &mut Vec<f64>| {
        run_total += run_s;
        let mut round = 0.0;
        while pinned && (round == 0.0 || cal_total < CAL_SHARE * run_total) && round < CAL_ROUND_S {
            let c = calibrate();
            cal_total += c;
            round += c;
            cal_s.push(c);
        }
    };
    calibrate_after(0.0, &mut cal_s);
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut layers = Vec::new();
    let mut extra: Vec<(&str, Json)> = Vec::new();
    let mut fingerprints: Vec<Fingerprint> = Vec::new();
    let mut error: Option<String> = None;
    let captures_dir = dir.join(format!("captures-{}", std::process::id()));
    let outcome = (|| -> Result<(), String> {
        let captures = if workload == Workload::TraceMerge3x {
            std::fs::create_dir_all(&captures_dir).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let (paths, _) = write_captures(seed, &captures_dir)?;
            setup_s.push(start.elapsed().as_secs_f64());
            paths
        } else {
            Vec::new()
        };
        for rep in 0..reps {
            let seed = workloads::run_seed(workload, seed, rep);
            let fp = if traced {
                let run = run_traced(workload, seed, &captures)?;
                if rep == 0 && flags.has("--spans") {
                    let pid: u64 = flags.num("--pid", 1)?;
                    extra.push((
                        "trace_events",
                        Json::Arr(run.trace_events(pid, workload.name())),
                    ));
                    let self_s = traced::layer_self_s(&run.spans)
                        .into_iter()
                        .map(|(layer, s)| (layer.name().to_string(), Json::from(s)))
                        .collect();
                    extra.push(("self_s", Json::Obj(self_s)));
                }
                wall_s.push(run.wall_s);
                layers.push(Json::Obj(
                    run.metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::from(*v)))
                        .collect(),
                ));
                run.fingerprint
            } else {
                let run = run_once(workload, seed, &captures)?;
                setup_s.extend(run.setup_s);
                wall_s.push(run.wall_s);
                calibrate_after(run.wall_s, &mut cal_s);
                run.fingerprint
            };
            fingerprints.push(fp);
            if let Some(want) = expected(workload, seed).filter(|want| *want != fp) {
                return Err(format!(
                    "fingerprint {fp:?} at seed {seed} differs from the committed {want:?}"
                ));
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&captures_dir);
    if let Err(e) = outcome {
        error = Some(e);
    }
    let mut line = vec![
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        ("traced", Json::Bool(traced)),
        ("setup_s", setup_s.into()),
        ("wall_s", wall_s.into()),
        ("cal_s", cal_s.into()),
        (
            "peak_rss_mb",
            status_kb("VmHWM").map_or(Json::Null, |kb| (kb as f64 / 1024.0).into()),
        ),
        (
            "fingerprints",
            Json::Arr(fingerprints.into_iter().map(Fingerprint::to_json).collect()),
        ),
        ("layers", Json::Arr(layers)),
        ("error", error.clone().map_or(Json::Null, Json::from)),
    ];
    line.extend(extra);
    println!(
        "{}",
        Json::Obj(line.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    );
    Ok(if error.is_some() { 1 } else { 0 })
}

/// One sample as the parent sees it.
struct Sample {
    reps: usize,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Calibration-kernel times measured between the runs (pinned mode).
    cal_s: Vec<f64>,
    peak_rss_mb: f64,
    /// One per run, in run order.
    fingerprints: Vec<Fingerprint>,
    layers: Vec<BTreeMap<String, f64>>,
    /// Set when the process failed or reported a failed check.
    error: Option<String>,
    /// The rest of the sample line (`trace_events`, `self_s`).
    line: Json,
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

impl Sample {
    fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Mean wall time of the sample's runs, which cover the same scenarios
    /// in every sample of a workload and seed.
    fn wall(&self) -> f64 {
        mean(&self.wall_s)
    }

    /// The end-to-end metric values of this sample, times scaled to the
    /// reference host speed by the calibration kernel.
    fn end_to_end(&self, workload: Workload) -> Option<[f64; 5]> {
        if self.fingerprints.len() != self.wall_s.len() || self.wall_s.is_empty() {
            return None;
        }
        let scale = CAL_REF_S / median(&self.cal_s);
        let total = self.wall_s.iter().sum::<f64>() * scale;
        let work: u64 = self.fingerprints.iter().map(|fp| fp.work(workload)).sum();
        let frames: u64 = self.fingerprints.iter().map(|fp| fp.frames(workload)).sum();
        Some([
            total / self.wall_s.len() as f64,
            mean(&self.setup_s) * scale,
            work as f64 / total,
            frames as f64 / total,
            self.peak_rss_mb,
        ])
    }

    fn digests(&self) -> Vec<u64> {
        self.fingerprints.iter().map(|fp| fp.digest).collect()
    }
}

fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))
}

/// Runs one sample of `reps` runs in a fresh process of `exe`, a build of
/// this benchmark.
fn spawn_sample(
    exe: &Path,
    workload: Workload,
    reps: usize,
    seed: u64,
    dir: &Path,
    mode: Mode,
) -> Sample {
    let mut cmd = Command::new(exe);
    cmd.args([
        "sample",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ])
    .args(["--reps", &reps.to_string()])
    .arg("--dir")
    .arg(dir);
    match mode {
        Mode::Pinned => {
            cmd.arg("--pinned");
        }
        Mode::Free => {}
        Mode::Traced(spans) => {
            cmd.arg("--traced");
            if let Some(pid) = spans {
                cmd.args(["--spans", "--pid", &pid.to_string()]);
            }
        }
    }
    let failed = |error: String| Sample {
        reps,
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        cal_s: Vec::new(),
        peak_rss_mb: 0.0,
        fingerprints: Vec::new(),
        layers: Vec::new(),
        error: Some(error),
        line: Json::Null,
    };
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot start a sample process: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(line) = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Json::parse(l).ok())
    else {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return failed(format!(
            "sample process exited with {} and no result: {}",
            output.status,
            tail.join(" | ")
        ));
    };
    let nums = |k: &str| line.get(k).and_then(Json::as_f64s).unwrap_or_default();
    let layers = line
        .get("layers")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|rep| {
            rep.as_object()
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .collect();
    let mut error = line.get("error").and_then(Json::as_str).map(str::to_string);
    if error.is_none() && !output.status.success() {
        error = Some(format!("sample process exited with {}", output.status));
    }
    let fingerprints: Option<Vec<Fingerprint>> = line
        .get("fingerprints")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(Fingerprint::from_json)
        .collect();
    if error.is_none() && fingerprints.as_ref().is_none_or(|f| f.len() != reps) {
        error = Some(format!(
            "sample process returned no fingerprint for some of its {reps} runs"
        ));
    }
    Sample {
        reps,
        setup_s: nums("setup_s"),
        wall_s: nums("wall_s"),
        cal_s: nums("cal_s"),
        peak_rss_mb: line
            .get("peak_rss_mb")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        fingerprints: fingerprints.unwrap_or_default(),
        layers,
        error,
        line,
    }
}

/// Counts runs and failures of one workload, and checks that every sample
/// reproduces the first one's output.
struct Checker {
    workload: Workload,
    first: Option<Vec<Fingerprint>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload) -> Checker {
        Checker {
            workload,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn record(&mut self, sample: &mut Sample) {
        self.attempted += sample.reps as u64;
        if sample.error.is_none() {
            match &self.first {
                None => self.first = Some(sample.fingerprints.clone()),
                Some(first) if *first != sample.fingerprints => {
                    sample.error = Some(format!(
                        "output differs between sample processes: {:?} vs {first:?}",
                        sample.fingerprints
                    ))
                }
                Some(_) => {}
            }
        }
        if let Some(e) = &sample.error {
            self.failed += sample.reps as u64;
            eprintln!("perfbench[{}]: failed sample: {e}", self.workload.name());
        }
    }

    fn digests(&self) -> Option<Vec<u64>> {
        Some(self.first.as_ref()?.iter().map(|fp| fp.digest).collect())
    }

    /// Cross-path identity: this workload's per-run digests must equal
    /// `digests`. A mismatch fails every run counted so far.
    fn require_digests(&mut self, digests: Option<Vec<u64>>, what: &str) {
        let ok = digests.is_some() && self.digests() == digests;
        if !ok && self.failed < self.attempted {
            eprintln!(
                "perfbench: {} output does not reproduce {what}",
                self.workload.name()
            );
            self.failed = self.attempted;
        }
    }
}

/// The digests `plenary-sharded` must reproduce, given `plenary-523`'s:
/// both run scenarios `seed, seed + 1, …`, the sharded one fewer of them.
fn serial_prefix(digests: Option<Vec<u64>>) -> Option<Vec<u64>> {
    let n = Workload::PlenarySharded.reps();
    digests.filter(|d| d.len() >= n).map(|d| d[..n].to_vec())
}

// ------------------------------------------------------------ measurement

/// The measurement run: samples of one workload in fresh processes for
/// `--seconds`, then one JSON result line.
fn cmd_measure(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let workload = flags.workload()?;
    let seed: u64 = flags.num("--seed", workloads::REFERENCE_SEED)?;
    let seconds: f64 = flags.num("--seconds", 10.0)?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let exe = this_exe()?;
    let work = WorkDir::create()?;
    let mut check = Checker::new(workload);
    // The cross-path reference is made before the clock starts.
    let reference = (workload == Workload::PlenarySharded).then(|| {
        let s = spawn_sample(
            &exe,
            Workload::Plenary523,
            workload.reps(),
            seed,
            &work.0,
            Mode::Free,
        );
        s.ok().then(|| s.digests())
    });

    let start = Instant::now();
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let want_traced = trace && traced.len() < plain.len();
        let mode = match (trace, want_traced) {
            (false, _) => Mode::Pinned,
            (true, false) => Mode::Free,
            (true, true) => Mode::Traced(None),
        };
        let t0 = Instant::now();
        let mut sample = spawn_sample(&exe, workload, workload.reps(), seed, &work.0, mode);
        longest = longest.max(t0.elapsed().as_secs_f64());
        check.record(&mut sample);
        if want_traced {
            traced.push(sample);
        } else {
            plain.push(sample);
        }
        let have_all = !plain.is_empty() && (!trace || !traced.is_empty());
        let elapsed = start.elapsed().as_secs_f64();
        // Never start a sample that would overrun the measuring time.
        if have_all && elapsed + longest > seconds {
            break;
        }
    }
    if let Some(digests) = reference {
        check.require_digests(digests, "plenary-523's per-second output");
    }
    let ok_plain: Vec<&Sample> = plain.iter().filter(|s| s.ok()).collect();
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if trace {
        let ok_traced: Vec<&Sample> = traced.iter().filter(|s| s.ok()).collect();
        // Both kinds of sample run the same scenarios, so their mean walls
        // compare.
        let wall =
            |samples: &[&Sample]| median(&samples.iter().map(|s| s.wall()).collect::<Vec<_>>());
        let overhead = wall(&ok_traced) / wall(&ok_plain) - 1.0;
        for &(name, unit, _) in LAYER_METRICS {
            let values: Vec<f64> = ok_traced
                .iter()
                .flat_map(|s| s.layers.iter().filter_map(|rep| rep.get(name).copied()))
                .collect();
            let value = if name == "trace.overhead" {
                overhead
            } else {
                median(&values)
            };
            metrics.push((
                name.to_string(),
                obj([("value", value.into()), ("unit", unit.into())]),
            ));
        }
    } else {
        let values: Vec<[f64; 5]> = ok_plain
            .iter()
            .filter_map(|s| s.end_to_end(workload))
            .collect();
        for (i, &(name, unit, ..)) in END_TO_END.iter().enumerate() {
            let column: Vec<f64> = values.iter().map(|v| v[i]).collect();
            metrics.push((
                name.to_string(),
                obj([("value", median(&column).into()), ("unit", unit.into())]),
            ));
        }
    }
    let correct = check.failed == 0 && check.attempted > 0;
    eprintln!(
        "perfbench[{}]: seed {seed}, {} samples ({} traced) in {:.1} s, {} of {} runs failed",
        workload.name(),
        plain.len() + traced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        check.failed,
        check.attempted
    );
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(correct)),
            ("attempted", check.attempted.into()),
            ("failed", check.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(if correct { 0 } else { 1 })
}

// ------------------------------------------------------------------ suite

/// Rounds a `suite` runs and discards before the measured ones.
const WARMUP_ROUNDS: usize = 1;

/// One build's results in a `suite`.
struct Side {
    exe: PathBuf,
    out: String,
    checks: Vec<Checker>,
    /// Per workload, one row of end-to-end values per round; NaN where the
    /// round's sample failed.
    values: Vec<Vec<[f64; 5]>>,
}

/// `suite`: interleaved rounds over every workload — each round runs one
/// fresh sample of each, starting one workload later than the round
/// before — then writes every value with its summary. With
/// `--parent-exe`, every sample of this build is paired with one of the
/// parent build, alternating which runs first, and the parent's values go
/// to `--parent-out`: the pairs `compare` reads.
fn cmd_suite(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &[
            "--seed",
            "--rounds",
            "--out",
            "--label",
            "--parent-exe",
            "--parent-out",
        ],
        &[],
    )?;
    let seed: u64 = flags.num("--seed", workloads::REFERENCE_SEED)?;
    let rounds: usize = flags.num("--rounds", 10)?;
    let side = |exe: PathBuf, out: &str| Side {
        exe,
        out: out.to_string(),
        checks: Workload::ALL.into_iter().map(Checker::new).collect(),
        values: vec![Vec::new(); Workload::ALL.len()],
    };
    let mut sides = vec![side(
        this_exe()?,
        flags.get("--out").ok_or("--out is required")?,
    )];
    match (flags.get("--parent-exe"), flags.get("--parent-out")) {
        (Some(exe), Some(out)) => sides.push(side(PathBuf::from(exe), out)),
        (None, None) => {}
        _ => return Err("--parent-exe and --parent-out go together".into()),
    }
    let work = WorkDir::create()?;
    let start = Instant::now();
    for round in 0..WARMUP_ROUNDS + rounds {
        for k in 0..Workload::ALL.len() {
            let i = (round + k) % Workload::ALL.len();
            let workload = Workload::ALL[i];
            let n_sides = sides.len();
            for n in 0..n_sides {
                let side = &mut sides[(n + round) % n_sides];
                let mut sample = spawn_sample(
                    &side.exe,
                    workload,
                    workload.reps(),
                    seed,
                    &work.0,
                    Mode::Pinned,
                );
                if round < WARMUP_ROUNDS {
                    continue; // warm-up rounds are discarded, failures included
                }
                side.checks[i].record(&mut sample);
                // A failed sample keeps its round's place, so that round r of
                // a paired run stays pair r in `compare`.
                let values = sample.end_to_end(workload).filter(|_| sample.ok());
                side.values[i].push(values.unwrap_or([f64::NAN; 5]));
            }
        }
        eprintln!(
            "perfbench suite: round {}/{} done at {:.0} s",
            round + 1,
            WARMUP_ROUNDS + rounds,
            start.elapsed().as_secs_f64()
        );
    }
    let mut ok = true;
    for side in &mut sides {
        let serial = serial_prefix(side.checks[1].digests());
        side.checks[2].require_digests(serial, "plenary-523's per-second output");
        println!("{}:", side.out);
        let set = summarize(side, &flags, seed, rounds, start.elapsed().as_secs_f64());
        std::fs::write(&side.out, format!("{set}\n"))
            .map_err(|e| format!("cannot write {}: {e}", side.out))?;
        ok &= side.checks.iter().all(|c| c.failed == 0);
    }
    eprintln!(
        "perfbench suite: wrote {} after {:.0} s",
        sides
            .iter()
            .map(|s| s.out.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        start.elapsed().as_secs_f64()
    );
    Ok(if ok { 0 } else { 1 })
}

/// Prints one side's summary table and returns its result set.
fn summarize(side: &Side, flags: &Flags, seed: u64, rounds: usize, elapsed_s: f64) -> Json {
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>14} {:>4} {:>8}",
        "workload", "metric", "median", "q1", "q3", "n", "spread"
    );
    for ((workload, check), values) in Workload::ALL.iter().zip(&side.checks).zip(&side.values) {
        let mut metrics = Vec::new();
        for (j, &(name, unit, ..)) in END_TO_END.iter().enumerate() {
            let column: Vec<f64> = values.iter().map(|v| v[j]).collect();
            let s = Summary::of(&column);
            println!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>7.2}%",
                workload.name(),
                name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0
            );
            metrics.push((
                name.to_string(),
                obj([
                    ("unit", unit.into()),
                    ("median", s.median.into()),
                    ("q1", s.q1.into()),
                    ("q3", s.q3.into()),
                    ("n", (s.n as u64).into()),
                    ("values", column.into()),
                ]),
            ));
        }
        println!(
            "{:<16} {:<14} {:>14.4} ({} of {} runs failed)",
            workload.name(),
            "error_rate",
            check.failed as f64 / check.attempted.max(1) as f64,
            check.failed,
            check.attempted
        );
        let fingerprints = check
            .first
            .iter()
            .flatten()
            .copied()
            .map(Fingerprint::to_json);
        rows.push(obj([
            ("name", workload.name().into()),
            ("attempted", check.attempted.into()),
            ("failed", check.failed.into()),
            ("fingerprints", Json::Arr(fingerprints.collect())),
            ("metrics", Json::Obj(metrics)),
        ]));
    }
    obj([
        ("label", flags.get("--label").unwrap_or("").into()),
        ("host_cpus", (host_cpus() as u64).into()),
        ("threads", (workloads::THREADS as u64).into()),
        ("seed", seed.into()),
        ("rounds", (rounds as u64).into()),
        ("warmup", (WARMUP_ROUNDS as u64).into()),
        ("elapsed_s", elapsed_s.into()),
        ("workloads", Json::Arr(rows)),
    ])
}

// ---------------------------------------------------------------- compare

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare PARENT.json CHANGE.json`: see "Reading `compare`" above.
fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &[], &[])?;
    let [parent, change] = flags.positional.as_slice() else {
        return Err("compare takes two result sets: PARENT.json CHANGE.json".into());
    };
    let (parent, change) = (read_set(parent)?, read_set(change)?);
    let same_seed = parent.get("seed") == change.get("seed");
    if !same_seed {
        println!("seeds differ: counts are not compared");
    }
    let rows = |set: &Json| -> Vec<Json> {
        set.get("workloads")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .to_vec()
    };
    let mut bad = false;
    for p in rows(&parent) {
        let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(c) = rows(&change)
            .into_iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} missing from the change's set");
            bad = true;
            continue;
        };
        let mut cells = Vec::new();
        for &(metric, _, better, rel, abs) in END_TO_END {
            // One value per round; `null` (NaN) where the round failed.
            let values = |row: &Json| -> Option<Vec<f64>> {
                let list = row.get("metrics")?.get(metric)?.get("values")?.as_array()?;
                Some(
                    list.iter()
                        .map(|v| v.as_f64().unwrap_or(f64::NAN))
                        .collect(),
                )
            };
            let (Some(pv), Some(cv)) = (values(&p), values(&c)) else {
                cells.push(format!("{metric}=missing"));
                bad = true;
                continue;
            };
            let v = stats::verdict(&pv, &cv, better, Bound { rel, abs });
            bad |= v == Verdict::Regression;
            let delta = Summary::of(&cv).median / Summary::of(&pv).median - 1.0;
            cells.push(format!("{metric}={}({:+.1}%)", v.label(), delta * 100.0));
        }
        let fps = |row: &Json| -> Option<Vec<Fingerprint>> {
            let list = row.get("fingerprints")?.as_array()?;
            list.iter()
                .map(Fingerprint::from_json)
                .collect::<Option<Vec<_>>>()
                .filter(|l| !l.is_empty())
        };
        let counts = match (fps(&p), fps(&c)) {
            _ if !same_seed => "counts=not-compared".to_string(),
            (Some(a), Some(b)) if a == b => "counts=same".to_string(),
            (Some(a), Some(b)) => {
                bad = true;
                let changed: Vec<String> = a
                    .iter()
                    .zip(&b)
                    .enumerate()
                    .flat_map(|(run, (a, b))| {
                        a.counts()
                            .into_iter()
                            .zip(b.counts())
                            .filter(|(x, y)| x.1 != y.1)
                            .map(move |(x, y)| format!("run{run}.{}:{}->{}", x.0, x.1, y.1))
                            .chain((a.digest != b.digest).then(|| format!("run{run}.digest")))
                    })
                    .chain((a.len() != b.len()).then(|| format!("runs:{}->{}", a.len(), b.len())))
                    .collect();
                format!("counts=CHANGED[{}]", changed.join(","))
            }
            _ => {
                bad = true;
                "counts=missing".to_string()
            }
        };
        let failed = |row: &Json| {
            row.get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        let errors = if failed(&c) > failed(&p) {
            bad = true;
            format!("errors=REGRESSION({}->{})", failed(&p), failed(&c))
        } else {
            format!("errors={}", failed(&c))
        };
        println!("{name:<16} {} {counts} {errors}", cells.join(" "));
    }
    Ok(if bad { 1 } else { 0 })
}

// ------------------------------------------------------------------ trace

/// `trace`: per workload, one untraced and one traced sample; prints the
/// self time per layer and the per-layer metrics, and writes the spans as
/// Chrome trace events.
fn cmd_trace(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--seed", "--trace-events"], &[])?;
    let seed: u64 = flags.num("--seed", workloads::REFERENCE_SEED)?;
    let exe = this_exe()?;
    let work = WorkDir::create()?;
    let mut events = Vec::new();
    let mut serial_digests = None;
    let mut failed = false;
    for (pid, workload) in Workload::ALL.into_iter().enumerate() {
        let mut check = Checker::new(workload);
        let mut plain = spawn_sample(&exe, workload, workload.reps(), seed, &work.0, Mode::Free);
        check.record(&mut plain);
        let mut traced = spawn_sample(
            &exe,
            workload,
            workload.reps(),
            seed,
            &work.0,
            Mode::Traced(Some(pid as u64 + 1)),
        );
        check.record(&mut traced);
        if workload == Workload::Plenary523 {
            serial_digests = serial_prefix(check.digests());
        }
        if workload == Workload::PlenarySharded {
            check.require_digests(serial_digests.clone(), "plenary-523's per-second output");
        }
        failed |= check.failed > 0;
        let overhead = traced.wall() / plain.wall() - 1.0;
        println!(
            "\n== {} == untraced {:.4} s, traced {:.4} s (trace.overhead {:+.1}%){}",
            workload.name(),
            plain.wall(),
            traced.wall(),
            overhead * 100.0,
            if check.failed > 0 {
                "  CHECK FAILED"
            } else {
                ""
            }
        );
        println!("{:<22} {:>12}", "layer (all threads)", "self ms/run");
        if let Some(self_s) = traced.line.get("self_s").and_then(Json::as_object) {
            for (layer, s) in self_s {
                println!("{:<22} {:>12.2}", layer, s.as_f64().unwrap_or(0.0) * 1e3);
            }
        }
        println!("{:<30} {:>14}", "metric (median of runs)", "value");
        for &(name, unit, _) in LAYER_METRICS {
            let values: Vec<f64> = traced
                .layers
                .iter()
                .filter_map(|rep| rep.get(name).copied())
                .collect();
            let v = if name == "trace.overhead" {
                overhead
            } else {
                median(&values)
            };
            if v != 0.0 {
                println!("{name:<30} {v:>14.6} {unit}");
            }
        }
        if let Some(e) = traced.line.get("trace_events").and_then(Json::as_array) {
            events.extend(e.iter().cloned());
        }
    }
    if let Some(path) = flags.get("--trace-events") {
        let doc = obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("perfbench trace: wrote {path}");
    }
    Ok(if failed { 1 } else { 0 })
}

// ----------------------------------------------------------- fingerprints

/// `fingerprints`: every workload's output at `--seed`, in the form
/// [`workloads::expected`] lists them. At the reference seed it also checks
/// that `figure-sweep` reproduces `congestion_bench::figure_dataset`.
fn cmd_fingerprints(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["--seed"], &[])?;
    let seed: u64 = flags.num("--seed", workloads::REFERENCE_SEED)?;
    let work = WorkDir::create()?;
    std::env::set_current_dir(&work.0).map_err(|e| e.to_string())?;
    let (captures, _) = write_captures(seed, &work.0)?;
    for workload in Workload::ALL {
        let fp = run_once(workload, seed, &captures)?.fingerprint;
        println!(
            "{:<16} fp({}, {}, {}, {}, {}, {}, 0x{:016x})",
            workload.name(),
            fp.events,
            fp.frames_on_air,
            fp.records,
            fp.merged,
            fp.moves,
            fp.roams,
            fp.digest
        );
        if workload == Workload::FigureSweep && seed == congestion_bench::RAMP_SEED {
            let (seconds, _) = congestion_bench::figure_dataset(
                "perfbench-figure-dataset",
                &workloads::FIGURE_ARGS,
            );
            let same = workloads::digest(&seconds) == fp.digest;
            println!(
                "{:<16} figure_dataset digest {}",
                "",
                if same { "matches" } else { "DIFFERS" }
            );
            if !same {
                return Ok(1);
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program reports, with the same units and directions,
    /// and the end-to-end bounds used by `compare`.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let better = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
            .to_string()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, rel, _)| (n.to_string(), u.to_string(), better(b), Some(rel)))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = LAYER_METRICS
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), better(b), None))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()).to_vec());
    }

    #[test]
    fn end_to_end_values_are_scaled_by_the_calibration_kernel() {
        let fp = |events, frames_on_air, records| Fingerprint {
            events,
            frames_on_air,
            records,
            ..Fingerprint::default()
        };
        let sample = Sample {
            reps: 2,
            setup_s: vec![0.01, 0.03],
            wall_s: vec![1.0, 3.0],
            // The kernel ran at half the reference speed: times halve.
            cal_s: vec![2.0 * CAL_REF_S, 9.0, 2.0 * CAL_REF_S],
            peak_rss_mb: 12.5,
            fingerprints: vec![fp(100, 20, 10), fp(300, 60, 30)],
            layers: Vec::new(),
            error: None,
            line: Json::Null,
        };
        let [wall, setup, events, frames, rss] = sample.end_to_end(Workload::Churn).unwrap();
        assert!((wall - 1.0).abs() < 1e-12);
        assert!((setup - 0.01).abs() < 1e-12);
        assert!((events - 200.0).abs() < 1e-9);
        assert!((frames - 40.0).abs() < 1e-9);
        assert_eq!(rss, 12.5);
        // Decoded records are the work and the frames where nothing is
        // simulated.
        let [_, _, events, frames, _] = sample.end_to_end(Workload::TraceMerge3x).unwrap();
        assert!((events - 20.0).abs() < 1e-9 && (frames - 20.0).abs() < 1e-9);
    }

    #[test]
    fn flags_reject_unknown_and_incomplete_arguments() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let f = Flags::parse(
            &args(&["--seed", "12", "--traced", "a.json"]),
            &["--seed"],
            &["--traced"],
        )
        .unwrap();
        assert_eq!(f.num("--seed", 0u64), Ok(12));
        assert!(f.has("--traced"));
        assert_eq!(f.positional, vec!["a.json".to_string()]);
        assert!(Flags::parse(&args(&["--frob"]), &["--seed"], &[]).is_err());
        assert!(Flags::parse(&args(&["--seed"]), &["--seed"], &[]).is_err());
        let bad = Flags::parse(&args(&["--seed", "x"]), &["--seed"], &[]).unwrap();
        assert!(bad.num("--seed", 0u64).is_err());
    }
}
