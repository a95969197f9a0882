//! The six workloads: the inputs each builds from the seed, the untraced
//! entry-point call it times, and the fingerprint every run is checked
//! against.

use congestion::analyze;
use congestion::persec::SecondStats;
use congestion_bench::streaming::{
    run_sharded, run_streaming_mobile, run_streaming_pipelined, StreamedRun,
};
use congestion_bench::{run_cells, Cell, SweepArgs, DAY_SEED, PLENARY_SEED, RAMP_SEED};
use ietf80211_congestion::ingest::analyze_capture_streams;
use ietf80211_congestion::trace::CaptureWriter;
use ietf_workloads::{
    ietf_day, ietf_plenary, ietf_plenary_sharded, load_ramp, mobile_venue, venue_campus,
    CampusScale, ChurnScale, MobileScenario, Scenario, SessionScale, ShardScenario,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wifi_frames::fc::FrameKind;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Rate};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;

use crate::json::{obj, Json};

/// Worker threads for every parallel entry point, fixed so that results on
/// hosts with different core counts stay comparable (`host_cpus` is
/// recorded beside every result set).
pub const THREADS: usize = 2;

/// Simulated time per streaming chunk, as the repository's own pins use.
pub const CHUNK_US: Micros = 1_000_000;

/// Shard cap of `plenary-sharded`: past the plenary's three coupled
/// per-channel components, so time-window lockstep engages.
pub const LOCKSTEP_SHARDS: usize = 6;

/// The seed whose fingerprints are committed in [`expected`].
pub const REFERENCE_SEED: u64 = 11;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FigureSweep,
    Plenary523,
    PlenarySharded,
    Venue5k,
    Churn,
    TraceMerge3x,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::FigureSweep,
        Workload::Plenary523,
        Workload::PlenarySharded,
        Workload::Venue5k,
        Workload::Churn,
        Workload::TraceMerge3x,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigureSweep => "figure-sweep",
            Workload::Plenary523 => "plenary-523",
            Workload::PlenarySharded => "plenary-sharded",
            Workload::Venue5k => "venue-5k",
            Workload::Churn => "churn",
            Workload::TraceMerge3x => "trace-merge-3x",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs per sample, sized so that one sample takes about 1–2 s on its
    /// [`Workload::cpus`] of an x86-64 host; `figure-sweep` is one run of
    /// about 3 s.
    pub fn reps(self) -> usize {
        match self {
            Workload::FigureSweep => 1,
            Workload::Plenary523 => 5,
            Workload::PlenarySharded => 2,
            Workload::Venue5k => 2,
            Workload::Churn => 8,
            Workload::TraceMerge3x => 25,
        }
    }

    /// CPUs an end-to-end sample runs on: [`THREADS`] for the workloads
    /// whose entry point takes a worker count, so their numbers include the
    /// parallel speed-up; one for the others, whose few helper threads
    /// (`plenary-523`'s analysis thread, `trace-merge-3x`'s decoders) then
    /// share it.
    pub fn cpus(self) -> usize {
        match self {
            Workload::FigureSweep | Workload::PlenarySharded | Workload::Venue5k => THREADS,
            Workload::Plenary523 | Workload::Churn | Workload::TraceMerge3x => 1,
        }
    }

    /// False for `trace-merge-3x`, which reads captures and simulates
    /// nothing.
    pub fn simulates(self) -> bool {
        self != Workload::TraceMerge3x
    }
}

/// What a run produced, reduced to what the checks compare. Fields a
/// workload does not produce stay 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Discrete events simulated.
    pub events: u64,
    /// Frames that went on air (ground truth).
    pub frames_on_air: u64,
    /// Trace records folded into the per-second analysis: sniffer captures
    /// on the sim workloads, decoded capture records on `trace-merge-3x`.
    pub records: u64,
    /// Records left after merging the sniffers (`trace-merge-3x`).
    pub merged: u64,
    /// `move_station` repairs (`churn`).
    pub moves: u64,
    /// Roams between APs (`churn`).
    pub roams: u64,
    /// FNV-1a over the `Debug` rendering of every per-second statistic.
    pub digest: u64,
}

impl Fingerprint {
    /// Work units for `events_per_s`: simulated events, or decoded
    /// records where nothing is simulated.
    pub fn work(&self, workload: Workload) -> u64 {
        if workload.simulates() {
            self.events
        } else {
            self.records
        }
    }

    /// Frames for `frames_per_s`: frames put on air by the simulator, or
    /// capture frames decoded where nothing is simulated.
    pub fn frames(&self, workload: Workload) -> u64 {
        if workload.simulates() {
            self.frames_on_air
        } else {
            self.records
        }
    }

    pub fn to_json(self) -> Json {
        obj([
            ("events", self.events.into()),
            ("frames_on_air", self.frames_on_air.into()),
            ("records", self.records.into()),
            ("merged", self.merged.into()),
            ("moves", self.moves.into()),
            ("roams", self.roams.into()),
            // Hex: a u64 does not survive a JSON number.
            ("digest", format!("{:016x}", self.digest).into()),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        let n = |k: &str| v.get(k)?.as_f64().map(|x| x as u64);
        Some(Fingerprint {
            events: n("events")?,
            frames_on_air: n("frames_on_air")?,
            records: n("records")?,
            merged: n("merged")?,
            moves: n("moves")?,
            roams: n("roams")?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
        })
    }

    /// The count fields by name, for exact comparison in `compare`.
    pub fn counts(&self) -> [(&'static str, u64); 6] {
        [
            ("events", self.events),
            ("frames_on_air", self.frames_on_air),
            ("records", self.records),
            ("merged", self.merged),
            ("moves", self.moves),
            ("roams", self.roams),
        ]
    }
}

/// The committed fingerprint of `workload` at `seed`, where one is
/// committed (seed [`REFERENCE_SEED`] only). Other seeds are checked by the
/// cross-path identities alone.
pub fn expected(workload: Workload, seed: u64) -> Option<Fingerprint> {
    if seed != REFERENCE_SEED {
        return None;
    }
    let fp = |events, frames_on_air, records, merged, moves, roams, digest| Fingerprint {
        events,
        frames_on_air,
        records,
        merged,
        moves,
        roams,
        digest,
    };
    // Printed by `perfbench fingerprints --seed 11`.
    Some(match workload {
        Workload::FigureSweep => fp(24212795, 3517729, 3365932, 0, 0, 0, 0xfeebec4945cebba0),
        Workload::Plenary523 | Workload::PlenarySharded => {
            fp(1150505, 102964, 96996, 0, 0, 0, 0x615f59bb3216b659)
        }
        Workload::Venue5k => fp(2070801, 236693, 20092, 0, 0, 0, 0x8b4006afa1858f90),
        Workload::Churn => fp(884898, 146743, 137386, 0, 626, 42, 0xf3ebcdf19d635da3),
        Workload::TraceMerge3x => fp(0, 0, 216002, 90000, 0, 0, 0x0a5f952591a654f3),
    })
}

/// 64-bit FNV-1a, fed through `fmt::Write` so that `Debug` renderings hash
/// without being collected into strings.
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a per-second analysis, in order.
pub fn digest<'a>(seconds: impl IntoIterator<Item = &'a SecondStats>) -> u64 {
    let mut h = Fnv1a::new();
    for s in seconds {
        write!(h, "{s:?}").expect("hashing into FNV cannot fail");
    }
    h.finish()
}

/// The scenario seed of run `rep` of a sample at `seed`: consecutive seeds,
/// so that every sample averages over the same few scenarios and a run's
/// cost varies less from one `--seed` to the next than one scenario's does.
/// `trace-merge-3x` reads the captures written once per sample from
/// `seed`, so its runs repeat one input.
pub fn run_seed(workload: Workload, seed: u64, rep: usize) -> u64 {
    if workload.simulates() {
        seed.wrapping_add(rep as u64)
    } else {
        seed
    }
}

/// The plenary scenario both plenary workloads run: the paper's 523-user
/// peak, 30 s at plenary activity with 2 % RTS users.
pub fn plenary_scale(seed: u64) -> SessionScale {
    SessionScale {
        seed,
        users: 523,
        duration_s: 30,
        activity: 3.0,
        rts_fraction: 0.02,
    }
}

pub fn plenary(seed: u64) -> Scenario {
    let mut scenario = ietf_plenary(plenary_scale(seed));
    // The ground-truth tape is O(frames) memory that no output reads; the
    // on-air counter still runs.
    scenario.sim.config.record_ground_truth = false;
    scenario
}

pub fn plenary_sharded(seed: u64) -> ShardScenario {
    let mut scenario = ietf_plenary_sharded(plenary_scale(seed));
    scenario.spec.config_mut().record_ground_truth = false;
    scenario
}

pub fn venue(seed: u64) -> ShardScenario {
    let mut scenario = venue_campus(CampusScale::venue_5k(seed));
    scenario.spec.config_mut().record_ground_truth = false;
    scenario
}

pub fn churn(seed: u64) -> MobileScenario {
    let mut scenario = mobile_venue(ChurnScale::venue_default(seed));
    scenario.sim.config.record_ground_truth = false;
    scenario
}

/// The cells of the Figs 6–15 dataset: two 320-user, 700 s load ramps, the
/// day session and the plenary session. At seed [`RAMP_SEED`] these are
/// exactly the cells of `congestion_bench::figure_dataset` at two seeds;
/// other seeds shift every cell's seed by the same amount.
pub fn figure_cells(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = [seed, seed.wrapping_add(1)]
        .into_iter()
        .map(|s| {
            Cell::new(format!("ramp seed={s}"), s, move || {
                load_ramp(s, 320, 700, 1.7)
            })
        })
        .collect();
    let day = seed.wrapping_add(DAY_SEED - RAMP_SEED);
    cells.push(Cell::new(format!("day seed={day}"), day, move || {
        ietf_day(SessionScale::day_default(day))
    }));
    let plenary = seed.wrapping_add(PLENARY_SEED - RAMP_SEED);
    cells.push(Cell::new(
        format!("plenary seed={plenary}"),
        plenary,
        move || ietf_plenary(SessionScale::plenary_default(plenary)),
    ));
    cells
}

/// Sweep options of `figure-sweep`: the figure binaries' `--threads 2
/// --seeds 2`.
pub const FIGURE_ARGS: SweepArgs = SweepArgs {
    threads: THREADS,
    seeds: 2,
};

/// Sniffers in the trace-merge captures.
pub const SNIFFERS: u64 = 3;
/// Seconds of channel in the trace-merge captures.
const CAPTURE_S: u64 = 30;

/// Writes the `trace-merge-3x` captures into `dir`: three skewed, ~20 %
/// lossy sniffer views of one dense 30 s synthetic channel (~1500
/// data/ACK exchanges per second), written record by record so generation
/// never holds a trace in memory. The seed picks which records each
/// sniffer loses. Returns the paths and the records written.
pub fn write_captures(seed: u64, dir: &Path) -> Result<(Vec<PathBuf>, u64), String> {
    let rates = [Rate::R1, Rate::R2, Rate::R5_5, Rate::R11];
    let payloads = [64u32, 400, 900, 1472];
    let channel = Channel::new(1).expect("channel 1 exists");
    // Deterministic per-sniffer loss, independent across sniffers.
    let keep = |record: u64, sniffer: u64| -> bool {
        let h = (record ^ (sniffer << 32) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        !(h >> 33).is_multiple_of(5)
    };
    let paths: Vec<PathBuf> = (0..SNIFFERS)
        .map(|s| dir.join(format!("sniffer{s}.pcap")))
        .collect();
    let mut writers = paths
        .iter()
        .map(|p| CaptureWriter::create(p, 250))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot create capture: {e:?}"))?;
    let mut write_views = |index: u64, base: &FrameRecord| -> Result<(), String> {
        for (s, w) in writers.iter_mut().enumerate() {
            if keep(index, s as u64) {
                let mut r = *base;
                r.timestamp_us += 25 * s as u64; // per-sniffer clock skew
                r.signal_dbm -= s as i8; // a different vantage point
                w.write_record(&r)
                    .map_err(|e| format!("capture write failed: {e:?}"))?;
            }
        }
        Ok(())
    };
    for i in 0..CAPTURE_S * 1_500 {
        let t = i * 667;
        let src = MacAddr::from_id(1 + (i % 40) as u32);
        let payload = payloads[(i as usize / 4) % 4];
        let data = FrameRecord {
            timestamp_us: t,
            kind: FrameKind::Data,
            rate: rates[i as usize % 4],
            channel,
            dst: MacAddr::from_id(99),
            src: Some(src),
            bssid: Some(MacAddr::from_id(99)),
            retry: i % 7 == 0,
            seq: Some((i % 4096) as u16),
            mac_bytes: payload + 28,
            payload_bytes: payload,
            signal_dbm: -60,
            duration_us: 314,
        };
        write_views(2 * i, &data)?;
        let ack = FrameRecord {
            timestamp_us: t + 340,
            kind: FrameKind::Ack,
            rate: Rate::R1,
            channel,
            dst: src,
            src: None,
            bssid: None,
            retry: false,
            seq: None,
            mac_bytes: 14,
            payload_bytes: 0,
            signal_dbm: -60,
            duration_us: 0,
        };
        write_views(2 * i + 1, &ack)?;
    }
    let mut written = 0;
    for w in writers {
        written += w
            .finish()
            .map_err(|e| format!("capture flush failed: {e:?}"))?;
    }
    Ok((paths, written))
}

/// One untraced run: the set-up call (when the run has its own), the
/// entry-point call, and what came out.
pub struct Run {
    pub setup_s: Option<f64>,
    pub wall_s: f64,
    pub fingerprint: Fingerprint,
}

fn streamed(run: &StreamedRun) -> Fingerprint {
    Fingerprint {
        events: run.events_processed,
        frames_on_air: run.frames_on_air,
        records: run.sniffer_stats.iter().map(|s| s.captured).sum(),
        digest: digest(run.per_sniffer_seconds.iter().flatten()),
        ..Fingerprint::default()
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Runs `workload` once through its public entry point. `captures` are
/// the files from [`write_captures`] (`trace-merge-3x` only).
pub fn run_once(workload: Workload, seed: u64, captures: &[PathBuf]) -> Result<Run, String> {
    let run = match workload {
        Workload::FigureSweep => {
            // run_cells builds each cell's scenario inside the timed call;
            // building them once more here measures the constructors on
            // their own.
            let (_, setup_s) = timed(|| {
                figure_cells(seed)
                    .iter()
                    .for_each(|c| drop(c.build_scenario()))
            });
            let cells = figure_cells(seed);
            let ((seconds, fp), wall_s) = timed(|| {
                let (results, _) = run_cells("perfbench-figure-sweep", &FIGURE_ARGS, cells);
                let mut fp = Fingerprint::default();
                let mut seconds = Vec::new();
                for result in &results {
                    fp.events += result.events_processed;
                    fp.frames_on_air += result.frames_on_air;
                    for trace in &result.traces {
                        fp.records += trace.len() as u64;
                        seconds.extend(analyze(trace));
                    }
                }
                (seconds, fp)
            });
            Run {
                setup_s: Some(setup_s),
                wall_s,
                fingerprint: Fingerprint {
                    digest: digest(&seconds),
                    ..fp
                },
            }
        }
        Workload::Plenary523 => {
            let (scenario, setup_s) = timed(|| plenary(seed));
            let (run, wall_s) = timed(|| run_streaming_pipelined(scenario, CHUNK_US));
            Run {
                setup_s: Some(setup_s),
                wall_s,
                fingerprint: streamed(&run),
            }
        }
        Workload::PlenarySharded | Workload::Venue5k => {
            let (max_shards, build): (usize, fn(u64) -> ShardScenario) =
                if workload == Workload::Venue5k {
                    (usize::MAX, venue)
                } else {
                    (LOCKSTEP_SHARDS, plenary_sharded)
                };
            let (scenario, setup_s) = timed(|| build(seed));
            let (sharded, wall_s) = timed(|| run_sharded(scenario, CHUNK_US, THREADS, max_shards));
            Run {
                setup_s: Some(setup_s),
                wall_s,
                fingerprint: streamed(&sharded.run),
            }
        }
        Workload::Churn => {
            let (scenario, setup_s) = timed(|| churn(seed));
            let ((run, mobility), wall_s) = timed(|| run_streaming_mobile(scenario, CHUNK_US));
            Run {
                setup_s: Some(setup_s),
                wall_s,
                fingerprint: Fingerprint {
                    moves: mobility.moves,
                    roams: mobility.roams,
                    ..streamed(&run)
                },
            }
        }
        Workload::TraceMerge3x => {
            let (analysis, wall_s) = timed(|| analyze_capture_streams(captures));
            let analysis = analysis.map_err(|e| format!("ingestion failed: {e:?}"))?;
            if let Some(bad) = analysis.sources.iter().find(|s| !s.is_clean()) {
                return Err(format!("a capture did not decode cleanly: {bad:?}"));
            }
            Run {
                // Captures are written once per process, not per run.
                setup_s: None,
                wall_s,
                fingerprint: Fingerprint {
                    records: analysis.total_report().records_total(),
                    merged: analysis.merged_records,
                    digest: digest(&analysis.per_second),
                    ..Fingerprint::default()
                },
            }
        }
    };
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::new();
            h.write_str(s).unwrap();
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        assert_eq!(digest(&analyze(&[])), Fnv1a::new().finish());
        let ack = |timestamp_us| FrameRecord {
            timestamp_us,
            kind: FrameKind::Ack,
            rate: Rate::R1,
            channel: Channel::new(1).unwrap(),
            dst: MacAddr::from_id(1),
            src: None,
            bssid: None,
            retry: false,
            seq: None,
            mac_bytes: 14,
            payload_bytes: 0,
            signal_dbm: -60,
            duration_us: 0,
        };
        let seconds = analyze(&[ack(10), ack(1_000_010)]);
        let [a, b] = [&seconds[0], &seconds[1]];
        assert_ne!(digest([a, b]), digest([b, a]));
        assert_eq!(digest([a, b]), digest(&seconds));
        let mut rendered = Fnv1a::new();
        write!(rendered, "{a:?}{b:?}").unwrap();
        assert_eq!(digest(&seconds), rendered.finish());
    }

    #[test]
    fn fingerprint_survives_json() {
        let fp = Fingerprint {
            events: 1_150_505,
            frames_on_air: 102_964,
            records: 7,
            merged: 3,
            moves: 626,
            roams: 42,
            digest: u64::MAX - 5,
        };
        assert_eq!(Fingerprint::from_json(&fp.to_json()), Some(fp));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("ramp-320"), None);
    }

    #[test]
    fn runs_cover_consecutive_scenarios_except_on_captures() {
        let seeds = |w| (0..3).map(|r| run_seed(w, 11, r)).collect::<Vec<_>>();
        assert_eq!(seeds(Workload::Churn), vec![11, 12, 13]);
        assert_eq!(seeds(Workload::TraceMerge3x), vec![11, 11, 11]);
        assert_eq!(run_seed(Workload::Plenary523, u64::MAX, 1), 0);
    }
}
