//! Pinned perf baselines: three scenarios, one append-only trajectory each.
//!
//! Each *pin* is a fixed scenario (seed, scale, duration are part of the
//! contract) whose throughput is tracked across the life of the repository
//! in a JSON trajectory file — every blessed optimization appends an entry,
//! so the file reads as the perf history of the simulator:
//!
//! * `ramp-quick`   — 48-user load ramp, 60 s (CI smoke scale) → `BENCH_sim_quick.json`
//! * `ramp-320`     — 320-user mid-congestion ramp, 30 s       → `BENCH_sim.json`
//! * `plenary-523`  — the paper's full IETF-62 plenary peak:
//!   523 concurrent users at plenary activity, 30 s            → `BENCH_sim_plenary.json`
//! * `venue-5k`     — the whole conference campus: ≈5,000 users, 39 APs over
//!   channels 1/6/11 in 13 RF-isolated halls, 10 s, run on the sharded
//!   intra-scenario parallel path (`--threads`)   → `BENCH_sim_venue.json`
//! * `churn`        — the mobile venue: 160 users on the nine-AP floor,
//!   a third walking waypoint routes and roaming between APs on coherence
//!   ticks (incremental topology maintenance)     → `BENCH_sim_churn.json`
//! * `trace-merge-3x` — the ingestion fast path: three skewed, lossy 30 s
//!   sniffer captures of one channel streamed through parallel decode,
//!   the k-way online merge, and per-second analysis → `BENCH_trace.json`
//!
//! ```text
//! cargo run --release -p congestion-bench --bin bench_baseline -- --pin ramp-320
//! cargo run --release -p congestion-bench --bin bench_baseline -- \
//!     --pin ramp-quick --out bench_ci.json --check BENCH_sim_quick.json
//! cargo run --release -p congestion-bench --bin bench_baseline -- \
//!     --pin venue-5k --threads 8
//! ```
//!
//! The serial pins use the pipelined sim→analysis path (event loop and
//! per-second congestion analysis overlapped on two threads; results
//! byte-identical to the serial path — `crates/bench/tests/golden.rs` pins
//! that down). The venue pin runs `run_sharded`: one event loop per
//! RF-isolation shard on a `--threads`-wide work queue, merged output again
//! identical for every thread count. The plenary pin with `--max-shards > 1`
//! also runs `run_sharded` — as its three per-channel cells, each one
//! coupled RF-isolation component — still byte-identical to the serial
//! run. Sharded trajectory entries carry `threads`/`shards`/`components`,
//! and every entry `host_cpus`, so scaling claims can be read against the
//! hardware that produced them — an entry at `--threads 8` on a one-CPU
//! host measures scheduling overhead, not speedup.
//!
//! `--check <file>` compares events/s against the last trajectory entry of
//! a committed baseline and exits non-zero on a drop of more than 15 %,
//! after verifying the entry's scenario fingerprint (seed/users/duration/
//! event count), so a stale file can't silently gate against the wrong
//! workload. Historical `"lockstep": true` entries (time-window lockstep
//! sharding, since removed) are skipped: gating against one would let the
//! run lose most of its speed unnoticed.

use congestion_bench::streaming::{
    run_sharded, run_streaming_mobile, run_streaming_pipelined, MobilityStats, StreamedRun,
};
use ietf_workloads::{
    ietf_plenary, ietf_plenary_sharded, load_ramp, mobile_venue, venue_campus, CampusScale,
    ChurnScale, Scenario, SessionScale,
};

/// The pinned scenarios: identity and scale are part of the baseline
/// contract; changing any number here invalidates the trajectory file.
#[derive(Clone, Copy, PartialEq)]
enum PinName {
    RampQuick,
    Ramp320,
    Plenary523,
    Venue5k,
    Churn,
    TraceMerge3x,
}

struct Pin {
    name: PinName,
    seed: u64,
    users: usize,
    duration_s: u64,
}

impl Pin {
    fn by_name(name: &str) -> Option<Pin> {
        let pin = match name {
            // CI smoke scale: long enough that the wall-clock measurement
            // is not dominated by startup noise, small enough for every PR.
            "ramp-quick" => Pin {
                name: PinName::RampQuick,
                seed: 11,
                users: 48,
                duration_s: 60,
            },
            // Mid-congestion: dense enough that the medium saturates and
            // contention dominates, short enough to run on every PR.
            "ramp-320" => Pin {
                name: PinName::Ramp320,
                seed: 11,
                users: 320,
                duration_s: 30,
            },
            // The paper's venue at its peak: 523 concurrent users in the
            // merged plenary ballroom (Section 2 of the paper).
            "plenary-523" => Pin {
                name: PinName::Plenary523,
                seed: 11,
                users: 523,
                duration_s: 30,
            },
            // The whole conference campus: the venue-scale pin for the
            // sharded intra-scenario parallel path (13 halls × 3 channels
            // of RF isolation).
            "venue-5k" => Pin {
                name: PinName::Venue5k,
                seed: 11,
                users: 5_000,
                duration_s: 10,
            },
            // The mobile venue: waypoint walkers roaming the nine-AP floor
            // on coherence ticks — the churn workload family opened by
            // incremental topology maintenance.
            "churn" => Pin {
                name: PinName::Churn,
                seed: 11,
                users: 160,
                duration_s: 60,
            },
            // The trace-ingestion fast path: three skewed, lossy 30 s
            // sniffer captures of one synthetic channel, streamed through
            // parallel decode + k-way merge + per-second analysis. `users`
            // is the sniffer count here.
            "trace-merge-3x" => Pin {
                name: PinName::TraceMerge3x,
                seed: 11,
                users: 3,
                duration_s: 30,
            },
            _ => return None,
        };
        Some(pin)
    }

    fn label(&self) -> &'static str {
        match self.name {
            PinName::RampQuick => "ramp-quick",
            PinName::Ramp320 => "ramp-320",
            PinName::Plenary523 => "plenary-523",
            PinName::Venue5k => "venue-5k",
            PinName::Churn => "churn",
            PinName::TraceMerge3x => "trace-merge-3x",
        }
    }

    fn default_out(&self) -> &'static str {
        match self.name {
            PinName::RampQuick => "BENCH_sim_quick.json",
            PinName::Ramp320 => "BENCH_sim.json",
            PinName::Plenary523 => "BENCH_sim_plenary.json",
            PinName::Venue5k => "BENCH_sim_venue.json",
            PinName::Churn => "BENCH_sim_churn.json",
            PinName::TraceMerge3x => "BENCH_trace.json",
        }
    }

    fn build(&self) -> Scenario {
        match self.name {
            PinName::RampQuick | PinName::Ramp320 => {
                load_ramp(self.seed, self.users, self.duration_s, 1.7)
            }
            PinName::Plenary523 => ietf_plenary(SessionScale {
                seed: self.seed,
                users: self.users,
                duration_s: self.duration_s,
                activity: 3.0,
                rts_fraction: 0.02,
            }),
            PinName::Venue5k => unreachable!("venue-5k runs the sharded path"),
            PinName::Churn => unreachable!("churn runs the mobile streaming path"),
            PinName::TraceMerge3x => unreachable!("trace-merge-3x runs the ingest path"),
        }
    }

    /// Runs the pin. The serial pins take the pipelined two-thread path;
    /// venue-5k partitions into RF-isolation shards and runs them on a
    /// `threads`-wide work queue; plenary-523 with `--max-shards > 1` takes
    /// the sharded path too, as its three coupled per-channel cells.
    /// Returns the merged run plus `(shards, components)` for sharded runs.
    fn run(
        &self,
        threads: usize,
        max_shards: usize,
    ) -> (StreamedRun, Option<(usize, usize)>, Option<MobilityStats>) {
        match self.name {
            PinName::Churn => {
                let scale = ChurnScale::venue_default(self.seed);
                debug_assert!(scale.users == self.users && scale.duration_s == self.duration_s);
                let scenario = mobile_venue(scale);
                let (run, mobility) = run_streaming_mobile(scenario, 1_000_000);
                (run, None, Some(mobility))
            }
            PinName::Venue5k => {
                let scale = CampusScale::venue_5k(self.seed);
                debug_assert!(scale.users == self.users && scale.duration_s == self.duration_s);
                let scenario = venue_campus(scale);
                let sharded = run_sharded(scenario, 1_000_000, threads, max_shards);
                (
                    sharded.run,
                    Some((sharded.shards, sharded.components)),
                    None,
                )
            }
            PinName::Plenary523 if max_shards > 1 => {
                let scenario = ietf_plenary_sharded(SessionScale {
                    seed: self.seed,
                    users: self.users,
                    duration_s: self.duration_s,
                    activity: 3.0,
                    rts_fraction: 0.02,
                });
                let sharded = run_sharded(scenario, 1_000_000, threads, max_shards);
                (
                    sharded.run,
                    Some((sharded.shards, sharded.components)),
                    None,
                )
            }
            _ => (run_streaming_pipelined(self.build(), 1_000_000), None, None),
        }
    }
}

fn main() {
    let mut pin_name = "ramp-320".to_string();
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    let mut entry_label = "current".to_string();
    let mut notes: Option<String> = None;
    let mut threads = 1usize;
    let mut max_shards: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pin" => pin_name = it.next().expect("--pin needs a name"),
            "--quick" => pin_name = "ramp-quick".to_string(),
            "--check" => check = Some(it.next().expect("--check needs a file")),
            "--out" => out = Some(it.next().expect("--out needs a file")),
            "--label" => entry_label = it.next().expect("--label needs a string"),
            "--notes" => notes = Some(it.next().expect("--notes needs a string")),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t >= 1)
                    .expect("--threads needs a positive integer")
            }
            "--max-shards" => {
                max_shards = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&m| m >= 1)
                        .expect("--max-shards needs a positive integer"),
                )
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_baseline [--pin NAME] [--label L] [--notes S] \
                     [--threads N] [--max-shards M] [--out FILE] [--check BASELINE]\n\
                     \n\
                     Pins: ramp-quick (48u/60s), ramp-320 (320u/30s, default),\n\
                     plenary-523 (523u plenary/30s), venue-5k (5000u campus/10s,\n\
                     sharded over RF-isolation domains on --threads workers),\n\
                     churn (160u mobile venue/60s, waypoint walkers roaming\n\
                     the nine-AP floor), trace-merge-3x (three skewed lossy\n\
                     30s sniffer captures through the streaming ingest\n\
                     pipeline: parallel decode + k-way merge + analysis).\n\
                     Runs the pinned scenario and appends one entry (tagged\n\
                     --label, with optional free-form --notes) to the pin's\n\
                     trajectory JSON (default\n\
                     BENCH_sim[_quick|_plenary|_venue|_churn].json). --quick =\n\
                     --pin ramp-quick. --max-shards caps the partition; for\n\
                     plenary-523 a value > 1 takes the sharded path, one\n\
                     shard per coupled per-channel cell (results\n\
                     byte-identical to the serial run). --check compares\n\
                     events/s against the last entry of a committed\n\
                     trajectory, skipping historical lockstep entries, and\n\
                     exits 1 on a >15% regression."
                );
                return;
            }
            other => {
                eprintln!("error: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let Some(pin) = Pin::by_name(&pin_name) else {
        eprintln!(
            "error: unknown pin {pin_name:?} (ramp-quick | ramp-320 | plenary-523 | \
             venue-5k | churn | trace-merge-3x)"
        );
        std::process::exit(2);
    };
    let out = out.unwrap_or_else(|| pin.default_out().to_string());
    // Read the check baseline *before* writing anything, so `--out` and
    // `--check` may name the same trajectory file.
    let baseline = check.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(1);
        })
    });

    if pin.name == PinName::TraceMerge3x {
        run_trace_pin(
            &pin,
            &out,
            check.as_deref(),
            baseline.as_deref(),
            &entry_label,
            notes.as_deref(),
        );
        return;
    }

    // Venue-5k defaults to "as many shards as the topology allows"; the
    // serial pins default to the unsharded path.
    let max_shards = max_shards.unwrap_or(match pin.name {
        PinName::Venue5k => usize::MAX,
        _ => 1,
    });

    let start = std::time::Instant::now();
    let (run, sharding, mobility) = pin.run(threads, max_shards);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let events_per_sec = run.events_processed as f64 / (wall_ms / 1e3).max(1e-9);
    let frames_per_sec = run.frames_on_air as f64 / (wall_ms / 1e3).max(1e-9);
    let seconds_analyzed: usize = run.per_sniffer_seconds.iter().map(|s| s.len()).sum();

    // Sharded entries record how the run was cut: events/s at `threads`
    // only means speedup when `host_cpus` (every entry) can supply that
    // many workers.
    let sharding_fields = sharding
        .map(|(shards, components)| {
            format!(
                ", \"threads\": {threads}, \"shards\": {shards}, \
                 \"components\": {components}"
            )
        })
        .unwrap_or_default();
    // Churn entries record the movement volume behind the numbers: events/s
    // at 0 moves would mean the walkers never walked.
    let mobility_fields = mobility
        .map(|m| {
            format!(
                ", \"walkers\": {}, \"moves\": {}, \"roams\": {}",
                m.walkers, m.moves, m.roams
            )
        })
        .unwrap_or_default();
    // Free-form context for the entry (what changed, measured side costs);
    // `--check` only reads named numeric fields, so notes never gate.
    let notes_field = notes
        .map(|n| format!(", \"notes\": \"{}\"", n.replace(['"', '\\'], "_")))
        .unwrap_or_default();
    let entry = format!(
        "    {{\"label\": \"{}\", \"pin\": \"{}\", \"seed\": {}, \"users\": {}, \
         \"duration_s\": {}, \"events\": {}, \"frames_on_air\": {}, \
         \"seconds_analyzed\": {}, \"queue_pushed\": {}, \"queue_popped\": {}, \
         \"queue_stale_dropped\": {}, \"queue_cascaded\": {}, \"wall_ms\": {:.1}, \
         \"events_per_sec\": {:.0}, \"frames_per_sec\": {:.0}, \"peak_rss_kb\": {}, \
         \"host_cpus\": {}{}{}{}}}",
        entry_label.replace(['"', '\\'], "_"),
        pin.label(),
        pin.seed,
        pin.users,
        pin.duration_s,
        run.events_processed,
        run.frames_on_air,
        seconds_analyzed,
        run.queue.pushed,
        run.queue.popped,
        run.queue.stale_dropped,
        run.queue.cascaded,
        wall_ms,
        events_per_sec,
        frames_per_sec,
        peak_rss_kb(),
        std::thread::available_parallelism().map_or(0, usize::from),
        sharding_fields,
        mobility_fields,
        notes_field,
    );
    if let Err(e) = append_entry(&out, pin.label(), &entry) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    let sharding_note = sharding
        .map(|(shards, components)| {
            format!(" [{shards} shards / {components} components @ {threads} threads]")
        })
        .unwrap_or_default();
    eprintln!(
        "bench_baseline[{}]: {} events in {:.1} ms -> {:.0} events/s, {:.0} frames/s \
         ({out}){sharding_note}",
        pin.label(),
        run.events_processed,
        wall_ms,
        events_per_sec,
        frames_per_sec
    );

    if let Some(baseline) = baseline {
        check_regression(
            &baseline,
            check.as_deref().unwrap_or(""),
            &[
                ("seed", pin.seed as f64),
                ("users", pin.users as f64),
                ("duration_s", pin.duration_s as f64),
                ("events", run.events_processed as f64),
            ],
            events_per_sec,
        );
    }
}

/// Gates this run's events/s against the last entry of a committed baseline
/// trajectory that did not run lockstep ([`last_entry`]): the fingerprint
/// fields must match exactly (a baseline from a different
/// pinned workload — or a semantics-changing build — would make the
/// throughput ratio meaningless), then a >15 % drop fails.
///
/// The 15 % gate (was 30 % while the trajectories were still moving):
/// interleaved same-host medians vary well under this band, so a breach
/// means a real regression, not scheduler noise.
fn check_regression(
    baseline: &str,
    baseline_path: &str,
    fingerprint: &[(&str, f64)],
    events_per_sec: f64,
) {
    let entry = last_entry(baseline).unwrap_or_else(|| {
        eprintln!("error: baseline {baseline_path} has no non-lockstep trajectory entries");
        std::process::exit(1);
    });
    for &(field, want) in fingerprint {
        let got = json_number(entry, field).unwrap_or_else(|| {
            eprintln!("error: baseline {baseline_path} missing field {field:?}");
            std::process::exit(1);
        });
        if got != want {
            eprintln!(
                "error: baseline fingerprint mismatch on {field:?}: \
                 baseline has {got}, this run has {want}"
            );
            std::process::exit(1);
        }
    }
    let base_eps = json_number(entry, "events_per_sec").unwrap_or_else(|| {
        eprintln!("error: baseline {baseline_path} missing events_per_sec");
        std::process::exit(1);
    });
    let floor = 0.85 * base_eps;
    if events_per_sec < floor {
        eprintln!(
            "FAIL: events/s regressed >15%: {events_per_sec:.0} < 0.85 x \
             baseline {base_eps:.0}"
        );
        std::process::exit(1);
    }
    eprintln!(
        "check ok: {:.0} events/s vs baseline {:.0} ({:+.0}%)",
        events_per_sec,
        base_eps,
        (events_per_sec / base_eps - 1.0) * 100.0
    );
}

/// The trace-ingestion pin: generates the pinned sniffer captures — three
/// skewed, 20 %-lossy views of one dense synthetic 30 s channel, written
/// record-by-record so generation never materializes a trace and the timed
/// phase dominates peak RSS — then times the streaming pipeline end to end:
/// parallel per-sniffer decode, bounded channels, k-way online merge with
/// dedup, per-second congestion analysis.
///
/// `events` in the trajectory entry is the total records decoded across all
/// sniffers (the fingerprint: generation is deterministic in the pin's
/// seed), `events_per_sec` is the gated throughput.
fn run_trace_pin(
    pin: &Pin,
    out: &str,
    check: Option<&str>,
    baseline: Option<&str>,
    entry_label: &str,
    notes: Option<&str>,
) {
    use ietf80211_congestion::ingest::analyze_capture_streams;
    use ietf80211_congestion::trace::CaptureWriter;
    use wifi_frames::fc::FrameKind;
    use wifi_frames::mac::MacAddr;
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::record::FrameRecord;

    let sniffers = pin.users as u64;
    // ~1500 data/ACK exchanges per second — a hot 802.11b channel.
    let exchanges = pin.duration_s * 1_500;
    let rates = [Rate::R1, Rate::R2, Rate::R5_5, Rate::R11];
    let payloads = [64u32, 400, 900, 1472];

    // Deterministic ~20 % per-sniffer loss, independent across sniffers.
    let keep = |record: u64, sniffer: u64| -> bool {
        let h = (record ^ (sniffer << 32) ^ pin.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        !(h >> 33).is_multiple_of(5)
    };

    let dir = std::env::temp_dir().join("congestion_bench_trace_pin");
    std::fs::create_dir_all(&dir).expect("cannot create trace-pin scratch dir");
    let paths: Vec<std::path::PathBuf> = (0..sniffers)
        .map(|s| dir.join(format!("trace_pin_sniffer{s}.pcap")))
        .collect();
    let mut writers: Vec<CaptureWriter> = paths
        .iter()
        .map(|p| CaptureWriter::create(p, 250).expect("cannot create trace-pin capture"))
        .collect();
    let mut write_views = |record_idx: u64, base: &FrameRecord| {
        for (s, w) in writers.iter_mut().enumerate() {
            if keep(record_idx, s as u64) {
                let mut r = *base;
                r.timestamp_us += 25 * s as u64; // per-sniffer clock skew
                r.signal_dbm -= s as i8; // different vantage point
                w.write_record(&r).expect("trace-pin write failed");
            }
        }
    };
    for i in 0..exchanges {
        let t = i * 667;
        let src = MacAddr::from_id(1 + (i % 40) as u32);
        let payload = payloads[(i as usize / 4) % 4];
        let data = FrameRecord {
            timestamp_us: t,
            kind: FrameKind::Data,
            rate: rates[i as usize % 4],
            channel: Channel::new(1).unwrap(),
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
        write_views(2 * i, &data);
        let ack = FrameRecord {
            timestamp_us: t + 340,
            kind: FrameKind::Ack,
            rate: Rate::R1,
            channel: Channel::new(1).unwrap(),
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
        write_views(2 * i + 1, &ack);
    }
    let written: u64 = writers
        .into_iter()
        .map(|w| w.finish().expect("trace-pin flush failed"))
        .sum();

    let start = std::time::Instant::now();
    let analysis = analyze_capture_streams(&paths).expect("trace-pin ingestion failed");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }

    // Clean captures: every written record decodes, so `events` doubles as
    // the determinism fingerprint.
    let events: u64 = analysis
        .sources
        .iter()
        .map(|s| s.report.records_total())
        .sum();
    assert_eq!(
        events, written,
        "trace pin must decode every written record"
    );
    let events_per_sec = events as f64 / (wall_ms / 1e3).max(1e-9);

    let notes_field = notes
        .map(|n| format!(", \"notes\": \"{}\"", n.replace(['"', '\\'], "_")))
        .unwrap_or_default();
    let entry = format!(
        "    {{\"label\": \"{}\", \"pin\": \"{}\", \"seed\": {}, \"users\": {}, \
         \"duration_s\": {}, \"events\": {}, \"records_merged\": {}, \
         \"seconds_analyzed\": {}, \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}, \
         \"peak_rss_kb\": {}, \"host_cpus\": {}{}}}",
        entry_label.replace(['"', '\\'], "_"),
        pin.label(),
        pin.seed,
        pin.users,
        pin.duration_s,
        events,
        analysis.merged_records,
        analysis.per_second.len(),
        wall_ms,
        events_per_sec,
        peak_rss_kb(),
        std::thread::available_parallelism().map_or(0, usize::from),
        notes_field,
    );
    if let Err(e) = append_entry(out, pin.label(), &entry) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "bench_baseline[{}]: {} records ({} merged) in {:.1} ms -> {:.0} records/s ({out})",
        pin.label(),
        events,
        analysis.merged_records,
        wall_ms,
        events_per_sec
    );
    if let Some(baseline) = baseline {
        check_regression(
            baseline,
            check.unwrap_or(""),
            &[
                ("seed", pin.seed as f64),
                ("users", pin.users as f64),
                ("duration_s", pin.duration_s as f64),
                ("events", events as f64),
            ],
            events_per_sec,
        );
    }
}

/// Appends `entry` to the trajectory array in `path`, creating the document
/// if the file does not exist (or predates the trajectory format). Entries
/// are one line each, so the line-oriented field scanner below stays valid.
fn append_entry(path: &str, pin_label: &str, entry: &str) -> std::io::Result<()> {
    let doc = match std::fs::read_to_string(path) {
        Ok(existing) if existing.contains("\"trajectory\"") => {
            let end = existing.rfind("\n  ]").ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{path}: trajectory array terminator not found"),
                )
            })?;
            format!("{},\n{}{}", &existing[..end], entry, &existing[end..])
        }
        _ => format!("{{\n  \"pin\": \"{pin_label}\",\n  \"trajectory\": [\n{entry}\n  ]\n}}\n"),
    };
    std::fs::write(path, doc)
}

/// The last trajectory entry line (entries are one `{...}` per line),
/// skipping historical `"lockstep": true` entries: lockstep sharding is
/// gone, and those rows ran far slower than the serial path.
fn last_entry(json: &str) -> Option<&str> {
    json.lines().rev().find(|l| {
        l.trim_start().starts_with('{')
            && l.contains("\"events\"")
            && !l.contains("\"lockstep\": true")
    })
}

/// Pulls a numeric field out of a flat JSON fragment (no serde in the
/// offline workspace; the files are machine-written `"key": value` pairs).
fn json_number(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let value: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`); 0 where
/// procfs is unavailable, so the field is informational, never a gate.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run gates against the last entry that did not run lockstep, even
    /// when historical lockstep entries follow it; entries without the
    /// field, component-sharded entries and `"lockstep": false` all count.
    #[test]
    fn check_picks_the_last_entry_of_the_same_mode() {
        let doc = |rows: &[&str]| {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {{{r}}}")).collect();
            format!(
                "{{\n  \"pin\": \"plenary-523\",\n  \"trajectory\": [\n{}\n  ]\n}}\n",
                rows.join(",\n")
            )
        };
        let eps = |rows: &[&str]| {
            last_entry(&doc(rows)).and_then(|entry| json_number(entry, "events_per_sec"))
        };
        let serial = "\"events\": 1, \"events_per_sec\": 10";
        let unflagged = "\"events\": 1, \"events_per_sec\": 20, \"lockstep\": false";
        let lockstep = "\"events\": 1, \"events_per_sec\": 30, \"lockstep\": true";
        let components = "\"events\": 1, \"events_per_sec\": 40, \"shards\": 3, \"components\": 3";
        assert_eq!(eps(&[serial, unflagged, lockstep, lockstep]), Some(20.0));
        assert_eq!(eps(&[serial, lockstep]), Some(10.0));
        assert_eq!(eps(&[serial, lockstep, components]), Some(40.0));
        assert_eq!(eps(&[lockstep, lockstep]), None);
    }
}
