//! `wifi-congestion serve` — a resident multi-sniffer ingestion service.
//!
//! Tails N live (growing, possibly rotating) pcap/pcapng capture files
//! through the capture-ingest pipeline of [`crate::ingest`] — the same
//! decode threads, merge driver and dedup window as batch `analyze` — and
//! classifies channel congestion per second as the data arrives, all in
//! O(merge window) memory. What this module adds is the live half:
//! `TailSource` to follow each file, and an observer of the merge driver
//! that publishes status JSON over a unix socket and a periodic stderr
//! heartbeat.
//!
//! ```text
//!   TailSource #0 ─ decode ─ batch channel ╲
//!   TailSource #1 ─ decode ─ batch channel ─→ merge driver ─→ SecondAccumulator
//!   TailSource #k ─ decode ─ batch channel ╱        │ observe
//!                                                   ├──▶ status JSON, seconds (Mutex)
//!   unix-socket listener ◀──────────reads───────────┘
//! ```
//!
//! A tail that has caught up with its file reports `WouldBlock`; its
//! decoder then ships the partial batch and backs off one poll interval, so
//! records reach the merge with at most one poll interval of added latency.
//!
//! ## Degradation, not death
//!
//! A source that stalls, rotates, or turns to garbage degrades only itself:
//!
//! * byte-level damage is resynchronized and skip-counted exactly as in
//!   batch ingestion (the decode decisions on a growing file are *monotone*:
//!   the service's final output is byte-identical to a batch run over the
//!   final bytes);
//! * a stalled source holds the merge back by at most the stall timeout,
//!   after which the merge advances without it (it shows as `lagging` in
//!   the status; records it delivers after the merge has moved past them
//!   are dropped and counted, in the status and in the final report). A
//!   source that never stalls loses nothing, whatever its clock offset;
//! * a hard failure (unreadable file, wrong link type, decoder panic) marks
//!   that source `failed` with its error in the status, and the remaining
//!   sources keep the service running.

use crate::ingest::{
    lock, run_pipeline, Clock, Live, PipelineView, Source, SourceProgress, SourceState,
    StreamAnalysis, SystemClock,
};
use crate::trace::CaptureError;
use congestion::persec::SecondStats;
use congestion::{CongestionClassifier, UtilizationBins};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the status JSON is refreshed while records flow (an idle
/// merge refreshes it every poll interval).
const STATUS_INTERVAL: Duration = Duration::from_millis(200);

/// Configuration for [`run_serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capture files to tail, one decode thread each.
    pub paths: Vec<PathBuf>,
    /// Unix socket path for the status endpoint; `None` disables it.
    pub socket: Option<PathBuf>,
    /// Poll interval for source growth and merge idling, milliseconds.
    pub poll_ms: u64,
    /// Wall-clock stall timeout: a source that delivers nothing for this
    /// long while the merge waits on it is deferred (the merge advances
    /// without it; it rejoins on its next record, older-than-watermark
    /// records dropped and counted). `None` never defers — the merge then
    /// waits on a stalled source until it ends.
    pub stall_timeout_ms: Option<u64>,
    /// Seconds between stderr heartbeat lines; 0 disables the heartbeat.
    pub heartbeat_s: u64,
    /// Stop (as if `shutdown` had been received) after this many wall-clock
    /// seconds. `None` runs until told to stop.
    pub max_duration_s: Option<u64>,
}

impl ServeConfig {
    /// Defaults: 50 ms poll, 1 s stall timeout, 10 s heartbeat, no socket,
    /// no deadline.
    pub fn new(paths: Vec<PathBuf>) -> ServeConfig {
        ServeConfig {
            paths,
            socket: None,
            poll_ms: 50,
            stall_timeout_ms: Some(1_000),
            heartbeat_s: 10,
            max_duration_s: None,
        }
    }
}

/// Everything the service threads share.
struct Shared {
    /// Graceful-stop request: tails drain to their current EOF and end.
    stop: AtomicBool,
    /// Set once the pipeline has drained; tells the socket listener to exit.
    done: AtomicBool,
    /// File rotations each tail has followed.
    rotations: Vec<AtomicU64>,
    /// Last rendered status JSON (the socket replies with this verbatim).
    status_json: Mutex<String>,
    /// Seconds whose statistics can no longer change (every folded second
    /// except the newest), appended as the merge watermark passes them.
    final_seconds: Mutex<Vec<SecondStats>>,
}

impl Shared {
    fn new(sources: usize) -> Shared {
        Shared {
            stop: AtomicBool::new(false),
            done: AtomicBool::new(false),
            rotations: (0..sources).map(|_| AtomicU64::new(0)).collect(),
            status_json: Mutex::new("{}".to_string()),
            final_seconds: Mutex::new(Vec::new()),
        }
    }
}

/// A poll-based `Read` over a live capture file.
///
/// Reads return `WouldBlock` (never `Ok(0)`) while the file has no new
/// bytes, so the lossy decoders treat the source as pending rather than
/// ended. At EOF the path is re-checked: a changed inode or a size below
/// the consumed offset means the file was rotated, and the tail reopens
/// from the start of the replacement. Only after a stop request does EOF
/// become a real end-of-stream.
struct TailSource {
    shared: Arc<Shared>,
    idx: usize,
    path: PathBuf,
    file: Option<std::fs::File>,
    ino: u64,
    /// Bytes consumed from the currently open file.
    offset: u64,
}

impl TailSource {
    fn new(shared: Arc<Shared>, idx: usize, path: PathBuf) -> TailSource {
        TailSource {
            shared,
            idx,
            path,
            file: None,
            ino: 0,
            offset: 0,
        }
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    fn open_current(&mut self) -> std::io::Result<()> {
        let file = std::fs::File::open(&self.path)?;
        self.ino = file.metadata()?.ino();
        self.offset = 0;
        self.file = Some(file);
        Ok(())
    }

    /// At EOF of the open file: has the path been replaced or truncated?
    fn rotated(&self) -> bool {
        match std::fs::metadata(&self.path) {
            Ok(meta) => meta.ino() != self.ino || meta.len() < self.offset,
            // Mid-rotation the path may briefly not exist; treat as not yet
            // rotated and let the next poll decide.
            Err(_) => false,
        }
    }

    /// What a caught-up tail reports: pending, or the end once stopping.
    fn caught_up(&self) -> std::io::Result<usize> {
        if self.stopping() {
            Ok(0)
        } else {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }
}

impl Read for TailSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.file.is_none() && self.open_current().is_err() {
            // Not there yet.
            return self.caught_up();
        }
        let n = self.file.as_mut().expect("opened above").read(buf)?;
        if n > 0 {
            self.offset += n as u64;
            return Ok(n);
        }
        // EOF of the open file. The old descriptor stays readable through a
        // rotation, so everything written before the swap has been consumed
        // by the time we get here — switching now loses nothing.
        if self.rotated() && self.open_current().is_ok() {
            self.shared.rotations[self.idx].fetch_add(1, Ordering::Relaxed);
            let n = self.file.as_mut().expect("reopened above").read(buf)?;
            self.offset += n as u64;
            if n > 0 {
                return Ok(n);
            }
        }
        self.caught_up()
    }
}

/// Renders the small status document the socket serves for `status`.
fn render_status(
    paths: &[PathBuf],
    rotations: &[AtomicU64],
    view: &PipelineView<'_>,
    uptime: Duration,
) -> String {
    use std::fmt::Write;
    let merge = view.merge;
    // Every folded second except the newest is final.
    let finalized = view.seconds.len().saturating_sub(1);
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"uptime_s\":{:.1},\"merged_records\":{},\"watermark_us\":{},\"analyzed_seconds\":{finalized}",
        uptime.as_secs_f64(),
        view.merged,
        merge.watermark(),
    );
    match finalized.checked_sub(1).map(|i| &view.seconds[i]) {
        Some(s) => {
            let bins = UtilizationBins::build(&view.seconds[..finalized]);
            let class =
                CongestionClassifier::from_measurements(&bins).classify(s.utilization_pct());
            let _ = write!(
                out,
                ",\"last_second\":{{\"second\":{},\"utilization_pct\":{:.2},\"class\":\"{:?}\"}}",
                s.second,
                s.utilization_pct(),
                class
            );
        }
        None => out.push_str(",\"last_second\":null"),
    }
    out.push_str(",\"sources\":[");
    for (idx, progress) in view.progress.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let SourceProgress {
            state,
            report,
            error,
        } = lock(progress).clone();
        let lag = merge.lag_us(idx);
        // A live source the stall policy deferred surfaces as `lagging`.
        let lagging = state == SourceState::Live && merge.is_deferred(idx);
        let state_name = if lagging { "lagging" } else { state.name() };
        let _ = write!(
            out,
            "{{\"path\":\"{}\",\"state\":\"{state_name}\",\"lag_us\":{lag},\"queued_batches\":{},\
             \"received\":{},\"contributed\":{},\"clamped\":{},\"late_dropped\":{},\"rotations\":{},\
             \"report\":{},\"error\":{}}}",
            json_escape(&paths[idx].display().to_string()),
            view.receivers[idx].queued_batches(),
            merge.received()[idx],
            merge.contributed()[idx],
            merge.clamped()[idx],
            merge.late_dropped()[idx],
            rotations[idx].load(Ordering::Relaxed),
            report.to_json(),
            match error {
                Some(e) => format!("\"{}\"", json_escape(&e)),
                None => "null".to_string(),
            },
        );
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the `seconds` document: every finalized second with its
/// utilization and congestion class (thresholds fitted to the data seen so
/// far, as in batch analysis).
fn render_seconds(seconds: &[SecondStats]) -> String {
    use std::fmt::Write;
    if seconds.is_empty() {
        return "[]".to_string();
    }
    let bins = UtilizationBins::build(seconds);
    let classifier = CongestionClassifier::from_measurements(&bins);
    let mut out = String::with_capacity(seconds.len() * 48 + 2);
    out.push('[');
    for (i, s) in seconds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"second\":{},\"utilization_pct\":{:.2},\"class\":\"{:?}\"}}",
            s.second,
            s.utilization_pct(),
            classifier.classify(s.utilization_pct()),
        );
    }
    out.push(']');
    out
}

/// Serves `status` / `seconds` / `shutdown` requests (one line per
/// connection) until the service reports done.
fn socket_loop(listener: UnixListener, shared: &Shared) {
    let _ = listener.set_nonblocking(true);
    while !shared.done.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => handle_client(stream, shared),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn handle_client(mut stream: UnixStream, shared: &Shared) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // One request line of at most 256 bytes.
    let mut req = Vec::new();
    let _ = BufReader::new((&stream).take(256)).read_until(b'\n', &mut req);
    let line = String::from_utf8_lossy(&req);
    let reply = match line.trim() {
        "status" | "" => lock(&shared.status_json).clone(),
        "seconds" => render_seconds(&lock(&shared.final_seconds)),
        "shutdown" => {
            shared.stop.store(true, Ordering::Release);
            "{\"stopping\":true}".to_string()
        }
        other => format!("{{\"error\":\"unknown command {}\"}}", json_escape(other)),
    };
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Runs the resident ingestion service until a stop request (socket
/// `shutdown` or [`ServeConfig::max_duration_s`]) drains it, then returns
/// the same [`StreamAnalysis`] a batch run over the final bytes would
/// produce.
pub fn run_serve(cfg: &ServeConfig) -> Result<StreamAnalysis, CaptureError> {
    let shared = Arc::new(Shared::new(cfg.paths.len()));
    let sources = cfg
        .paths
        .iter()
        .enumerate()
        .map(|(idx, path)| {
            let tail = TailSource::new(Arc::clone(&shared), idx, path.clone());
            Source::Reader(Box::new(tail))
        })
        .collect();
    serve(cfg, &shared, sources, &SystemClock::default())
}

/// [`run_serve`] over caller-supplied sources and clock: the service's
/// policy, status socket and heartbeat, with `cfg.paths` only labelling the
/// sources (one label per source). A stop request ends tailed files, not
/// these sources: the service returns once every source has ended by
/// itself.
pub fn serve_sources(
    cfg: &ServeConfig,
    sources: Vec<Source>,
    clock: &dyn Clock,
) -> Result<StreamAnalysis, CaptureError> {
    assert_eq!(
        cfg.paths.len(),
        sources.len(),
        "cfg.paths must label the sources one-to-one"
    );
    serve(cfg, &Shared::new(sources.len()), sources, clock)
}

fn serve(
    cfg: &ServeConfig,
    shared: &Shared,
    sources: Vec<Source>,
    clock: &dyn Clock,
) -> Result<StreamAnalysis, CaptureError> {
    let listener = match &cfg.socket {
        Some(path) => {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            Some(UnixListener::bind(path).map_err(wifi_pcap::PcapError::Io)?)
        }
        None => None,
    };
    let started = clock.now();
    let deadline = cfg.max_duration_s.map(|s| started + Duration::from_secs(s));
    let heartbeat = Duration::from_secs(cfg.heartbeat_s);
    let mut next_status = started;
    let mut next_heartbeat = started + heartbeat;
    let mut published_seconds = 0usize;
    let mut observe = |view: &PipelineView<'_>| {
        let uptime = view.now.saturating_sub(started);
        if deadline.is_some_and(|d| view.now >= d) {
            shared.stop.store(true, Ordering::Release);
        }
        if view.idle || view.now >= next_status {
            next_status = view.now + STATUS_INTERVAL;
            // Publish newly finalized seconds (all folded seconds except
            // the newest, which later records can still extend).
            let finalized = view.seconds.len().saturating_sub(1);
            if finalized > published_seconds {
                lock(&shared.final_seconds)
                    .extend_from_slice(&view.seconds[published_seconds..finalized]);
                published_seconds = finalized;
            }
            *lock(&shared.status_json) = render_status(&cfg.paths, &shared.rotations, view, uptime);
        }
        if cfg.heartbeat_s > 0 && view.now >= next_heartbeat {
            next_heartbeat = view.now + heartbeat;
            let states: Vec<&str> = view.progress.iter().map(|p| lock(p).state.name()).collect();
            eprintln!(
                "serve: up {:.0}s, merged {} records, watermark {}µs, sources [{}]",
                uptime.as_secs_f64(),
                view.merged,
                view.merge.watermark(),
                states.join(", ")
            );
        }
    };
    let live = Live {
        stall: cfg.stall_timeout_ms.map(Duration::from_millis),
        poll: Duration::from_millis(cfg.poll_ms.max(1)),
        clock,
        observe: &mut observe,
    };
    let analysis = std::thread::scope(|scope| {
        if let Some(listener) = listener {
            scope.spawn(|| socket_loop(listener, shared));
        }
        let analysis = run_pipeline(sources, Some(live));
        *lock(&shared.final_seconds) = analysis.per_second.clone();
        shared.done.store(true, Ordering::Release);
        analysis
    });
    if let Some(path) = &cfg.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::write_capture;
    use congestion::merge::OnlineMerge;
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::record::FrameRecord;
    use wifi_frames::{FrameKind, MacAddr};

    fn rec(ts: u64, src: u32, seq: u16) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind: FrameKind::Data,
            rate: Rate::R11,
            channel: Channel::new(6).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(MacAddr::from_id(src)),
            bssid: Some(MacAddr::from_id(99)),
            retry: false,
            seq: Some(seq),
            mac_bytes: 1028,
            payload_bytes: 1000,
            signal_dbm: -62,
            duration_us: 314,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("congestion_serve_unit_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tail_source_blocks_then_reads_then_detects_rotation() {
        let dir = temp_dir("tail");
        let path = dir.join("live.pcap");
        let shared = Arc::new(Shared::new(1));
        let mut tail = TailSource::new(Arc::clone(&shared), 0, path.clone());
        let mut buf = [0u8; 64];

        // No file yet: pending, not EOF.
        let err = tail.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);

        std::fs::write(&path, b"first").unwrap();
        assert_eq!(tail.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"first");
        // Caught up: pending again.
        assert_eq!(
            tail.read(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock
        );

        // Rotate: replace the file (new inode) with fresh content.
        std::fs::remove_file(&path).unwrap();
        std::fs::write(&path, b"second!").unwrap();
        assert_eq!(tail.read(&mut buf).unwrap(), 7);
        assert_eq!(&buf[..7], b"second!");
        assert_eq!(shared.rotations[0].load(Ordering::Relaxed), 1);

        // Stop turns EOF real.
        shared.stop.store(true, Ordering::Release);
        assert_eq!(tail.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn serve_on_static_files_matches_batch_analysis() {
        let dir = temp_dir("static");
        let full: Vec<FrameRecord> = (0..1500u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let mut paths = Vec::new();
        for s in 0..2 {
            let records: Vec<FrameRecord> = full
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 != s)
                .map(|(_, r)| *r)
                .collect();
            let path = dir.join(format!("sniffer_{s}.pcap"));
            write_capture(&path, &records).unwrap();
            paths.push(path);
        }
        let mut cfg = ServeConfig::new(paths.clone());
        cfg.poll_ms = 5;
        cfg.heartbeat_s = 0;
        cfg.stall_timeout_ms = None;
        cfg.max_duration_s = Some(1);
        let served = run_serve(&cfg).unwrap();
        assert!(served.sources.iter().all(|s| s.is_clean()));

        let batch = crate::ingest::analyze_capture_streams(&paths).unwrap();
        assert_eq!(served.merged_records, batch.merged_records);
        assert_eq!(served.per_second, batch.per_second);
        assert_eq!(served.contributed, batch.contributed);
    }

    #[test]
    fn status_json_is_wellformed_enough() {
        // Smoke the renderers directly: no commas-in-wrong-places panics,
        // balanced braces, expected keys.
        let (_tx, rx) = wifi_sim::spsc::batch_channel::<FrameRecord>(1, 1);
        let view = PipelineView {
            merge: &OnlineMerge::new(1),
            seconds: &[],
            merged: 0,
            receivers: &[rx],
            progress: &[Mutex::default()],
            now: Duration::from_secs(3),
            idle: true,
        };
        let status = render_status(
            &[PathBuf::from("/tmp/a \"quoted\".pcap")],
            &Shared::new(1).rotations,
            &view,
            Duration::from_secs(3),
        );
        assert!(status.contains("\"sources\":["));
        assert!(status.contains("\\\"quoted\\\""));
        assert_eq!(
            status.matches('{').count(),
            status.matches('}').count(),
            "{status}"
        );
        assert_eq!(render_seconds(&[]), "[]");
    }
}
