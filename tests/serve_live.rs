//! Tests of the resident service, deterministic by construction.
//!
//! In-process runs drive `serve_sources` over scripted in-memory sources —
//! growing in chunks, stalling, panicking — under a clock the test moves by
//! hand. One CLI run covers the unix-socket protocol and live file
//! rotation. Every wait is for an exact condition, never for a fixed time.

use ietf80211_congestion::congestion::merge_traces;
use ietf80211_congestion::ingest::{analyze_capture_streams, Clock, Source, StreamAnalysis};
use ietf80211_congestion::serve::{serve_sources, ServeConfig};
use ietf80211_congestion::trace::{write_capture, CaptureError};
use ietf80211_congestion::wifi_frames::phy::{Channel, Rate};
use ietf80211_congestion::wifi_frames::{FrameKind, FrameRecord, MacAddr};
use ietf80211_congestion::wifi_pcap::stream::WINDOW_TARGET;
use std::collections::VecDeque;
use std::io::{Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wifi-congestion"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("wifi-congestion-serve")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

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

/// Three per-sniffer views of one trace: sniffer `s` misses every third
/// record and observes a small fixed clock skew. Every sniffer captures the
/// last record, so once all bytes are in, a live merge without a stop has
/// emitted every distinct record.
fn sniffer_views(total: u64) -> Vec<Vec<FrameRecord>> {
    let full: Vec<FrameRecord> = (0..total)
        .map(|i| rec(i * 900, 1, (i % 4096) as u16))
        .collect();
    (0..3u64)
        .map(|s| {
            full.iter()
                .enumerate()
                .filter(|(i, _)| *i as u64 % 3 != s || *i as u64 == total - 1)
                .map(|(_, r)| {
                    let mut r = *r;
                    r.timestamp_us += 20 * s;
                    r
                })
                .collect()
        })
        .collect()
}

/// Serializes records to classic-pcap bytes (via a temp file round-trip).
fn capture_bytes(dir: &Path, tag: &str, records: &[FrameRecord]) -> Vec<u8> {
    let path = dir.join(format!("scratch_{tag}.pcap"));
    write_capture(&path, records).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Writes each byte image to `dir/<tag><i>.pcap` and returns the paths.
fn write_files(dir: &Path, tag: &str, images: &[&[u8]]) -> Vec<PathBuf> {
    images
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let path = dir.join(format!("{tag}{i}.pcap"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect()
}

/// A clock that moves only when the test sets it.
#[derive(Default)]
struct ManualClock(AtomicU64);

impl ManualClock {
    fn set(&self, t: Duration) {
        self.0.store(t.as_nanos() as u64, Ordering::Release);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::Acquire))
    }
}

/// A growing capture: serves its chunks in order and reports `WouldBlock`
/// once at every chunk boundary, as a tailed file that has not grown yet.
/// Ends after the last chunk.
struct Scripted {
    chunks: VecDeque<Vec<u8>>,
    pos: usize,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.chunks.front() else {
            return Ok(0);
        };
        if self.pos == chunk.len() {
            self.chunks.pop_front();
            self.pos = 0;
            return if self.chunks.is_empty() {
                Ok(0)
            } else {
                Err(std::io::ErrorKind::WouldBlock.into())
            };
        }
        let n = buf.len().min(chunk.len() - self.pos);
        buf[..n].copy_from_slice(&chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A capture that delivers its bytes, then stalls (`WouldBlock`) until
/// released, then ends.
struct Stalling {
    bytes: Cursor<Vec<u8>>,
    release: Arc<AtomicBool>,
}

impl Read for Stalling {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        if n > 0 || self.release.load(Ordering::Acquire) {
            Ok(n)
        } else {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }
}

/// Ends a `Stalling` source when dropped, so a failed assertion ends the
/// service instead of leaving its scope waiting forever.
struct Release(Arc<AtomicBool>);

impl Drop for Release {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A decoder that crashes on its first read.
struct Panicking;

impl Read for Panicking {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        panic!("decoder crash on the first read");
    }
}

/// Service settings for in-process runs: no horizon, no stall timeout, no
/// heartbeat, a 1 ms poll; `n` sources labelled `src<i>`.
fn test_config(n: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new((0..n).map(|i| PathBuf::from(format!("src{i}"))).collect());
    cfg.poll_ms = 1;
    cfg.skew_horizon_us = None;
    cfg.stall_timeout_ms = None;
    cfg.heartbeat_s = 0;
    cfg
}

fn assert_same_analysis(served: &StreamAnalysis, batch: &StreamAnalysis, case: &str) {
    assert_eq!(served.per_second, batch.per_second, "{case}");
    assert_eq!(served.merged_records, batch.merged_records, "{case}");
    assert_eq!(served.contributed, batch.contributed, "{case}");
    let reports = |a: &StreamAnalysis| a.sources.iter().map(|s| s.report).collect::<Vec<_>>();
    assert_eq!(reports(served), reports(batch), "{case}");
}

/// splitmix64: the case generator of the growth property.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

#[test]
fn serve_matches_batch_under_growth_chaos_and_rotation() {
    // Property: however the bytes arrive, the service's final analysis is
    // the batch analysis of the final bytes.
    let dir = temp_dir("growth");
    for case in 0..24u64 {
        let mut rng = case;
        let views = sniffer_views(300 + below(&mut rng, 1200));
        let mut images: Vec<Vec<u8>> = views[..2]
            .iter()
            .enumerate()
            .map(|(i, v)| capture_bytes(&dir, &i.to_string(), v))
            .collect();
        // Source 1 carries a 0xFF garbage splice after its global header.
        let at = 24 + below(&mut rng, images[1].len() as u64 - 24) as usize;
        let garbage = vec![0xFF; 1 + below(&mut rng, 400) as usize];
        images[1].splice(at..at, garbage);
        // Source 2 rotates: a tail presents the old file's bytes, then the
        // new file's, with the new file not yet written at the swap.
        let split = 1 + below(&mut rng, views[2].len() as u64 - 1) as usize;
        let part_a = capture_bytes(&dir, "a", &views[2][..split]);
        let rotation = part_a.len();
        images.push([part_a, capture_bytes(&dir, "b", &views[2][split..])].concat());

        let sources = images
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                let mut cuts: Vec<usize> = (0..below(&mut rng, 12))
                    .map(|_| 1 + below(&mut rng, bytes.len() as u64 - 1) as usize)
                    .collect();
                cuts.extend([0, bytes.len()]);
                if i == 2 {
                    cuts.push(rotation);
                }
                cuts.sort_unstable();
                cuts.dedup();
                let chunks = cuts.windows(2).map(|w| bytes[w[0]..w[1]].to_vec());
                Source::Reader(Box::new(Scripted {
                    chunks: chunks.collect(),
                    pos: 0,
                }))
            })
            .collect();
        let served = serve_sources(&test_config(3), sources, &ManualClock::default()).unwrap();

        let refs: Vec<&[u8]> = images.iter().map(|b| b.as_slice()).collect();
        let batch = analyze_capture_streams(&write_files(&dir, "final", &refs)).unwrap();
        assert!(
            !batch.sources[1].report.is_clean(),
            "case {case}: no damage"
        );
        assert_same_analysis(&served, &batch, &format!("case {case}"));
    }
}

/// One request/response round-trip against the serve status socket.
fn query(sock: &Path, cmd: &str) -> Option<String> {
    let mut s = UnixStream::connect(sock).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(cmd.as_bytes()).ok()?;
    s.write_all(b"\n").ok()?;
    let mut reply = String::new();
    s.read_to_string(&mut reply).ok()?;
    Some(reply)
}

fn field_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn sum_of(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let mut total = 0;
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        total += rest[..end].parse::<u64>().unwrap_or(0);
    }
    total
}

/// Source `idx`'s object in a status document.
fn source_json(status: &str, idx: usize) -> &str {
    status.split("{\"path\":").nth(idx + 1).unwrap_or("")
}

/// Queries `status` until `done` holds for a reply, returning that reply.
/// The deadline only bounds a failing run.
fn status_until(sock: &Path, what: &str, done: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = String::new();
    while Instant::now() < deadline {
        if let Some(status) = query(sock, "status") {
            if done(&status) {
                return status;
            }
            last = status;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}; last status: {last}");
}

#[test]
fn serve_skips_past_a_stalled_source_and_marks_it_lagging() {
    let dir = temp_dir("stalled");
    let views = sniffer_views(3000);
    // Source 2 delivers only its first ~10% of records, then stalls.
    let prefix = &views[2][..views[2].len() / 10];
    let images = [
        capture_bytes(&dir, "s0", &views[0]),
        capture_bytes(&dir, "s1", &views[1]),
        capture_bytes(&dir, "s2", prefix),
    ];
    let merged = merge_traces(&[&views[0], &views[1], prefix]);
    // Without a horizon the merge wedges right after source 2's last record.
    let stalled_at = prefix.last().unwrap().timestamp_us;
    let wedge = merged
        .iter()
        .filter(|r| r.timestamp_us <= stalled_at)
        .count() as u64;
    let total = merged.len() as u64;

    let release = Arc::new(AtomicBool::new(false));
    let sources = vec![
        Source::Reader(Box::new(Cursor::new(images[0].clone()))),
        Source::Reader(Box::new(Cursor::new(images[1].clone()))),
        Source::Reader(Box::new(Stalling {
            bytes: Cursor::new(images[2].clone()),
            release: Arc::clone(&release),
        })),
    ];
    let sock = dir.join("serve.sock");
    let mut cfg = test_config(3);
    cfg.stall_timeout_ms = Some(1_000);
    cfg.socket = Some(sock.clone());
    let clock = ManualClock::default();

    let served = std::thread::scope(|scope| {
        let service = scope.spawn(|| serve_sources(&cfg, sources, &clock).unwrap());
        let release = Release(release);
        let merged_is = |n: u64| move |s: &str| field_u64(s, "merged_records") == Some(n);

        // The clock stands still: the merge waits on the stalled source.
        let status = status_until(&sock, "the wedge", merged_is(wedge));
        assert!(!status.contains("lagging"), "{status}");
        // Just short of the stall timeout: still waiting.
        clock.set(Duration::from_millis(900));
        let status = status_until(&sock, "the clock at 0.9 s", |s| {
            s.contains("\"uptime_s\":0.9,")
        });
        assert_eq!(
            field_u64(&status, "merged_records"),
            Some(wedge),
            "{status}"
        );
        assert!(!status.contains("lagging"), "{status}");
        // Past it: the source is deferred and the merge runs to the end of
        // the others.
        clock.set(Duration::from_millis(1_000));
        let status = status_until(&sock, "the deferral", merged_is(total));
        assert!(
            source_json(&status, 2).contains("\"state\":\"lagging\""),
            "stalled source should be marked lagging: {status}"
        );
        assert!(total > wedge);

        drop(release);
        service.join().unwrap()
    });
    let refs: Vec<&[u8]> = images.iter().map(|b| b.as_slice()).collect();
    let batch = analyze_capture_streams(&write_files(&dir, "final", &refs)).unwrap();
    assert_same_analysis(&served, &batch, "stalled");
}

#[test]
fn serve_panicking_decoder_degrades_only_that_source() {
    let dir = temp_dir("panic");
    let views = sniffer_views(3000);
    let images = [
        capture_bytes(&dir, "a", &views[0]),
        capture_bytes(&dir, "c", &views[2]),
    ];
    let paths = write_files(&dir, "healthy", &[&images[0], &images[1]]);
    let sources = vec![
        Source::File(paths[0].clone()),
        Source::Reader(Box::new(Panicking)),
        Source::File(paths[1].clone()),
    ];
    let served = serve_sources(&test_config(3), sources, &ManualClock::default()).unwrap();
    assert!(
        matches!(served.sources[1].error, Some(CaptureError::Panicked(_))),
        "panic surfaced per-source: {:?}",
        served.sources[1].error
    );
    assert!(served.sources[0].is_clean() && served.sources[2].is_clean());
    assert_eq!(served.contributed[1], 0);

    // The two healthy sources analyze exactly as a batch run over them.
    let batch = analyze_capture_streams(&paths).unwrap();
    assert_eq!(served.per_second, batch.per_second);
    assert_eq!(served.merged_records, batch.merged_records);
}

fn append(path: &Path, bytes: &[u8]) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    f.write_all(bytes).unwrap();
}

fn byte_chunks(bytes: &[u8], n: usize) -> Vec<&[u8]> {
    bytes.chunks(bytes.len().div_ceil(n).max(1)).collect()
}

#[test]
fn serve_cli_socket_protocol_and_rotation() {
    let dir = temp_dir("cli");
    let views = sniffer_views(15_000);
    // Source 2 is two capture files, the second replacing the first.
    let split = views[2].len() / 10;
    let live0_bytes = capture_bytes(&dir, "clean0", &views[0]);
    let live1_bytes = capture_bytes(&dir, "clean1", &views[1]);
    let part_a = capture_bytes(&dir, "part_a", &views[2][..split]);
    let part_b = capture_bytes(&dir, "part_b", &views[2][split..]);
    // Mid-stream, part B's global header is damage. A decision waits for
    // at most WINDOW_TARGET bytes past its position, so a part B longer
    // than that lets the live merge reach the batch count before shutdown.
    assert!(part_b.len() > WINDOW_TARGET);

    // Reference files carrying the exact final bytes each live source will
    // have presented: the rotated source's decoder sees part A's bytes (the
    // old descriptor stays readable through the swap) followed by part B's.
    let rotated = [part_a.as_slice(), part_b.as_slice()].concat();
    let refs = write_files(&dir, "ref", &[&live0_bytes, &live1_bytes, &rotated]);
    let batch = bin()
        .arg("analyze")
        .args(&refs)
        .output()
        .expect("run analyze");
    assert!(batch.status.success());
    let batch_stdout = String::from_utf8_lossy(&batch.stdout).into_owned();
    let batch_count: u64 = batch_stdout
        .lines()
        .find_map(|l| l.strip_prefix("frames: "))
        .and_then(|n| n.parse().ok())
        .expect("analyze prints the merged frame count");

    let live: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("live{i}.pcap"))).collect();
    let sock = dir.join("serve.sock");
    append(&live[2], &part_a);
    let child = bin()
        .arg("serve")
        .args(&live)
        .arg("--socket")
        .arg(&sock)
        .args(["--poll-ms", "10", "--skew-horizon-us", "none"])
        .args(["--stall-ms", "none", "--heartbeat-s", "0"])
        .args(["--max-duration-s", "60"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    for (a, b) in byte_chunks(&live0_bytes, 12)
        .into_iter()
        .zip(byte_chunks(&live1_bytes, 12))
    {
        append(&live[0], a);
        append(&live[1], b);
    }

    // Rotate once the tail holds part A open.
    status_until(&sock, "source 2 to go live", |s| {
        source_json(s, 2).contains("\"state\":\"live\"")
    });
    std::fs::remove_file(&live[2]).unwrap();
    for chunk in byte_chunks(&part_b, 6) {
        append(&live[2], chunk);
    }

    let status = status_until(&sock, "the batch record count", |s| {
        field_u64(s, "merged_records") == Some(batch_count)
    });
    assert!(status.contains("\"watermark_us\":"), "{status}");
    assert_eq!(sum_of(&status, "rotations"), 1, "{status}");
    let seconds = query(&sock, "seconds").expect("seconds endpoint");
    assert!(seconds.trim_end().starts_with('['), "{seconds}");
    assert!(seconds.contains("\"class\":"), "{seconds}");

    let reply = query(&sock, "shutdown").expect("shutdown accepted");
    assert!(reply.contains("stopping"), "{reply}");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        batch_stdout,
        "serve final analysis must byte-match batch analysis of the same bytes"
    );
    // Part B's header was skip-counted, and the damage reported.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("live2.pcap had skips"), "{stderr}");
}
