//! End-to-end tests of the `wifi-congestion` command-line tool: simulate a
//! trace to pcap, then run every analysis subcommand against the file.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wifi-congestion"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wifi-congestion-cli").join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn simulate(dir: &Path) -> PathBuf {
    let out = bin()
        .args([
            "simulate",
            "ramp",
            "--out",
            dir.to_str().unwrap(),
            "--seed",
            "5",
            "--users",
            "40",
            "--duration",
            "20",
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let pcap = dir.join("ramp_sniffer0.pcap");
    assert!(pcap.exists(), "pcap written");
    pcap
}

#[test]
fn simulate_then_analyze() {
    let dir = temp_dir("analyze");
    let pcap = simulate(&dir);
    let out = bin()
        .args(["analyze", pcap.to_str().unwrap()])
        .output()
        .expect("run analyze");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("frames:"), "{stdout}");
    assert!(stdout.contains("congestion:"), "{stdout}");
    assert!(stdout.contains("utilization mode:"), "{stdout}");
}

#[test]
fn histogram_unrecorded_and_aps() {
    let dir = temp_dir("others");
    let pcap = simulate(&dir);
    for (cmd, needle) in [
        ("histogram", "mode:"),
        ("unrecorded", "unrecorded percentage:"),
        ("aps", "top-"),
    ] {
        let out = bin()
            .args([cmd, pcap.to_str().unwrap()])
            .output()
            .expect("run subcommand");
        assert!(out.status.success(), "{cmd} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(needle), "{cmd}: {stdout}");
    }
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing file.
    let out = bin()
        .args(["analyze", "/nonexistent.pcap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    // Help exits zero.
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// One damaged record in the middle of a capture: every analysis
/// subcommand reads past it through the lossy reader, notes the skip on
/// stderr, and succeeds.
#[test]
fn every_subcommand_reads_a_damaged_capture() {
    let dir = temp_dir("damaged");
    let pcap = simulate(&dir);
    let mut bytes = std::fs::read(&pcap).unwrap();
    // Walk the classic-pcap record headers (24-byte global header, 16-byte
    // record headers) and blast the middle record's caplen.
    let mut offsets = Vec::new();
    let mut off = 24;
    while off + 16 <= bytes.len() {
        offsets.push(off);
        let caplen = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap());
        off += 16 + caplen as usize;
    }
    let mid = offsets[offsets.len() / 2];
    bytes[mid + 8..mid + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&pcap, &bytes).unwrap();
    for cmd in ["analyze", "histogram", "unrecorded", "aps"] {
        let out = bin()
            .args([cmd, pcap.to_str().unwrap()])
            .output()
            .expect("run subcommand");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{cmd} failed: {stderr}");
        assert!(
            stderr.contains(&format!("note: {} had skips:", pcap.display())),
            "{cmd}: {stderr}"
        );
    }
}

/// The container is detected from the file's magic: the same packets in a
/// classic pcap and in a pcapng file analyze to the same output.
#[test]
fn analyze_prints_the_same_for_classic_and_pcapng() {
    use ietf80211_congestion::trace::write_capture;
    use wifi_pcap::{LinkType, PcapNgWriter, PcapStream};

    let dir = temp_dir("containers");
    let classic = dir.join("ramp.pcap");
    let ng = dir.join("ramp.pcapng");
    let trace = &ietf_workloads::load_ramp(5, 40, 20, 2.0).run().traces[0];
    write_capture(&classic, trace).unwrap();
    let mut packets = PcapStream::new(std::fs::File::open(&classic).unwrap()).unwrap();
    let mut w =
        PcapNgWriter::new(std::fs::File::create(&ng).unwrap(), LinkType::Radiotap, 0).unwrap();
    let mut copied = 0;
    while let Some(p) = packets.next_packet().unwrap() {
        w.write_packet(p.timestamp_us, p.data, p.orig_len).unwrap();
        copied += 1;
    }
    assert!(packets.report().is_clean() && copied == trace.len());
    w.flush().unwrap();

    let analyze = |path: &Path| {
        let out = bin()
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .expect("run analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", path.display());
        assert!(!stderr.contains("had skips"), "{stderr}");
        out.stdout
    };
    let from_classic = analyze(&classic);
    assert!(String::from_utf8_lossy(&from_classic).contains("frames:"));
    assert!(from_classic == analyze(&ng), "pcapng output differs");
}
