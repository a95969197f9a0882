//! Fault-injection properties: no input — pure byte soup or a chaos-
//! corrupted valid capture — may panic a decoder. A strict read must fail
//! with a structured error; a lossy read must stay total and account for
//! every recovery in its [`wifi_pcap::IngestReport`]. A strict read is
//! exactly the prefix of the lossy read before the first damage, and it
//! fails if and only if the lossy report is not clean.

use proptest::prelude::*;
use wifi_pcap::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
use wifi_pcap::pcapng::{NgPacket, PcapNgWriter};
use wifi_pcap::{
    read_pcap_lossy, read_pcapng_lossy, IngestReport, LinkType, PcapError, PcapNgStream,
    PcapPacket, PcapStream, PcapWriter,
};

fn arb_packets() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u64..4_000_000_000_000u64,
            proptest::collection::vec(any::<u8>(), 0..300),
        ),
        0..24,
    )
}

fn classic_bytes(packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    {
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
        for (ts, data) in packets {
            w.write_packet(*ts, data).unwrap();
        }
    }
    buf
}

fn ng_bytes(packets: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    {
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
        for (ts, data) in packets {
            w.write_packet(*ts, data).unwrap();
        }
        w.flush().unwrap();
    }
    buf
}

/// A hostile mix: flips, truncation, garbage splices and length blasts all
/// enabled at once.
fn hostile() -> ChaosConfig {
    ChaosConfig {
        bit_flips_per_kb: 2.0,
        truncate: 0.3,
        garbage_insert: 0.7,
        length_blast: 0.7,
    }
}

/// A strict classic read: every packet before the first damage, and that
/// damage; `None` when the global header is unusable.
fn strict_classic(bytes: &[u8]) -> Option<(Vec<PcapPacket>, Option<PcapError>)> {
    let mut r = PcapStream::strict(bytes).ok()?;
    let mut packets = Vec::new();
    loop {
        match r.next_packet() {
            Ok(Some(p)) => packets.push(p.to_owned()),
            Ok(None) => return Some((packets, None)),
            Err(e) => return Some((packets, Some(e))),
        }
    }
}

/// A strict pcapng read: every packet before the first damage, and that
/// damage.
fn strict_ng(bytes: &[u8]) -> (Vec<NgPacket>, Option<PcapError>) {
    let mut r = PcapNgStream::strict(bytes);
    let mut packets = Vec::new();
    loop {
        match r.next_packet() {
            Ok(Some(p)) => packets.push(p.to_owned()),
            Ok(None) => return (packets, None),
            Err(e) => return (packets, Some(e)),
        }
    }
}

/// A lossy classic read: every packet, the packets yielded while the
/// report was still clean, and the final report.
fn lossy_classic(bytes: &[u8]) -> Option<(Vec<PcapPacket>, Vec<PcapPacket>, IngestReport)> {
    let mut s = PcapStream::lossy(bytes).ok()?;
    let (mut all, mut clean) = (Vec::new(), Vec::new());
    while let Some(p) = s.next_packet().expect("in-memory source") {
        let p = p.to_owned();
        if s.report().is_clean() {
            clean.push(p.clone());
        }
        all.push(p);
    }
    Some((all, clean, *s.report()))
}

/// [`lossy_classic`] for pcapng.
fn lossy_ng(bytes: &[u8]) -> (Vec<NgPacket>, Vec<NgPacket>, IngestReport) {
    let mut s = PcapNgStream::lossy(bytes);
    let (mut all, mut clean) = (Vec::new(), Vec::new());
    while let Some(p) = s.next_packet().expect("in-memory source") {
        let p = p.to_owned();
        if s.report().is_clean() {
            clean.push(p.clone());
        }
        all.push(p);
    }
    (all, clean, *s.report())
}

proptest! {
    #[test]
    fn byte_soup_never_panics_any_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = strict_classic(&bytes);
        let _ = strict_ng(&bytes);
        let _ = read_pcap_lossy(&bytes);
        let report = read_pcapng_lossy(&bytes).report;
        // A stream with no section header yields no records.
        if !bytes.windows(4).any(|w| w == [0x0A, 0x0D, 0x0D, 0x0A]) {
            prop_assert_eq!(report.records_total(), 0);
        }
    }

    #[test]
    fn chaos_corrupted_classic_never_panics(
        packets in arb_packets(),
        seed in any::<u64>(),
    ) {
        let mut bytes = classic_bytes(&packets);
        corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        let _ = strict_classic(&bytes);
        if let Ok(ingest) = read_pcap_lossy(&bytes) {
            // Resyncs without recoveries (or vice versa) would mean the
            // report lies about what the reader did.
            prop_assert!(ingest.report.records_recovered == 0 || ingest.report.resyncs > 0);
            prop_assert_eq!(
                ingest.report.records_total() as usize,
                ingest.packets.len()
            );
        }
    }

    #[test]
    fn chaos_corrupted_pcapng_never_panics(
        packets in arb_packets(),
        seed in any::<u64>(),
    ) {
        let mut bytes = ng_bytes(&packets);
        corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        let _ = strict_ng(&bytes);
        let ingest = read_pcapng_lossy(&bytes);
        prop_assert_eq!(ingest.report.records_total() as usize, ingest.packets.len());
    }

    #[test]
    fn strict_is_lossys_clean_prefix_classic(
        packets in arb_packets(),
        seed in any::<u64>(),
        damaged in any::<bool>(),
    ) {
        let mut bytes = classic_bytes(&packets);
        if damaged {
            corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        }
        let (lossy, strict) = (lossy_classic(&bytes), strict_classic(&bytes));
        // One global-header check decides both policies alike.
        prop_assert_eq!(lossy.is_some(), strict.is_some());
        if let (Some((all, clean, report)), Some((read, err))) = (lossy, strict) {
            prop_assert_eq!(&read, &clean);
            prop_assert_eq!(err.is_some(), !report.is_clean(), "{:?} / {:?}", err, report);
            if !damaged {
                prop_assert!(err.is_none(), "our own writer's file: {:?}", err);
                prop_assert_eq!(&read, &all);
            }
        }
    }

    #[test]
    fn strict_is_lossys_clean_prefix_pcapng(
        packets in arb_packets(),
        seed in any::<u64>(),
        damaged in any::<bool>(),
    ) {
        let mut bytes = ng_bytes(&packets);
        if damaged {
            corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        }
        let (all, clean, report) = lossy_ng(&bytes);
        let (read, err) = strict_ng(&bytes);
        prop_assert_eq!(&read, &clean);
        prop_assert_eq!(err.is_some(), !report.is_clean(), "{:?} / {:?}", err, report);
        if !damaged {
            prop_assert!(err.is_none(), "our own writer's file: {:?}", err);
            prop_assert_eq!(&read, &all);
        }
    }
}
