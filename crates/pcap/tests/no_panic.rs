//! Fault-injection properties: no input — pure byte soup or a chaos-
//! corrupted valid capture — may panic a decoder. A read must stay total
//! and account for every recovery in its [`wifi_pcap::IngestReport`].

use proptest::prelude::*;
use wifi_pcap::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
use wifi_pcap::pcapng::{NgPacket, PcapNgWriter};
use wifi_pcap::{IngestReport, LinkType, PcapNgStream, PcapPacket, PcapStream, PcapWriter};

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

/// A classic read: every packet and the final report; `None` when the
/// global header is unusable.
fn read_classic(bytes: &[u8]) -> Option<(Vec<PcapPacket>, IngestReport)> {
    let mut s = PcapStream::new(bytes).ok()?;
    let mut packets = Vec::new();
    while let Some(p) = s.next_packet().expect("in-memory source") {
        packets.push(p.to_owned());
    }
    Some((packets, *s.report()))
}

/// [`read_classic`] for pcapng.
fn read_ng(bytes: &[u8]) -> (Vec<NgPacket>, IngestReport) {
    let mut s = PcapNgStream::new(bytes);
    let mut packets = Vec::new();
    while let Some(p) = s.next_packet().expect("in-memory source") {
        packets.push(p.to_owned());
    }
    (packets, *s.report())
}

proptest! {
    #[test]
    fn byte_soup_never_panics_any_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = read_classic(&bytes);
        let (_, report) = read_ng(&bytes);
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
        if let Some((packets, report)) = read_classic(&bytes) {
            // Resyncs without recoveries (or vice versa) would mean the
            // report lies about what the reader did.
            prop_assert!(report.records_recovered == 0 || report.resyncs > 0);
            prop_assert_eq!(report.records_total() as usize, packets.len());
        }
    }

    #[test]
    fn chaos_corrupted_pcapng_never_panics(
        packets in arb_packets(),
        seed in any::<u64>(),
    ) {
        let mut bytes = ng_bytes(&packets);
        corrupt_bytes(&mut bytes, 0, &hostile(), &mut ChaosRng::new(seed));
        let (packets, report) = read_ng(&bytes);
        prop_assert_eq!(report.records_total() as usize, packets.len());
    }
}
