//! Property-based tests: pcap write→read is the identity (modulo snaplen
//! truncation, which is itself exactly characterized), in both containers.

use proptest::prelude::*;
use wifi_pcap::{IngestReport, LinkType, PcapError, PcapNgWriter, PcapStream, PcapWriter};

/// One decoded record: link, timestamp, original length, bytes.
type Packet = (LinkType, u64, u32, Vec<u8>);

/// Every packet of a read, and its final report.
fn read(bytes: &[u8]) -> Result<(Vec<Packet>, IngestReport), PcapError> {
    let mut r = PcapStream::new(bytes)?;
    let mut packets = Vec::new();
    while let Some(p) = r.next_packet()? {
        packets.push((p.link, p.timestamp_us, p.orig_len, p.data.to_vec()));
    }
    Ok((packets, *r.report()))
}

fn arb_packets() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u64..4_000_000_000_000u64,
            proptest::collection::vec(any::<u8>(), 0..600),
        ),
        0..40,
    )
}

/// `packets` written as a classic pcap, each at its own original length.
fn classic(packets: &[(u64, Vec<u8>, u32)], snaplen: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, snaplen).unwrap();
    for (ts, data, orig_len) in packets {
        w.write_packet(*ts, data, *orig_len).unwrap();
    }
    buf
}

/// `packets` written as a pcapng, each at its own original length.
fn pcapng(packets: &[(u64, Vec<u8>, u32)], snaplen: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, snaplen).unwrap();
    for (ts, data, orig_len) in packets {
        w.write_packet(*ts, data, *orig_len).unwrap();
    }
    buf
}

proptest! {
    #[test]
    fn roundtrip_unlimited_snaplen(packets in arb_packets()) {
        let whole: Vec<_> = packets
            .iter()
            .map(|(ts, data)| (*ts, data.clone(), data.len() as u32))
            .collect();
        let (read, report) = read(&classic(&whole, 65535)).unwrap();
        prop_assert!(report.is_clean());
        prop_assert_eq!(read.len(), packets.len());
        for (got, (ts, data)) in read.iter().zip(&packets) {
            prop_assert_eq!(got, &(LinkType::Radiotap, *ts, data.len() as u32, data.clone()));
        }
    }

    /// Packets a capture already truncated, written with their original
    /// lengths at a snap length that may truncate them further: both
    /// containers decode to the same records, with a clean report.
    #[test]
    fn roundtrip_with_snaplen(
        packets in arb_packets(),
        extra in proptest::collection::vec(0u32..2_000, 40),
        snaplen in 1u32..400,
        ng in any::<bool>(),
    ) {
        let truncated: Vec<_> = packets
            .iter()
            .zip(&extra)
            .map(|((ts, data), extra)| (*ts, data.clone(), data.len() as u32 + extra))
            .collect();
        let bytes = if ng {
            pcapng(&truncated, snaplen)
        } else {
            classic(&truncated, snaplen)
        };
        let (read, report) = read(&bytes).unwrap();
        prop_assert!(report.is_clean());
        let expect: Vec<Packet> = truncated
            .iter()
            .map(|(ts, data, orig_len)| {
                let cap = data.len().min(snaplen as usize);
                (LinkType::Radiotap, *ts, *orig_len, data[..cap].to_vec())
            })
            .collect();
        prop_assert_eq!(read, expect);
    }

    #[test]
    fn arbitrary_prefix_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Any byte soup must produce a clean error or packets, never a panic.
        let _ = read(&bytes);
    }

    #[test]
    fn truncated_valid_file_reads_cleanly_up_to_the_cut(
        packets in arb_packets().prop_filter("nonempty", |p| !p.is_empty()),
        cut_frac in 0.0f64..1.0,
    ) {
        let whole: Vec<_> = packets
            .iter()
            .map(|(ts, data)| (*ts, data.clone(), data.len() as u32))
            .collect();
        let buf = classic(&whole, 65535);
        let cut = 24 + ((buf.len() - 24) as f64 * cut_frac) as usize;
        // The records before the cut parse; a cut inside one is counted.
        let (read, report) = read(&buf[..cut]).unwrap();
        prop_assert!(read.len() <= packets.len());
        prop_assert_eq!(report.records_total() as usize, read.len());
    }
}
