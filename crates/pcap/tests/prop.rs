//! Property-based tests: pcap write→read is the identity (modulo snaplen
//! truncation, which is itself exactly characterized).

use proptest::prelude::*;
use wifi_pcap::{IngestReport, LinkType, PcapError, PcapPacket, PcapStream, PcapWriter};

/// Every packet of a read, and its final report.
fn read(bytes: &[u8]) -> Result<(Vec<PcapPacket>, IngestReport), PcapError> {
    let mut r = PcapStream::new(bytes)?;
    let mut packets = Vec::new();
    while let Some(p) = r.next_packet()? {
        packets.push(p.to_owned());
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

proptest! {
    #[test]
    fn roundtrip_unlimited_snaplen(packets in arb_packets()) {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
            for (ts, data) in &packets {
                w.write_packet(*ts, data).unwrap();
            }
        }
        let (read, report) = read(&buf).unwrap();
        prop_assert!(report.is_clean());
        prop_assert_eq!(read.len(), packets.len());
        for (got, (ts, data)) in read.iter().zip(&packets) {
            prop_assert_eq!(got.timestamp_us, *ts);
            prop_assert_eq!(&got.data, data);
            prop_assert_eq!(got.orig_len as usize, data.len());
            prop_assert!(!got.is_truncated());
        }
    }

    #[test]
    fn roundtrip_with_snaplen(packets in arb_packets(), snaplen in 1u32..400) {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, snaplen).unwrap();
            for (ts, data) in &packets {
                w.write_packet(*ts, data).unwrap();
            }
        }
        let (read, report) = read(&buf).unwrap();
        prop_assert!(report.is_clean());
        prop_assert_eq!(read.len(), packets.len());
        for (got, (ts, data)) in read.iter().zip(&packets) {
            prop_assert_eq!(got.timestamp_us, *ts);
            let expect_cap = data.len().min(snaplen as usize);
            prop_assert_eq!(&got.data[..], &data[..expect_cap]);
            prop_assert_eq!(got.orig_len as usize, data.len());
            prop_assert_eq!(got.is_truncated(), data.len() > expect_cap);
        }
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
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 65535).unwrap();
            for (ts, data) in &packets {
                w.write_packet(*ts, data).unwrap();
            }
        }
        let cut = 24 + ((buf.len() - 24) as f64 * cut_frac) as usize;
        // The records before the cut parse; a cut inside one is counted.
        let (read, report) = read(&buf[..cut]).unwrap();
        prop_assert!(read.len() <= packets.len());
        prop_assert_eq!(report.records_total() as usize, read.len());
    }
}
