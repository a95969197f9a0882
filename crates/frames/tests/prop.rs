//! Property-based tests for the wifi-frames crate: wire-format roundtrips,
//! FCS integrity, radiotap roundtrips, and timing-math invariants.

use proptest::prelude::*;
use wifi_frames::fc::{FcFlags, FrameKind};
use wifi_frames::frame::{Ack, Beacon, Cts, Data, Frame, Rts, SeqCtl};
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Preamble, Rate};
use wifi_frames::radiotap::{self, CaptureMeta};
use wifi_frames::record::FrameRecord;
use wifi_frames::{fcs, timing, wire};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_rate() -> impl Strategy<Value = Rate> {
    prop_oneof![
        Just(Rate::R1),
        Just(Rate::R2),
        Just(Rate::R5_5),
        Just(Rate::R11)
    ]
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    (1u8..=14).prop_map(|n| Channel::new(n).unwrap())
}

fn arb_flags() -> impl Strategy<Value = FcFlags> {
    any::<u8>().prop_map(FcFlags::from_bits)
}

fn arb_seq() -> impl Strategy<Value = SeqCtl> {
    (0u16..4096, 0u8..16).prop_map(|(s, f)| SeqCtl::new(s, f))
}

fn arb_data_frame() -> impl Strategy<Value = Frame> {
    (
        arb_flags(),
        any::<u16>(),
        arb_mac(),
        arb_mac(),
        arb_mac(),
        arb_seq(),
        proptest::collection::vec(any::<u8>(), 0..2304),
        any::<bool>(),
    )
        .prop_map(
            |(flags, duration, addr1, addr2, addr3, seq, payload, null)| {
                Frame::Data(Data {
                    flags,
                    duration,
                    addr1,
                    addr2,
                    addr3,
                    seq,
                    payload: if null { Vec::new() } else { payload },
                    null,
                })
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u16>(), arb_mac(), arb_mac()).prop_map(|(duration, receiver, transmitter)| {
            Frame::Rts(Rts {
                duration,
                receiver,
                transmitter,
            })
        }),
        (any::<u16>(), arb_mac())
            .prop_map(|(duration, receiver)| Frame::Cts(Cts { duration, receiver })),
        (any::<u16>(), arb_mac())
            .prop_map(|(duration, receiver)| Frame::Ack(Ack { duration, receiver })),
        arb_data_frame(),
        (
            arb_mac(),
            arb_seq(),
            any::<u64>(),
            any::<u16>(),
            any::<u16>(),
            "[a-z0-9]{0,16}",
            arb_channel()
        )
            .prop_map(
                |(ap, seq, timestamp, interval_tu, capability, ssid, channel)| {
                    Frame::Beacon(Beacon {
                        duration: 0,
                        dest: MacAddr::BROADCAST,
                        source: ap,
                        bssid: ap,
                        seq,
                        timestamp,
                        interval_tu,
                        capability,
                        ssid,
                        channel,
                    })
                }
            ),
    ]
}

proptest! {
    #[test]
    fn wire_roundtrip(frame in arb_frame()) {
        let bytes = wire::encode(&frame);
        prop_assert_eq!(bytes.len(), frame.size_bytes());
        let parsed = wire::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, frame);
    }

    #[test]
    fn fcs_always_verifies_after_append(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut f = body;
        fcs::append_fcs(&mut f);
        prop_assert!(fcs::verify_fcs(&f));
    }

    #[test]
    fn fcs_detects_single_flip(
        body in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut f = body;
        fcs::append_fcs(&mut f);
        let idx = flip_byte.index(f.len());
        f[idx] ^= 1 << flip_bit;
        prop_assert!(!fcs::verify_fcs(&f));
    }

    #[test]
    fn radiotap_roundtrip(
        tsft in any::<u64>(),
        flags in any::<u8>(),
        rate in arb_rate(),
        channel in arb_channel(),
        signal in -100i8..0,
        noise in -110i8..-60,
        antenna in any::<u8>(),
        frame in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let meta = CaptureMeta { tsft_us: tsft, flags, rate, channel, signal_dbm: signal, noise_dbm: noise, antenna };
        let pkt = radiotap::encode_packet(&meta, &frame);
        let (m, f) = radiotap::parse_packet(&pkt).unwrap();
        prop_assert_eq!(m, meta);
        prop_assert_eq!(f, &frame[..]);
    }

    #[test]
    fn header_parse_agrees_with_full_parse(frame in arb_frame()) {
        let bytes = wire::encode(&frame);
        let h = wire::parse_header(&bytes).unwrap();
        prop_assert_eq!(h.kind, frame.kind());
        prop_assert_eq!(h.receiver, frame.receiver());
        prop_assert_eq!(h.transmitter, frame.transmitter());
        prop_assert_eq!(h.duration, frame.duration());
        prop_assert_eq!(h.seq.map(|s| s.seq), frame.seq().map(|s| s.seq));
    }

    #[test]
    fn record_from_truncation_preserves_sizes(frame in arb_data_frame(), snap in 24usize..2048) {
        let bytes = wire::encode(&frame);
        let cut = snap.min(bytes.len());
        let h = match wire::parse_header(&bytes[..cut]) {
            Ok(h) => h,
            Err(_) => return Ok(()), // snap shorter than the header: nothing to check
        };
        let meta = CaptureMeta {
            tsft_us: 0, flags: 0, rate: Rate::R11,
            channel: Channel::new(1).unwrap(), signal_dbm: -50, noise_dbm: -95, antenna: 0,
        };
        let r = FrameRecord::from_header(&h, bytes.len() as u32, &meta);
        prop_assert_eq!(r.mac_bytes as usize, frame.size_bytes());
        prop_assert_eq!(r.bssid, frame.bssid());
        if frame.kind() == FrameKind::Data {
            prop_assert_eq!(r.payload_bytes as usize, frame.payload_len());
        }
    }

    #[test]
    fn data_airtime_monotone(size_a in 0u64..2304, size_b in 0u64..2304, rate in arb_rate()) {
        let (lo, hi) = if size_a <= size_b { (size_a, size_b) } else { (size_b, size_a) };
        prop_assert!(timing::data_airtime_us(lo, rate) <= timing::data_airtime_us(hi, rate));
    }

    #[test]
    fn data_airtime_rate_dominance(size in 0u64..2304) {
        // A faster rate never takes longer for the same frame.
        let times: Vec<u64> = Rate::ALL.iter().map(|&r| timing::data_airtime_us(size, r)).collect();
        for w in times.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn frame_airtime_at_least_preamble(bytes in 0u64..4096, rate in arb_rate()) {
        for p in [Preamble::Long, Preamble::Short] {
            prop_assert!(timing::frame_airtime_us(bytes, rate, p) >= p.duration_us());
        }
    }

    #[test]
    fn cw_growth_monotone_and_bounded(retries_a in 0u32..20, retries_b in 0u32..20) {
        use timing::dcf::{cw_after, CW_MAX, CW_MIN};
        let (lo, hi) = if retries_a <= retries_b { (retries_a, retries_b) } else { (retries_b, retries_a) };
        prop_assert!(cw_after(lo) <= cw_after(hi));
        prop_assert!(cw_after(hi) <= CW_MAX);
        prop_assert!(cw_after(lo) >= CW_MIN);
    }

    #[test]
    fn seqctl_raw_roundtrip(raw in any::<u16>()) {
        let s = SeqCtl::from_raw(raw);
        prop_assert_eq!(s.to_raw(), raw);
    }

    #[test]
    fn mac_display_parse_roundtrip(mac in arb_mac()) {
        let s = mac.to_string();
        prop_assert_eq!(s.parse::<MacAddr>().unwrap(), mac);
    }
}
