//! Property-based tests for the wifi-frames crate: record encode/parse
//! roundtrips at every snap length, FCS integrity, radiotap roundtrips, and
//! timing-math invariants.

use proptest::prelude::*;
use wifi_frames::fc::{FrameClass, FrameKind};
use wifi_frames::frame::SeqCtl;
use wifi_frames::mac::MacAddr;
use wifi_frames::phy::{Channel, Preamble, Rate};
use wifi_frames::radiotap::{self, CaptureMeta, RadiotapError};
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

/// The radiotap fields and timestamp of a record, with the rest left for
/// [`arb_record`] to fill in.
fn arb_capture() -> impl Strategy<Value = FrameRecord> {
    (
        any::<u64>(),
        arb_rate(),
        arb_channel(),
        any::<i8>(),
        any::<u16>(),
        arb_mac(),
        arb_mac(),
        0u16..4096,
    )
        .prop_map(
            |(timestamp_us, rate, channel, signal_dbm, duration_us, dst, src, seq)| FrameRecord {
                timestamp_us,
                kind: FrameKind::Data,
                rate,
                channel,
                dst,
                src: Some(src),
                bssid: None,
                retry: false,
                seq: Some(seq),
                mac_bytes: 0,
                payload_bytes: 0,
                signal_dbm,
                duration_us,
            },
        )
}

/// Well-formed records of every layout: data and null frames whose BSSID
/// is their destination or their source, beacons to broadcast with no
/// duration, other management frames, RTS and the two-address control
/// frames (PS-Poll, CF-End) with no BSSID or sequence number, and CTS/ACK
/// with no source either. Only data and management frames carry a retry
/// bit; every frame is as long as its kind's header at least.
fn arb_record() -> impl Strategy<Value = FrameRecord> {
    let mgmt = prop_oneof![
        Just(FrameKind::ProbeRequest),
        Just(FrameKind::ProbeResponse),
        Just(FrameKind::AssocRequest),
        Just(FrameKind::AssocResponse),
        Just(FrameKind::Disassoc),
        Just(FrameKind::Auth),
        Just(FrameKind::Deauth),
    ];
    let control = prop_oneof![
        Just(FrameKind::Rts),
        Just(FrameKind::Other {
            class: FrameClass::Control,
            subtype: 0b1010
        }),
        Just(FrameKind::Other {
            class: FrameClass::Control,
            subtype: 0b1110
        }),
    ];
    (
        arb_capture(),
        0u8..6,
        any::<bool>(),
        any::<bool>(),
        0u32..2304,
        mgmt,
        control,
    )
        .prop_map(|(mut r, layout, flag, retry, body, mgmt, control)| {
            match layout {
                0 | 1 => {
                    r.kind = if layout == 0 {
                        FrameKind::Data
                    } else {
                        FrameKind::NullData
                    };
                    r.bssid = if flag { Some(r.dst) } else { r.src };
                    r.retry = retry;
                    r.payload_bytes = if layout == 0 { body } else { 0 };
                    r.mac_bytes = 28 + r.payload_bytes;
                }
                2 => {
                    r.kind = FrameKind::Beacon;
                    r.dst = MacAddr::BROADCAST;
                    r.duration_us = 0;
                    r.bssid = r.src;
                    r.mac_bytes = 51 + body % 33;
                }
                3 => {
                    r.kind = mgmt;
                    r.bssid = Some(r.dst);
                    r.retry = retry;
                    r.mac_bytes = 28 + body;
                }
                4 => {
                    r.kind = control;
                    r.seq = None;
                    r.mac_bytes = 20;
                }
                _ => {
                    r.kind = if flag { FrameKind::Cts } else { FrameKind::Ack };
                    (r.src, r.seq) = (None, None);
                    r.mac_bytes = 14;
                }
            }
            r
        })
}

/// The MAC header length of a record's kind.
fn header_len(kind: FrameKind) -> usize {
    match kind {
        FrameKind::Cts | FrameKind::Ack => 10,
        k if k.class() == FrameClass::Control => 16,
        _ => 24,
    }
}

/// (size, alignment) of radiotap field bits 0–14, as the standard lays
/// them out.
const RADIOTAP_LAYOUT: [(usize, usize); 15] = [
    (8, 8),
    (1, 1),
    (1, 1),
    (4, 2),
    (2, 1),
    (1, 1),
    (1, 1),
    (2, 2),
    (2, 2),
    (2, 2),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, 1),
    (2, 2),
];

/// The reference radiotap parser: tests all 32 present bits in turn and
/// aligns each field by division. `radiotap::parse_packet` must agree with
/// it on every input, including which error it reports.
fn parse_packet_oracle(bytes: &[u8]) -> Result<(CaptureMeta, &[u8]), RadiotapError> {
    if bytes.len() < 8 {
        return Err(RadiotapError::Truncated);
    }
    if bytes[0] != 0 {
        return Err(RadiotapError::BadVersion(bytes[0]));
    }
    let header_len = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
    if header_len < 8 || bytes.len() < header_len {
        return Err(RadiotapError::Truncated);
    }
    let present = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if present & (1 << 31) != 0 {
        return Err(RadiotapError::UnknownField(31));
    }
    let channel_from_mhz = |mhz: u16| match mhz {
        2484 => Channel::new(14),
        2412..=2472 if (mhz - 2407).is_multiple_of(5) => Channel::new(((mhz - 2407) / 5) as u8),
        _ => None,
    };
    let mut pos = 8usize;
    let (mut tsft, mut flags, mut signal, mut noise, mut antenna) = (0u64, 0u8, 0i8, i8::MIN, 0u8);
    let (mut rate, mut channel) = (None, None);
    for bit in 0..32u32 {
        if present & (1 << bit) == 0 {
            continue;
        }
        let (size, align) = *RADIOTAP_LAYOUT
            .get(bit as usize)
            .ok_or(RadiotapError::UnknownField(bit))?;
        pos = pos.div_ceil(align) * align;
        if pos + size > header_len {
            return Err(RadiotapError::Truncated);
        }
        let field = &bytes[pos..pos + size];
        match bit {
            0 => tsft = u64::from_le_bytes(field.try_into().unwrap()),
            1 => flags = field[0],
            2 => {
                rate = Some(
                    Rate::from_units_500kbps(field[0]).ok_or(RadiotapError::BadRate(field[0]))?,
                )
            }
            3 => {
                let mhz = u16::from_le_bytes([field[0], field[1]]);
                channel = Some(channel_from_mhz(mhz).ok_or(RadiotapError::BadChannel(mhz))?);
            }
            5 => signal = field[0] as i8,
            6 => noise = field[0] as i8,
            11 => antenna = field[0],
            _ => {}
        }
        pos += size;
    }
    let meta = CaptureMeta {
        tsft_us: tsft,
        flags,
        rate: rate.ok_or(RadiotapError::MissingField("rate"))?,
        channel: channel.ok_or(RadiotapError::MissingField("channel"))?,
        signal_dbm: signal,
        noise_dbm: noise,
        antenna,
    };
    Ok((meta, &bytes[header_len..]))
}

/// `usual` seven times in eight (by `roll`), otherwise `raw`.
fn mostly<T>(roll: u8, usual: T, raw: T) -> T {
    if roll.is_multiple_of(8) {
        raw
    } else {
        usual
    }
}

/// Radiotap records that reach every branch of the parser: present maps
/// mostly over the known bits 0–14 (usually with rate and channel), some
/// with one unknown bit 15–31 and some over all 32 bits; fields laid out at
/// their alignment with mostly valid rates and frequencies; and a declared
/// length, version byte and total length that are sometimes wrong. One case
/// in eight is raw bytes.
fn arb_radiotap_packet() -> impl Strategy<Value = Vec<u8>> {
    let present = (any::<u32>(), 0u8..8, 15u32..32).prop_map(|(raw, roll, unknown)| match roll {
        0..=3 => raw & 0x7fff | 0b1100,
        4 => raw & 0x7fff,
        5..=6 => raw & 0x7fff | 0b1100 | 1 << unknown,
        _ => raw,
    });
    let rate = (any::<u8>(), arb_rate(), any::<u8>())
        .prop_map(|(roll, rate, raw)| mostly(roll, rate.units_500kbps(), raw));
    let mhz = (any::<u8>(), arb_channel(), any::<u16>())
        .prop_map(|(roll, ch, raw)| mostly(roll, ch.center_mhz(), raw));
    let version = (0u8..16, any::<u8>()).prop_map(|(roll, v)| if roll == 0 { v } else { 0 });
    let len_delta = (0u8..6, -10i32..10, any::<u16>()).prop_map(|(roll, d, raw)| match roll {
        0..=3 => 0,
        4 => d,
        _ => i32::from(raw),
    });
    let cut = (0u8..8, any::<prop::sample::Index>()).prop_map(|(roll, i)| (roll == 0).then_some(i));
    let laid_out = (
        present,
        rate,
        mhz,
        version,
        len_delta,
        proptest::collection::vec(any::<u8>(), 32),
        proptest::collection::vec(any::<u8>(), 0..16),
        cut,
    )
        .prop_map(
            |(present, rate, mhz, version, len_delta, filler, frame, cut)| {
                let mut pkt = vec![version, 0, 0, 0];
                pkt.extend_from_slice(&present.to_le_bytes());
                let mut fill = filler.iter().copied().cycle();
                for (bit, &(size, align)) in RADIOTAP_LAYOUT.iter().enumerate() {
                    if present & (1 << bit) == 0 {
                        continue;
                    }
                    while pkt.len() % align != 0 {
                        pkt.extend(fill.next());
                    }
                    match bit {
                        2 => pkt.push(rate),
                        3 => {
                            pkt.extend_from_slice(&mhz.to_le_bytes());
                            pkt.extend(fill.by_ref().take(2));
                        }
                        _ => pkt.extend(fill.by_ref().take(size)),
                    }
                }
                let len = (pkt.len() as i32 + len_delta).clamp(0, u16::MAX as i32) as u16;
                pkt[2..4].copy_from_slice(&len.to_le_bytes());
                pkt.extend_from_slice(&frame);
                if let Some(cut) = cut {
                    pkt.truncate(cut.index(pkt.len() + 1));
                }
                pkt
            },
        );
    (
        laid_out,
        0u8..8,
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(pkt, roll, raw)| if roll == 0 { raw } else { pkt })
}

proptest! {
    /// `encode_prefix` is `encode` cut at `keep`, with the whole length, at
    /// every cut: inside the header, the body and the FCS, and past the end;
    /// also for a declared size shorter than the header.
    #[test]
    fn encode_prefix_is_the_cut_encoding(
        r in arb_record(),
        extra in 0usize..8,
        shrink in any::<bool>(),
    ) {
        let mut r = r;
        if shrink {
            r.mac_bytes %= 16;
        }
        let bytes = wire::encode(&r);
        for keep in 0..=bytes.len() + extra {
            let (prefix, len) = wire::encode_prefix(&r, keep);
            prop_assert_eq!(len, bytes.len());
            prop_assert_eq!(&prefix[..], &bytes[..keep.min(bytes.len())], "keep {}", keep);
        }
    }

    /// `parse_header` + `from_header` invert `encode` at every snap length
    /// that keeps the header, and refuse every shorter cut as truncated.
    #[test]
    fn record_roundtrip_at_every_cut(r in arb_record()) {
        let bytes = wire::encode(&r);
        prop_assert_eq!(bytes.len(), r.mac_bytes as usize);
        let meta = CaptureMeta {
            tsft_us: r.timestamp_us, flags: 0, rate: r.rate, channel: r.channel,
            signal_dbm: r.signal_dbm, noise_dbm: -95, antenna: 0,
        };
        for cut in 0..=bytes.len() {
            match wire::parse_header(&bytes[..cut]) {
                Ok(h) => {
                    prop_assert!(cut >= header_len(r.kind), "{:?} parsed from {} bytes", r.kind, cut);
                    prop_assert_eq!(FrameRecord::from_header(&h, r.mac_bytes, &meta), r);
                }
                Err(e) => {
                    prop_assert!(cut < header_len(r.kind), "{:?} cut at {}: {}", r.kind, cut, e);
                    let truncated = matches!(e, wire::ParseError::Truncated { got, .. } if got == cut);
                    prop_assert!(truncated, "{:?} cut at {}: {}", r.kind, cut, e);
                }
            }
        }
    }

    #[test]
    fn fcs_is_the_crc_of_the_body(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut f = body.clone();
        fcs::append_fcs(&mut f);
        prop_assert_eq!(&f[..body.len()], &body[..]);
        prop_assert_eq!(&f[body.len()..], &fcs::crc32(&body).to_le_bytes()[..]);
    }

    #[test]
    fn crc_detects_single_flip(
        body in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut flipped = body.clone();
        flipped[flip_byte.index(body.len())] ^= 1 << flip_bit;
        prop_assert!(fcs::crc32(&flipped) != fcs::crc32(&body));
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

    #[test]
    fn radiotap_parse_matches_full_bitmap_oracle(pkt in arb_radiotap_packet()) {
        prop_assert_eq!(radiotap::parse_packet(&pkt), parse_packet_oracle(&pkt));
    }
}
