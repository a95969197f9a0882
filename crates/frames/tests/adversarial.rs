//! Adversarial-input tests: the parsers must return clean errors — never
//! panic, never over-read — on arbitrary byte soup, truncations, and
//! bit-flipped captures.

use proptest::prelude::*;
use wifi_frames::{radiotap, wire};

proptest! {
    #[test]
    fn wire_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = wire::parse_header(&bytes);
    }

    #[test]
    fn radiotap_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = radiotap::parse_packet(&bytes);
    }

    #[test]
    fn bit_flips_in_radiotap_header_error_or_differ(
        flip_byte in 0usize..25,
        flip_bit in 0u8..8,
    ) {
        use wifi_frames::phy::{Channel, Rate};
        use wifi_frames::radiotap::CaptureMeta;
        let meta = CaptureMeta {
            tsft_us: 424_242,
            flags: 0x10,
            rate: Rate::R5_5,
            channel: Channel::new(11).unwrap(),
            signal_dbm: -70,
            noise_dbm: -95,
            antenna: 0,
        };
        let mut pkt = radiotap::encode_packet(&meta, b"payload");
        pkt[flip_byte] ^= 1 << flip_bit;
        // A surviving parse must still be internally consistent; clean
        // rejection is fine.
        if let Ok((_, rest)) = radiotap::parse_packet(&pkt) {
            prop_assert!(rest.len() <= pkt.len());
        }
    }
}

#[test]
fn empty_and_tiny_inputs() {
    assert!(wire::parse_header(&[]).is_err());
    assert!(wire::parse_header(&[0x08]).is_err());
    assert!(wire::parse_header(&[0xB4, 0x00]).is_err());
    assert!(radiotap::parse_packet(&[]).is_err());
    assert!(radiotap::parse_packet(&[0; 7]).is_err());
}

#[test]
fn declared_radiotap_length_cannot_overread() {
    // Header claims 200 bytes but the buffer holds 30.
    let mut pkt = vec![0u8, 0];
    pkt.extend_from_slice(&200u16.to_le_bytes());
    pkt.extend_from_slice(&0u32.to_le_bytes());
    pkt.extend_from_slice(&[0u8; 22]);
    assert!(radiotap::parse_packet(&pkt).is_err());
}
