//! IEEE CRC-32 Frame Check Sequence, as appended to every 802.11 MAC frame.
//!
//! Polynomial 0x04C11DB7, reflected in/out, initial value `0xFFFF_FFFF`,
//! final XOR `0xFFFF_FFFF` — the same CRC used by Ethernet. Implemented with
//! a compile-time 256-entry table.

/// The 256-entry lookup table for the reflected polynomial 0xEDB88320.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 FCS over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

/// Appends the FCS (little-endian, as transmitted on air) to a frame body.
pub fn append_fcs(frame: &mut Vec<u8>) {
    let fcs = crc32(frame);
    frame.extend_from_slice(&fcs.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xffu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn append_fcs_appends_the_crc_little_endian() {
        let mut f = b"123456789".to_vec();
        append_fcs(&mut f);
        assert_eq!(&f[..9], b"123456789");
        assert_eq!(&f[9..], &[0x26, 0x39, 0xF4, 0xCB]);
        let mut empty = Vec::new();
        append_fcs(&mut empty);
        assert_eq!(empty, [0; 4]);
    }
}
