//! Deterministic fault injection for capture byte streams — the adversarial
//! side of the ingestion layer.
//!
//! Real RFMon captures arrive damaged: sniffers crash mid-write (truncated
//! files), disks and NFS mangle bytes (bit flips), buggy tools emit
//! impossible block lengths, and multi-sniffer rigs disagree on time (clock
//! skew) and coverage (dropped frames). This module reproduces every one of
//! those faults *reproducibly*: all corruption derives from a caller-provided
//! seed via [`ChaosRng`], so a failing case replays from its seed alone.
//!
//! Two layers:
//!
//! * [`corrupt_records`] damages a packet list before serialization —
//!   drops, duplicates, adjacent swaps, clock skew/jitter, and malformed
//!   record heads (where a radiotap header lives) — returning the exact
//!   indices dropped, which downstream tests use as loss ground truth;
//! * [`corrupt_bytes`] damages a serialized stream — seeded bit flips,
//!   truncation, garbage insertion, and length-field blasts (oversized or
//!   misaligned block lengths).
//!
//! The decoders in [`crate::stream`] must survive anything these produce,
//! never panicking, and account for the damage in an
//! [`crate::IngestReport`].

/// A tiny deterministic generator (splitmix64) so the harness needs no
/// external RNG crate and corruption replays from a seed.
#[derive(Clone, Debug)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator fully determined by `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, span)`; `span` must be nonzero.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Byte-stream fault mix. Probabilities are per-stream unless noted.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Expected random bit flips per 1024 bytes of stream.
    pub bit_flips_per_kb: f64,
    /// Probability of chopping the stream at a random point.
    pub truncate: f64,
    /// Probability of inserting a short garbage run at a random offset.
    pub garbage_insert: f64,
    /// Probability of overwriting one aligned u32 with an absurd length
    /// (exercises oversized/misaligned block-length handling).
    pub length_blast: f64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            bit_flips_per_kb: 0.5,
            truncate: 0.25,
            garbage_insert: 0.25,
            length_blast: 0.25,
        }
    }
}

/// What [`corrupt_bytes`] actually did to a stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteFaults {
    /// Individual bits flipped.
    pub bit_flips: u64,
    /// Offset the stream was truncated at, if it was.
    pub truncated_at: Option<u64>,
    /// Garbage bytes inserted.
    pub garbage_bytes: u64,
    /// Length fields overwritten with absurd values.
    pub length_blasts: u64,
}

impl ByteFaults {
    /// True when no fault was injected (the stream is still pristine).
    pub fn is_clean(&self) -> bool {
        self.bit_flips == 0
            && self.truncated_at.is_none()
            && self.garbage_bytes == 0
            && self.length_blasts == 0
    }
}

/// Corrupts a serialized capture stream in place. The first
/// `protect_prefix` bytes are left untouched (keep the file-level magic
/// readable when the scenario under test is *record* damage, or pass 0 to
/// attack the header too).
pub fn corrupt_bytes(
    buf: &mut Vec<u8>,
    protect_prefix: usize,
    cfg: &ChaosConfig,
    rng: &mut ChaosRng,
) -> ByteFaults {
    let mut faults = ByteFaults::default();
    if buf.len() <= protect_prefix {
        return faults;
    }
    let span = (buf.len() - protect_prefix) as u64;

    // Bit flips: Poisson-ish via one Bernoulli per expected flip.
    let expected = cfg.bit_flips_per_kb * span as f64 / 1024.0;
    let whole = expected.floor() as u64;
    for _ in 0..whole {
        let off = protect_prefix + rng.below(span) as usize;
        buf[off] ^= 1 << rng.below(8);
        faults.bit_flips += 1;
    }
    if rng.chance(expected - whole as f64) {
        let off = protect_prefix + rng.below(span) as usize;
        buf[off] ^= 1 << rng.below(8);
        faults.bit_flips += 1;
    }

    // Length blast: an aligned u32 becomes an implausible or misaligned
    // length.
    if rng.chance(cfg.length_blast) && span >= 4 {
        let off = protect_prefix + (rng.below(span - 3) as usize & !3);
        let absurd: u32 = match rng.below(3) {
            0 => 0xFFFF_FFFF,               // oversized
            1 => 7,                         // under-minimum and misaligned
            _ => rng.next_u64() as u32 | 1, // odd: misaligned
        };
        if off + 4 <= buf.len() {
            buf[off..off + 4].copy_from_slice(&absurd.to_le_bytes());
            faults.length_blasts += 1;
        }
    }

    // Garbage insertion: a short run of random bytes spliced mid-stream.
    if rng.chance(cfg.garbage_insert) {
        let off = protect_prefix + rng.below(span) as usize;
        let len = 1 + rng.below(64) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        buf.splice(off..off, garbage);
        faults.garbage_bytes = len as u64;
    }

    // Truncation last, so it can cut through any of the damage above.
    if rng.chance(cfg.truncate) {
        let keep = protect_prefix + rng.below((buf.len() - protect_prefix) as u64) as usize;
        buf.truncate(keep);
        faults.truncated_at = Some(keep as u64);
    }
    faults
}

/// Record-level fault mix, applied before serialization.
#[derive(Clone, Copy, Debug)]
pub struct RecordChaosConfig {
    /// Per-record drop probability (a sniffer missing the frame).
    pub drop: f64,
    /// Per-record duplication probability (driver re-delivery).
    pub duplicate: f64,
    /// Per-adjacent-pair swap probability (reordered records).
    pub swap: f64,
    /// Constant clock skew added to every timestamp (inter-sniffer offset).
    pub clock_skew_us: i64,
    /// Uniform per-record timestamp jitter in `[-jitter_us, +jitter_us]`.
    pub jitter_us: u64,
    /// Per-record probability of corrupting the head of the record's data
    /// (where the radiotap header lives).
    pub malform_head: f64,
}

impl Default for RecordChaosConfig {
    fn default() -> RecordChaosConfig {
        RecordChaosConfig {
            drop: 0.05,
            duplicate: 0.01,
            swap: 0.01,
            clock_skew_us: 0,
            jitter_us: 0,
            malform_head: 0.02,
        }
    }
}

/// What [`corrupt_records`] did, including the exact original indices it
/// dropped — the ground truth a loss-aware analysis validates against.
#[derive(Clone, Debug, Default)]
pub struct RecordFaults {
    /// Original indices of dropped records.
    pub dropped: Vec<usize>,
    /// Records duplicated.
    pub duplicated: u64,
    /// Adjacent pairs swapped.
    pub swapped: u64,
    /// Records whose head bytes were corrupted.
    pub malformed_heads: u64,
}

/// Damages a `(timestamp_us, bytes)` packet list in place, returning what
/// was done. Drops are decided first (on original indices); skew and jitter
/// apply to survivors; swaps exchange adjacent survivors.
pub fn corrupt_records(
    packets: &mut Vec<(u64, Vec<u8>)>,
    cfg: &RecordChaosConfig,
    rng: &mut ChaosRng,
) -> RecordFaults {
    let mut faults = RecordFaults::default();

    // Drops, recorded against original indices.
    let mut kept = Vec::with_capacity(packets.len());
    for (i, pkt) in packets.drain(..).enumerate() {
        if rng.chance(cfg.drop) {
            faults.dropped.push(i);
        } else {
            kept.push(pkt);
        }
    }
    *packets = kept;

    for pkt in packets.iter_mut() {
        // Clock skew + jitter, saturating at zero.
        let mut ts = pkt.0 as i128 + cfg.clock_skew_us as i128;
        if cfg.jitter_us > 0 {
            ts += rng.below(2 * cfg.jitter_us + 1) as i128 - cfg.jitter_us as i128;
        }
        pkt.0 = ts.clamp(0, u64::MAX as i128) as u64;

        // Malformed radiotap: flip bits in the first 25 bytes of data.
        if rng.chance(cfg.malform_head) && !pkt.1.is_empty() {
            let head = pkt.1.len().min(25) as u64;
            for _ in 0..1 + rng.below(4) {
                let off = rng.below(head) as usize;
                pkt.1[off] ^= 1 << rng.below(8);
            }
            faults.malformed_heads += 1;
        }
    }

    // Duplicates: re-insert a copy right after the original.
    let mut i = 0;
    while i < packets.len() {
        if rng.chance(cfg.duplicate) {
            let copy = packets[i].clone();
            packets.insert(i + 1, copy);
            faults.duplicated += 1;
            i += 1; // skip the copy
        }
        i += 1;
    }

    // Adjacent swaps (out-of-order delivery).
    let mut i = 0;
    while i + 1 < packets.len() {
        if rng.chance(cfg.swap) {
            packets.swap(i, i + 1);
            faults.swapped += 1;
            i += 1; // don't swap the same pair back
        }
        i += 1;
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let draw = |seed| {
            let mut r = ChaosRng::new(seed);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn chance_extremes() {
        let mut r = ChaosRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn corruption_replays_from_seed() {
        let base: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        let run = || {
            let mut buf = base.clone();
            let mut rng = ChaosRng::new(42);
            let f = corrupt_bytes(&mut buf, 24, &ChaosConfig::default(), &mut rng);
            (buf, f)
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(a, b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn prefix_is_protected() {
        let base = vec![0xAAu8; 2048];
        let mut buf = base.clone();
        let mut rng = ChaosRng::new(3);
        let cfg = ChaosConfig {
            bit_flips_per_kb: 16.0,
            truncate: 0.0,
            garbage_insert: 0.0,
            length_blast: 1.0,
        };
        corrupt_bytes(&mut buf, 24, &cfg, &mut rng);
        assert_eq!(&buf[..24], &base[..24]);
        assert_ne!(buf, base, "faults were requested at certainty");
    }

    #[test]
    fn zero_config_is_identity() {
        let mut packets = vec![(10u64, vec![1, 2, 3]), (20, vec![4, 5])];
        let orig = packets.clone();
        let cfg = RecordChaosConfig {
            drop: 0.0,
            duplicate: 0.0,
            swap: 0.0,
            clock_skew_us: 0,
            jitter_us: 0,
            malform_head: 0.0,
        };
        let mut rng = ChaosRng::new(9);
        let f = corrupt_records(&mut packets, &cfg, &mut rng);
        assert_eq!(packets, orig);
        assert!(f.dropped.is_empty());
        let mut buf = orig.iter().flat_map(|(_, d)| d.clone()).collect::<Vec<_>>();
        let before = buf.clone();
        let byte_cfg = ChaosConfig {
            bit_flips_per_kb: 0.0,
            truncate: 0.0,
            garbage_insert: 0.0,
            length_blast: 0.0,
        };
        assert!(corrupt_bytes(&mut buf, 0, &byte_cfg, &mut rng).is_clean());
        assert_eq!(buf, before);
    }

    #[test]
    fn drops_report_original_indices() {
        let mut packets: Vec<(u64, Vec<u8>)> =
            (0..200).map(|i| (i as u64, vec![i as u8])).collect();
        let cfg = RecordChaosConfig {
            drop: 0.3,
            duplicate: 0.0,
            swap: 0.0,
            clock_skew_us: 0,
            jitter_us: 0,
            malform_head: 0.0,
        };
        let mut rng = ChaosRng::new(11);
        let f = corrupt_records(&mut packets, &cfg, &mut rng);
        assert_eq!(packets.len() + f.dropped.len(), 200);
        // Survivors are exactly the non-dropped originals, in order.
        let dropped: std::collections::HashSet<usize> = f.dropped.iter().copied().collect();
        let expect: Vec<u64> = (0..200u64)
            .filter(|i| !dropped.contains(&(*i as usize)))
            .collect();
        assert_eq!(packets.iter().map(|p| p.0).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn clock_skew_shifts_timestamps() {
        let mut packets = vec![(1_000u64, vec![0u8; 30]), (2_000, vec![0u8; 30])];
        let cfg = RecordChaosConfig {
            drop: 0.0,
            duplicate: 0.0,
            swap: 0.0,
            clock_skew_us: -250,
            jitter_us: 0,
            malform_head: 0.0,
        };
        let mut rng = ChaosRng::new(5);
        corrupt_records(&mut packets, &cfg, &mut rng);
        assert_eq!(packets[0].0, 750);
        assert_eq!(packets[1].0, 1_750);
    }
}
