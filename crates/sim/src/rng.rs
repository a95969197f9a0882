//! Counter-based per-entity random streams.
//!
//! The simulator used to thread one `SmallRng` through every random
//! decision, which made each draw depend on the global interleaving of all
//! preceding events. Shard-parallel execution (see [`crate::shard`]) needs
//! draws that are a pure function of *which entity* draws and *how many
//! draws it has made so far* — never of what unrelated entities are doing —
//! so that partitioning the population across shards or threads cannot move
//! a single output bit. [`SimRng`] provides that: a splitmix64-style counter
//! generator whose key derives from `(scenario seed, stream id)` and whose
//! `n`-th output is `mix(key + n·γ)`, the same pure-hash discipline the slow
//! fade model ([`crate::radio::Fading::fade_db`]) has always used.
//!
//! [`SimRng`] implements [`rand::RngCore`], so the [`rand::Rng`] sampling
//! surface (`gen`, `gen_range`, `gen_bool`) works on it unchanged.

use rand::RngCore;

/// The Weyl-sequence increment (the splitmix64 gamma).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's finalizing mix — a full 64-bit permutation.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One splitmix64 step: the mix of `x` advanced by one gamma.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    mix(x.wrapping_add(GAMMA))
}

/// One deterministic random stream, keyed by `(seed, stream)`.
///
/// Draw `n` of a stream is `mix(key + n·γ)` — a pure function of the key and
/// the draw index. Two simulators that give an entity the same stream id and
/// the same local draw history therefore produce bit-identical values,
/// however the surrounding population is partitioned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    key: u64,
    ctr: u64,
}

impl SimRng {
    /// Stream `stream` of scenario seed `seed`.
    ///
    /// Seed and stream each pass through their own mix round before being
    /// combined, so nearby `(seed, stream)` pairs land on unrelated keys
    /// (plain XOR would alias `(s, t)` with `(s ^ d, t ^ d)`).
    pub fn new(seed: u64, stream: u64) -> SimRng {
        let key = splitmix64(seed) ^ splitmix64(stream.wrapping_mul(GAMMA));
        SimRng {
            key: mix(key),
            ctr: 0,
        }
    }

    /// Draws made so far on this stream.
    pub fn draws(&self) -> u64 {
        self.ctr
    }
}

impl RngCore for SimRng {
    fn next_u64(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        mix(self.key.wrapping_add(self.ctr.wrapping_mul(GAMMA)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_same_stream() {
        let mut a = SimRng::new(7, 42);
        let mut b = SimRng::new(7, 42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent_of_interleaving() {
        // Drawing from stream A between draws of stream B must not move
        // stream B — the property sharding rests on.
        let mut solo = SimRng::new(3, 9);
        let expected: Vec<u64> = (0..50).map(|_| solo.next_u64()).collect();
        let mut interleaved = SimRng::new(3, 9);
        let mut other = SimRng::new(3, 10);
        let mut got = Vec::new();
        for i in 0..50 {
            for _ in 0..(i % 4) {
                other.next_u64();
            }
            got.push(interleaved.next_u64());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn distinct_seeds_and_streams_diverge() {
        let mut base = SimRng::new(1, 1);
        let mut seed2 = SimRng::new(2, 1);
        let mut stream2 = SimRng::new(1, 2);
        let mut swapped = SimRng::new(1, 0);
        let first = base.next_u64();
        assert_ne!(first, seed2.next_u64());
        assert_ne!(first, stream2.next_u64());
        assert_ne!(first, swapped.next_u64());
    }

    #[test]
    fn unit_draws_are_roughly_uniform() {
        let mut rng = SimRng::new(11, 0);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_works_through_rngcore() {
        let mut rng = SimRng::new(5, 5);
        for _ in 0..1_000 {
            let v: u32 = rng.gen_range(0..=31);
            assert!(v <= 31);
            let g: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&g));
        }
        assert_eq!(rng.draws(), 2_000);
    }
}
