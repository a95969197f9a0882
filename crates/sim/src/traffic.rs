//! Traffic generation: MSDU arrival processes and frame-size distributions.
//!
//! The paper buckets data frames into four size classes (Section 6): small
//! (0–400 B), medium (401–800 B), large (801–1200 B) and extra-large
//! (>1200 B), motivated respectively by voice/control traffic and by file
//! transfer, SSH, HTTP and video. [`SizeDist`] draws payload sizes from a
//! weighted mixture over those classes.

use crate::rng::SimRng;
use rand::Rng;
use wifi_frames::timing::Micros;

/// Maximum MSDU payload carried (bytes); 1472 keeps the full MAC frame at
/// the classic 1500-byte size.
pub const MAX_PAYLOAD: u32 = 2304;

/// A weighted mixture of uniform draws over size ranges (inclusive bounds,
/// in *payload* bytes).
#[derive(Clone, Debug)]
pub struct SizeDist {
    buckets: Vec<(f64, u32, u32)>, // (weight, lo, hi)
    total_weight: f64,
}

impl SizeDist {
    /// Builds a distribution from `(weight, lo, hi)` buckets. Panics if no
    /// bucket has positive weight or a bucket is inverted.
    pub fn new(buckets: Vec<(f64, u32, u32)>) -> SizeDist {
        assert!(!buckets.is_empty(), "at least one bucket");
        let mut total = 0.0;
        for &(w, lo, hi) in &buckets {
            assert!(
                w >= 0.0 && lo <= hi && hi <= MAX_PAYLOAD,
                "bad bucket ({w}, {lo}, {hi})"
            );
            total += w;
        }
        assert!(total > 0.0, "total weight must be positive");
        SizeDist {
            buckets,
            total_weight: total,
        }
    }

    /// A mixture resembling conference traffic: many small frames (TCP ACKs,
    /// SSH keystrokes, VoIP), a solid share of MTU-sized transfers, a thin
    /// middle — matching the paper's observation that S and XL dominate.
    pub fn ietf_mix() -> SizeDist {
        SizeDist::new(vec![
            (0.52, 12, 372),    // S class payloads (frame 40–400 B)
            (0.08, 380, 772),   // M class
            (0.07, 780, 1172),  // L class
            (0.33, 1180, 1472), // XL class, mostly full MTU
        ])
    }

    /// All frames one fixed payload size.
    pub fn fixed(size: u32) -> SizeDist {
        SizeDist::new(vec![(1.0, size, size)])
    }

    /// Draws a payload size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let mut pick = rng.gen_range(0.0..self.total_weight);
        for &(w, lo, hi) in &self.buckets {
            if pick < w {
                return rng.gen_range(lo..=hi);
            }
            pick -= w;
        }
        // Floating-point edge: fall back to the last bucket.
        let &(_, lo, hi) = self.buckets.last().expect("nonempty");
        rng.gen_range(lo..=hi)
    }
}

/// An MSDU arrival process for one direction of one client.
///
/// Arrivals are a compound Poisson process: *events* arrive exponentially
/// and each event delivers a geometric batch of MSDUs (mean
/// [`FlowConfig::mean_batch`]). A batch of 1 is plain Poisson traffic;
/// larger batches model page loads and file-transfer bursts, which make the
/// set of active links in any one second small and variable — the burstiness
/// real conference traffic has.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Mean arrivals per second in *frames* (across batches). Zero disables
    /// the flow.
    pub mean_fps: f64,
    /// Payload-size distribution.
    pub sizes: SizeDist,
    /// Mean frames per arrival event (geometric); 1.0 = plain Poisson.
    pub mean_batch: f64,
}

impl FlowConfig {
    /// A plain Poisson flow.
    pub fn poisson(mean_fps: f64, sizes: SizeDist) -> FlowConfig {
        FlowConfig {
            mean_fps,
            sizes,
            mean_batch: 1.0,
        }
    }

    /// A bursty flow: `mean_fps` frames per second arriving in geometric
    /// batches of mean `mean_batch`.
    pub fn bursty(mean_fps: f64, sizes: SizeDist, mean_batch: f64) -> FlowConfig {
        FlowConfig {
            mean_fps,
            sizes,
            mean_batch: mean_batch.max(1.0),
        }
    }

    /// A disabled flow.
    pub fn off() -> FlowConfig {
        FlowConfig {
            mean_fps: 0.0,
            sizes: SizeDist::fixed(64),
            mean_batch: 1.0,
        }
    }

    /// Draws the gap to the next arrival *event* (exponential inter-arrival
    /// at rate `mean_fps / mean_batch`). Returns `None` if the flow is
    /// disabled.
    pub fn next_gap(&self, rng: &mut SimRng) -> Option<Micros> {
        if self.mean_fps <= 0.0 {
            return None;
        }
        let event_rate = self.mean_fps / self.mean_batch.max(1.0);
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap_s = -u.ln() / event_rate;
        Some((gap_s * 1e6).round().max(1.0) as Micros)
    }

    /// Draws the number of frames delivered by one arrival event
    /// (geometric with mean `mean_batch`, minimum 1).
    pub fn batch_size(&self, rng: &mut SimRng) -> usize {
        if self.mean_batch <= 1.0 {
            return 1;
        }
        // Geometric on {1, 2, ...} with mean m: success prob 1/m.
        let p = 1.0 / self.mean_batch;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (1.0 + (u.ln() / (1.0 - p).ln()).floor()).max(1.0) as usize
    }
}

/// The two flows of a client: uplink (client → AP) and downlink (AP →
/// client, generated at and queued on the AP).
#[derive(Clone, Debug)]
pub struct TrafficProfile {
    /// Client-to-AP flow.
    pub uplink: FlowConfig,
    /// AP-to-client flow.
    pub downlink: FlowConfig,
}

impl TrafficProfile {
    /// Flow `flow` of a client: 0 the uplink, 1 the downlink.
    pub(crate) fn flow(&self, flow: usize) -> &FlowConfig {
        if flow == 0 {
            &self.uplink
        } else {
            &self.downlink
        }
    }

    /// A symmetric profile with the IETF size mix at `fps` frames per second
    /// in each direction.
    pub fn symmetric(fps: f64) -> TrafficProfile {
        TrafficProfile {
            uplink: FlowConfig::poisson(fps, SizeDist::ietf_mix()),
            downlink: FlowConfig::poisson(fps, SizeDist::ietf_mix()),
        }
    }

    /// No traffic (an associated but quiet client).
    pub fn silent() -> TrafficProfile {
        TrafficProfile {
            uplink: FlowConfig::off(),
            downlink: FlowConfig::off(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42, 0)
    }

    #[test]
    fn sizes_stay_in_bucket_union() {
        let d = SizeDist::ietf_mix();
        let mut r = rng();
        for _ in 0..10_000 {
            let s = d.sample(&mut r);
            assert!((12..=1472).contains(&s), "sample {s} out of range");
        }
    }

    #[test]
    fn fixed_dist_is_constant() {
        let d = SizeDist::fixed(777);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 777);
        }
    }

    #[test]
    fn mixture_weights_respected() {
        // Two disjoint buckets at 90/10: the empirical split should be close.
        let d = SizeDist::new(vec![(0.9, 0, 100), (0.1, 1000, 1100)]);
        let mut r = rng();
        let n = 20_000;
        let small = (0..n).filter(|_| d.sample(&mut r) <= 100).count();
        let frac = small as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "bad bucket")]
    fn inverted_bucket_panics() {
        SizeDist::new(vec![(1.0, 100, 50)]);
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn zero_weight_panics() {
        SizeDist::new(vec![(0.0, 0, 10)]);
    }

    #[test]
    fn poisson_gaps_have_right_mean() {
        let f = FlowConfig::poisson(50.0, SizeDist::fixed(100));
        let mut r = rng();
        let n = 50_000;
        let total: u64 = (0..n).map(|_| f.next_gap(&mut r).unwrap()).sum();
        let mean_us = total as f64 / n as f64;
        // Expected 20_000 µs.
        assert!((mean_us - 20_000.0).abs() < 500.0, "mean {mean_us}");
    }

    #[test]
    fn disabled_flow_yields_none() {
        assert!(FlowConfig::off().next_gap(&mut rng()).is_none());
        assert!(TrafficProfile::silent()
            .uplink
            .next_gap(&mut rng())
            .is_none());
    }

    #[test]
    fn gaps_are_at_least_one_microsecond() {
        let f = FlowConfig::poisson(1e9, SizeDist::fixed(1));
        let mut r = rng();
        for _ in 0..1000 {
            assert!(f.next_gap(&mut r).unwrap() >= 1);
        }
    }
}
