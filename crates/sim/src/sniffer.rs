//! The vicinity-sniffer capture model.
//!
//! Section 4.4 of the paper names three reasons a sniffer misses frames:
//! bit errors, hardware drops under high load, and hidden terminals. All
//! three are modelled here:
//!
//! * **bit errors** — the same SINR-based decode draw every receiver makes;
//! * **hardware drops** — a token bucket bounding sustainable capture rate,
//!   mirroring the PCMCIA-card limits reported by Yeo et al.;
//! * **hidden terminals** — transmitters whose signal falls below the
//!   sniffer's sensitivity are simply never heard (a consequence of
//!   position, not a random draw).

use crate::geometry::Pos;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;

/// Scale on the shadow-fading sigma for links into a sniffer. Sniffers are
/// deliberately sited (elevated, line of sight, diversity antennas), so
/// they ride out crowd shadowing better than the average client link; 1.0
/// would fade like everyone else.
pub const FADE_SCALE: f64 = 0.35;

/// Capture-loss configuration of one sniffer.
#[derive(Clone, Copy, Debug)]
pub struct SnifferConfig {
    /// Sniffer position.
    pub pos: Pos,
    /// Index into the simulator's channel list this sniffer is tuned to.
    pub channel_idx: usize,
    /// Sustainable captures per second before hardware drops kick in.
    pub capacity_fps: f64,
    /// Token-bucket burst (frames).
    pub burst: f64,
}

impl Default for SnifferConfig {
    fn default() -> Self {
        SnifferConfig {
            pos: Pos::default(),
            channel_idx: 0,
            capacity_fps: 2_500.0,
            burst: 250.0,
        }
    }
}

/// Why the sniffer missed a frame (ground-truth bookkeeping the real study
/// could never have — used to validate the unrecorded-frame estimator).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissReason {
    /// Signal below sensitivity: a hidden terminal from the sniffer's seat.
    OutOfRange,
    /// Decode failed on SINR/bit errors (often a collision).
    BitError,
    /// The capture hardware was saturated.
    HardwareDrop,
}

/// Counters of one sniffer's capture performance.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnifferStats {
    /// Frames captured.
    pub captured: u64,
    /// Frames missed: out of range.
    pub missed_range: u64,
    /// Frames missed: bit errors / collisions.
    pub missed_bit_error: u64,
    /// Frames missed: hardware saturation.
    pub missed_hardware: u64,
    /// Subset of bit-error misses with no overlapping transmission (pure
    /// fading/SNR, not collision).
    pub missed_clean: u64,
}

impl SnifferStats {
    /// Total frames that were on this sniffer's channel.
    pub fn total_on_air(&self) -> u64 {
        self.captured + self.missed_range + self.missed_bit_error + self.missed_hardware
    }
}

/// One sniffer: configuration, token bucket, and its trace.
pub struct Sniffer {
    /// Configuration.
    pub config: SnifferConfig,
    tokens: f64,
    last_refill: Micros,
    /// Captured records, in time order.
    pub trace: Vec<FrameRecord>,
    /// Capture counters.
    pub stats: SnifferStats,
}

impl Sniffer {
    /// A new sniffer with a full token bucket.
    pub fn new(config: SnifferConfig) -> Sniffer {
        Sniffer {
            tokens: config.burst,
            last_refill: 0,
            config,
            trace: Vec::new(),
            stats: SnifferStats::default(),
        }
    }

    /// Refills the token bucket up to `now` and tries to take one token.
    /// Returns false when the capture hardware is saturated.
    pub fn try_take_token(&mut self, now: Micros) -> bool {
        let dt_s = (now.saturating_sub(self.last_refill)) as f64 / 1e6;
        self.tokens = (self.tokens + dt_s * self.config.capacity_fps).min(self.config.burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Records a captured frame.
    pub fn capture(&mut self, record: FrameRecord) {
        self.stats.captured += 1;
        self.trace.push(record);
    }

    /// Records a miss.
    pub fn miss(&mut self, reason: MissReason) {
        match reason {
            MissReason::OutOfRange => self.stats.missed_range += 1,
            MissReason::BitError => self.stats.missed_bit_error += 1,
            MissReason::HardwareDrop => self.stats.missed_hardware += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sniffer(capacity_fps: f64, burst: f64) -> Sniffer {
        Sniffer::new(SnifferConfig {
            capacity_fps,
            burst,
            ..SnifferConfig::default()
        })
    }

    #[test]
    fn token_bucket_allows_burst_then_throttles() {
        let mut s = sniffer(100.0, 10.0);
        let mut taken = 0;
        for _ in 0..20 {
            if s.try_take_token(0) {
                taken += 1;
            }
        }
        assert_eq!(taken, 10, "burst bounded by bucket size");
        // After 50 ms, 5 more tokens have accrued.
        let mut more = 0;
        for _ in 0..20 {
            if s.try_take_token(50_000) {
                more += 1;
            }
        }
        assert_eq!(more, 5);
    }

    #[test]
    fn token_bucket_sustains_capacity_rate() {
        let mut s = sniffer(1000.0, 10.0);
        // Offer 2000 fps for one second; expect ~1000 + burst captures.
        let mut ok = 0;
        for i in 0..2000u64 {
            if s.try_take_token(i * 500) {
                ok += 1;
            }
        }
        assert!((1000..=1015).contains(&ok), "captured {ok}");
    }

    #[test]
    fn stats_accumulate_by_reason() {
        let mut s = sniffer(10.0, 1.0);
        s.miss(MissReason::OutOfRange);
        s.miss(MissReason::BitError);
        s.miss(MissReason::BitError);
        s.miss(MissReason::HardwareDrop);
        assert_eq!(s.stats.missed_range, 1);
        assert_eq!(s.stats.missed_bit_error, 2);
        assert_eq!(s.stats.missed_hardware, 1);
        assert_eq!(s.stats.total_on_air(), 4);
    }
}
