//! IEEE 802.11b timing: the paper's Table 2 delay components, the channel
//! busy-time (CBT) accounting of Section 5.1 (Equations 2–6), and the *real*
//! DCF timing parameters used by the simulator.
//!
//! Two views of time coexist deliberately:
//!
//! * [`delay`] reproduces Table 2 of the paper verbatim. These constants feed
//!   the busy-time *metric*, which charges a fixed DIFS per data frame, a SIFS
//!   before every CTS/ACK, and assumes the average backoff is zero (at least
//!   one station always has an expired backoff timer in a saturated network).
//! * [`dcf`] holds the standard-conformant parameter set (slot time, CWmin,
//!   CWmax, retry limit) that the simulator enforces on the air. The metric
//!   is an *estimator* computed over traffic produced by the real rules —
//!   exactly the situation the paper's sniffers faced.
//!
//! All durations are integer microseconds ([`Micros`]).

use crate::phy::{Preamble, Rate};

/// A duration or timestamp in microseconds. One second = 1_000_000.
pub type Micros = u64;

/// One second, in microseconds — the aggregation interval used throughout the
/// paper's analysis.
pub const SECOND: Micros = 1_000_000;

/// Table 2 of the paper: delay components in microseconds.
pub mod delay {
    use super::Micros;

    /// Distributed Inter-Frame Spacing.
    pub const DIFS: Micros = 50;
    /// Short Inter-Frame Spacing.
    pub const SIFS: Micros = 10;
    /// Air time of an RTS frame (20 bytes at 1 Mbps behind a long preamble).
    pub const RTS: Micros = 352;
    /// Air time of a CTS frame (14 bytes at 1 Mbps behind a long preamble).
    pub const CTS: Micros = 304;
    /// Air time of an ACK frame (identical in size to CTS).
    pub const ACK: Micros = 304;
    /// Air time charged for a beacon frame by the metric.
    pub const BEACON: Micros = 304;
    /// Average backoff charged by the metric: zero, by the saturation
    /// argument of Section 5.1.
    pub const BO: Micros = 0;
    /// PLCP preamble + header at the long preamble (192 µs).
    pub const PLCP: Micros = 192;
}

/// `D_DATA(size)(rate)` from Table 2: the air time in microseconds of a data
/// frame whose *payload* is `size` bytes sent at `rate`.
///
/// The paper's formula is `D_PLCP + 8 * (34 + size) / rate` with `rate` in
/// Mbps; the 34-byte constant covers the MAC overhead the metric attributes
/// to every data frame. Computed exactly in integer arithmetic via the kbps
/// representation, rounding up (a partial microsecond still occupies the
/// channel).
pub const fn data_airtime_us(payload_size: u64, rate: Rate) -> Micros {
    // bits * 1000 / kbps == bits / mbps, kept integral.
    let bits = 8 * (34 + payload_size);
    delay::PLCP + div_ceil_u64(bits * 1000, rate_kbps(rate))
}

const fn rate_kbps(rate: Rate) -> u64 {
    match rate {
        Rate::R1 => 1_000,
        Rate::R2 => 2_000,
        Rate::R5_5 => 5_500,
        Rate::R11 => 11_000,
    }
}

const fn div_ceil_u64(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Air time of an arbitrary MAC frame of `frame_bytes` total bytes (header +
/// body + FCS) at `rate` behind the given preamble. This is the *physical*
/// transmission time the simulator uses, as opposed to the metric's
/// [`data_airtime_us`].
pub const fn frame_airtime_us(frame_bytes: u64, rate: Rate, preamble: Preamble) -> Micros {
    preamble.duration_us() + div_ceil_u64(8 * frame_bytes * 1000, rate_kbps(rate))
}

/// Channel busy-time charged to each frame kind by the paper's metric
/// (Equations 2–6 of Section 5.1).
pub mod cbt {
    use super::{data_airtime_us, delay, Micros};
    use crate::phy::Rate;

    /// Equation 2: `CBT_DATA = D_DIFS + D_DATA(S)(R)`.
    pub const fn data(payload_size: u64, rate: Rate) -> Micros {
        delay::DIFS + data_airtime_us(payload_size, rate)
    }

    /// Equation 3: `CBT_RTS = D_RTS`.
    pub const fn rts() -> Micros {
        delay::RTS
    }

    /// Equation 4: `CBT_CTS = D_SIFS + D_CTS`.
    pub const fn cts() -> Micros {
        delay::SIFS + delay::CTS
    }

    /// Equation 5: `CBT_ACK = D_SIFS + D_ACK`.
    pub const fn ack() -> Micros {
        delay::SIFS + delay::ACK
    }

    /// Equation 6: `CBT_BEACON = D_DIFS + D_BEACON`.
    pub const fn beacon() -> Micros {
        delay::DIFS + delay::BEACON
    }
}

/// The standard-conformant 802.11b DCF parameter set the simulator
/// enforces on the air.
///
/// Note the paper's protocol overview quotes a 10 µs slot and a 255-slot
/// maximum contention window; the 802.11b standard (long-preamble HR/DSSS)
/// specifies a 20 µs slot and CWmax = 1023, and that is what runs here.
pub mod dcf {
    use super::{delay, Micros};

    /// Slot time in microseconds.
    pub const SLOT_US: Micros = 20;
    /// SIFS in microseconds.
    pub const SIFS_US: Micros = 10;
    /// Minimum contention window (slots); the first backoff draws from
    /// `0..=CW_MIN`.
    pub const CW_MIN: u32 = 31;
    /// Maximum contention window (slots).
    pub const CW_MAX: u32 = 1023;
    /// Retry limit of every frame, RTS-protected or not (the standard's
    /// "short retry limit"): an MSDU is dropped after its first attempt
    /// plus this many retries.
    pub const RETRY_LIMIT: u32 = 7;
    /// DIFS = SIFS + 2 × slot.
    pub const DIFS_US: Micros = SIFS_US + 2 * SLOT_US;
    /// EIFS = SIFS + DIFS + ACK-at-lowest-rate; used after a reception error.
    pub const EIFS_US: Micros = SIFS_US + DIFS_US + delay::ACK;

    /// The contention window after `retries` consecutive failures:
    /// `min(CW_MAX, (CW_MIN + 1) * 2^retries - 1)`.
    pub fn cw_after(retries: u32) -> u32 {
        let grown = (CW_MIN as u64 + 1)
            .saturating_mul(1u64 << retries.min(16))
            .saturating_sub(1);
        grown.min(CW_MAX as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        assert_eq!(delay::DIFS, 50);
        assert_eq!(delay::SIFS, 10);
        assert_eq!(delay::RTS, 352);
        assert_eq!(delay::CTS, 304);
        assert_eq!(delay::ACK, 304);
        assert_eq!(delay::BEACON, 304);
        assert_eq!(delay::BO, 0);
        assert_eq!(delay::PLCP, 192);
    }

    #[test]
    fn data_airtime_matches_paper_formula() {
        // 1500-byte payload at 1 Mbps: 192 + 8*1534/1 = 12_464 µs.
        assert_eq!(data_airtime_us(1500, Rate::R1), 12_464);
        // Same at 11 Mbps: 192 + ceil(12272/11) = 192 + 1116 = 1308 µs.
        assert_eq!(data_airtime_us(1500, Rate::R11), 1_308);
        // Zero payload still pays PLCP + overhead bytes.
        assert_eq!(data_airtime_us(0, Rate::R1), 192 + 272);
        // 2 Mbps halves the serialization time of 1 Mbps exactly for even bit
        // counts.
        assert_eq!(data_airtime_us(100, Rate::R2), 192 + (8 * 134) / 2);
    }

    #[test]
    fn data_airtime_rounds_up() {
        // 8*(34+1) = 280 bits at 5.5 Mbps = 50.909.. µs -> 51.
        assert_eq!(data_airtime_us(1, Rate::R5_5), 192 + 51);
    }

    #[test]
    fn table2_control_durations_are_consistent_with_phy() {
        // Table 2's control-frame durations equal the physical air time of the
        // real control frames at 1 Mbps behind a long preamble.
        assert_eq!(frame_airtime_us(20, Rate::R1, Preamble::Long), delay::RTS);
        assert_eq!(frame_airtime_us(14, Rate::R1, Preamble::Long), delay::CTS);
        assert_eq!(frame_airtime_us(14, Rate::R1, Preamble::Long), delay::ACK);
    }

    #[test]
    fn cbt_equations() {
        assert_eq!(cbt::rts(), 352);
        assert_eq!(cbt::cts(), 314);
        assert_eq!(cbt::ack(), 314);
        assert_eq!(cbt::beacon(), 354);
        assert_eq!(cbt::data(1500, Rate::R1), 50 + 12_464);
    }

    #[test]
    fn airtime_monotone_in_size_and_antitone_in_rate() {
        for r in Rate::ALL {
            assert!(data_airtime_us(100, r) < data_airtime_us(1500, r));
        }
        for s in [0u64, 40, 400, 1200, 1500, 2304] {
            assert!(data_airtime_us(s, Rate::R1) > data_airtime_us(s, Rate::R2));
            assert!(data_airtime_us(s, Rate::R2) > data_airtime_us(s, Rate::R5_5));
            assert!(data_airtime_us(s, Rate::R5_5) > data_airtime_us(s, Rate::R11));
        }
    }

    #[test]
    fn dcf_standard_parameters() {
        assert_eq!(dcf::SLOT_US, 20);
        assert_eq!(dcf::DIFS_US, 50);
        assert_eq!(
            dcf::DIFS_US,
            delay::DIFS,
            "Table 2's DIFS is the standard's"
        );
        assert_eq!(dcf::CW_MIN, 31);
        assert_eq!(dcf::CW_MAX, 1023);
    }

    #[test]
    fn contention_window_growth() {
        let d = dcf::cw_after;
        assert_eq!(d(0), 31);
        assert_eq!(d(1), 63);
        assert_eq!(d(2), 127);
        assert_eq!(d(3), 255);
        assert_eq!(d(4), 511);
        assert_eq!(d(5), 1023);
        assert_eq!(d(6), 1023, "clamps at CWmax");
        assert_eq!(d(40), 1023, "no overflow at absurd retry counts");
    }

    #[test]
    fn eifs_is_sifs_difs_and_a_slow_ack() {
        assert_eq!(dcf::EIFS_US, 10 + 50 + 304);
    }
}
