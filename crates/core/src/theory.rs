//! Analytical 802.11b throughput models the paper leans on.
//!
//! * [`tmt_bps`] — the *Theoretical Maximum Throughput* of Jun, Peddabachagari
//!   and Sichitiu (reference \[11\]), which the paper invokes to call its
//!   4.9 Mbps@84 % observation "closest to the achievable theoretical
//!   maximum": one station, zero contention and loss, each delivery paying
//!   only the fixed overheads (DIFS + PLCP + data + SIFS + ACK).
//! * [`bianchi`] — Bianchi's saturation model (the fixed point the DCF
//!   converges to when `n` stations are permanently backlogged), used here
//!   to validate the simulator's collision probabilities and saturation
//!   throughput against theory (ablation A9).

use wifi_frames::phy::{Preamble, Rate};
use wifi_frames::timing::{dcf, delay, frame_airtime_us};

/// Theoretical maximum throughput (bits per second of MSDU payload) for
/// back-to-back delivery of `payload` -byte frames at `rate`, long preamble,
/// no contention, no loss, no RTS/CTS:
///
/// `cycle = DIFS + T_data + SIFS + T_ack`, `TMT = 8 · payload / cycle`.
pub fn tmt_bps(payload: u32, rate: Rate) -> f64 {
    let t_data = frame_airtime_us((payload + 28) as u64, rate, Preamble::Long);
    let cycle = delay::DIFS + t_data + delay::SIFS + delay::ACK;
    payload as f64 * 8.0 / (cycle as f64 / 1e6)
}

/// TMT including the mean backoff of an idle channel (CWmin/2 slots), the
/// variant usually quoted for a single saturated sender.
pub fn tmt_with_backoff_bps(payload: u32, rate: Rate) -> f64 {
    let t_data = frame_airtime_us((payload + 28) as u64, rate, Preamble::Long);
    let mean_bo = (dcf::CW_MIN as u64 * dcf::SLOT_US) / 2;
    let cycle = delay::DIFS + mean_bo + t_data + delay::SIFS + delay::ACK;
    payload as f64 * 8.0 / (cycle as f64 / 1e6)
}

/// The result of solving Bianchi's saturation fixed point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bianchi {
    /// Per-slot transmission probability of one station.
    pub tau: f64,
    /// Conditional collision probability seen by a transmitting station.
    pub p: f64,
    /// Saturation throughput in bits of payload per second.
    pub throughput_bps: f64,
}

/// Solves Bianchi's model for `n` saturated stations sending fixed
/// `payload`-byte frames at `rate` (basic access, no RTS/CTS), with `m`
/// backoff stages derived from the DCF's CWmin/CWmax ([`dcf`]).
///
/// Fixed point: `tau = 2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m))` with
/// `p = 1 - (1-tau)^(n-1)`, solved by bisection on `p`.
pub fn bianchi(n: usize, payload: u32, rate: Rate) -> Bianchi {
    assert!(n >= 1);
    let w = (dcf::CW_MIN + 1) as f64;
    // Number of doubling stages.
    let m = ((dcf::CW_MAX + 1) as f64 / w).log2().round().max(0.0);

    let tau_of_p = |p: f64| -> f64 {
        if n == 1 {
            return 2.0 / (w + 1.0);
        }
        let num = 2.0 * (1.0 - 2.0 * p);
        let den = (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p).powf(m));
        num / den
    };
    let p_of_tau = |tau: f64| -> f64 { 1.0 - (1.0 - tau).powi(n as i32 - 1) };

    // Bisection on p in [0, 1): f(p) = p_of_tau(tau_of_p(p)) - p is
    // increasing-then-stable; the fixed point is unique.
    let mut lo = 0.0f64;
    let mut hi = 0.999_999f64;
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        let f = p_of_tau(tau_of_p(mid)) - mid;
        if f > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let p = (lo + hi) / 2.0;
    let tau = tau_of_p(p);

    // Slot-time accounting.
    let p_tr = 1.0 - (1.0 - tau).powi(n as i32); // some transmission
    let p_s = if p_tr > 0.0 {
        (n as f64) * tau * (1.0 - tau).powi(n as i32 - 1) / p_tr
    } else {
        0.0
    };
    let t_data = frame_airtime_us((payload + 28) as u64, rate, Preamble::Long) as f64;
    let sigma = dcf::SLOT_US as f64;
    let t_success = delay::DIFS as f64 + t_data + delay::SIFS as f64 + delay::ACK as f64;
    // A collision occupies the channel for the (equal-length) frame plus an
    // ACK-timeout worth of dead air, then a DIFS.
    let t_collision = delay::DIFS as f64 + t_data + delay::SIFS as f64 + delay::ACK as f64;
    let e_slot = (1.0 - p_tr) * sigma + p_tr * p_s * t_success + p_tr * (1.0 - p_s) * t_collision;
    let throughput_bps = if e_slot > 0.0 {
        p_tr * p_s * (payload as f64 * 8.0) / (e_slot / 1e6)
    } else {
        0.0
    };
    Bianchi {
        tau,
        p,
        throughput_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmt_known_values() {
        // 1472-byte payload at 11 Mbps: T_data = 192 + ceil(12000/11) = 1283;
        // cycle = 50 + 1283 + 10 + 304 = 1647 µs; TMT = 11776/1647 µs ≈ 7.15 Mbps.
        let tmt = tmt_bps(1472, Rate::R11);
        assert!((tmt / 1e6 - 7.15).abs() < 0.02, "{tmt}");
        // At 1 Mbps: T_data = 192 + 12000 = 12192; cycle = 12556 µs ≈ 0.938 Mbps.
        let tmt1 = tmt_bps(1472, Rate::R1);
        assert!((tmt1 / 1e6 - 0.938).abs() < 0.01, "{tmt1}");
    }

    #[test]
    fn tmt_monotonicity() {
        // Larger frames amortize overhead; faster rates always win.
        assert!(tmt_bps(1472, Rate::R11) > tmt_bps(100, Rate::R11));
        assert!(tmt_bps(1000, Rate::R11) > tmt_bps(1000, Rate::R5_5));
        assert!(tmt_bps(1000, Rate::R5_5) > tmt_bps(1000, Rate::R2));
        assert!(tmt_bps(1000, Rate::R2) > tmt_bps(1000, Rate::R1));
    }

    #[test]
    fn tmt_with_backoff_is_lower() {
        assert!(tmt_with_backoff_bps(1472, Rate::R11) < tmt_bps(1472, Rate::R11));
    }

    #[test]
    fn bianchi_single_station_has_no_collisions() {
        let b = bianchi(1, 1000, Rate::R11);
        assert!(b.p < 1e-9, "p = {}", b.p);
        assert!(b.throughput_bps > 4e6, "{}", b.throughput_bps);
    }

    #[test]
    fn bianchi_collision_probability_grows_with_n() {
        let mut last_p = 0.0;
        for n in [2, 5, 10, 20, 50, 100] {
            let b = bianchi(n, 1000, Rate::R11);
            assert!(b.p > last_p, "p must grow with n: {} at n={n}", b.p);
            assert!(b.tau > 0.0 && b.tau < 1.0);
            last_p = b.p;
        }
        // The classic regime: tens of percent for tens of stations.
        let b50 = bianchi(50, 1000, Rate::R11);
        assert!(
            (0.3..0.8).contains(&b50.p),
            "n=50 collision probability {}",
            b50.p
        );
    }

    #[test]
    fn bianchi_throughput_declines_gently_with_n() {
        let t2 = bianchi(2, 1472, Rate::R11).throughput_bps;
        let t50 = bianchi(50, 1472, Rate::R11).throughput_bps;
        assert!(t2 > t50, "{t2} vs {t50}");
        // But it does not collapse to zero: DCF stabilizes.
        assert!(t50 > 0.4 * t2, "{t50} vs {t2}");
    }

    #[test]
    fn bianchi_fixed_point_consistency() {
        for n in [2usize, 10, 40] {
            let b = bianchi(n, 800, Rate::R11);
            let p_back = 1.0 - (1.0 - b.tau).powi(n as i32 - 1);
            assert!((p_back - b.p).abs() < 1e-6, "n={n}: {} vs {}", p_back, b.p);
        }
    }

    #[test]
    fn paper_context_tmt_bounds_the_observed_peak() {
        // The paper's 4.9 Mbps at 84 % utilization sits below the 1500-byte
        // 11 Mbps TMT (≈7.1 Mbps) and near a mixed-rate practical ceiling —
        // the sanity relation the paper appeals to.
        assert!(tmt_bps(1472, Rate::R11) > 4.9e6);
        assert!(tmt_with_backoff_bps(1472, Rate::R11) > 4.9e6);
    }
}
