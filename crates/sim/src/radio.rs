//! RF propagation and reception model.
//!
//! * Log-distance path loss (indoor exponent ≈ 3) maps transmit power and
//!   distance to received signal strength.
//! * Reception quality is signal-to-interference-plus-noise (SINR): the sum
//!   of all overlapping transmissions plus the thermal noise floor.
//! * Frame decoding success is a smooth per-rate, per-size probability: a
//!   logistic curve in the SINR margin over the rate's threshold, compounded
//!   per bit — longer frames and faster rates are more fragile, which is the
//!   physical root of the paper's observations about small 11 Mbps frames.

use crate::events::NodeId;
use crate::geometry::Pos;
use wifi_frames::phy::Rate;
use wifi_frames::timing::Micros;

/// Radio-propagation parameters.
#[derive(Clone, Copy, Debug)]
pub struct RadioConfig {
    /// Transmit power of clients and APs, dBm (802.11b cards: 15–20 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, dB.
    pub ref_loss_db: f64,
    /// Log-distance path-loss exponent (≈2 free space, ≈3–3.5 indoors).
    pub pathloss_exp: f64,
    /// Thermal noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Carrier-sense threshold, dBm: transmissions weaker than this at a
    /// listener do not mark the medium busy for it (the source of hidden
    /// terminals).
    pub cs_threshold_dbm: f64,
    /// Receiver sensitivity, dBm: frames weaker than this are inaudible.
    pub sensitivity_dbm: f64,
    /// Pair-coupling floor, dBm: two radios whose *path-loss* RSSI (no
    /// fading) is below this floor do not interact at all — no reception,
    /// no interference contribution, no NAV, no sniffer accounting. At the
    /// default −110 dBm the excluded signals sit ≥ 15 dB under the thermal
    /// noise floor (< 0.14 dB of any SINR denominator), so within one venue
    /// nothing changes; across hundreds of meters it makes RF isolation
    /// *exact*, which is what lets [`crate::shard`] split a scenario into
    /// independently simulable components with bit-identical results.
    pub coupling_floor_dbm: f64,
    /// Slow shadow fading applied per (transmitter, receiver) link on top
    /// of the path loss — bodies and obstacles in a crowded hall.
    pub fading: Fading,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            tx_power_dbm: 15.0,
            ref_loss_db: 40.0,
            pathloss_exp: 3.0,
            noise_floor_dbm: -95.0,
            cs_threshold_dbm: -82.0,
            sensitivity_dbm: -90.0,
            coupling_floor_dbm: -110.0,
            fading: Fading::NONE,
        }
    }
}

/// Slow log-normal shadow fading.
///
/// Each `(transmitter, receiver)` link gets a Gaussian dB offset that is
/// held for one coherence interval and then redrawn — a person stepping
/// into the path attenuates a link for seconds, not per-frame. The offset
/// is a pure hash of `(link, interval, seed)`, so simulations stay
/// deterministic and replayable with no extra RNG state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fading {
    /// Standard deviation of the shadowing term, dB. Zero disables fading.
    pub sigma_db: f64,
    /// How long one fade realization lasts, microseconds.
    pub coherence_us: u64,
    /// Mixed into the hash so different runs fade differently.
    pub seed: u64,
}

impl Fading {
    /// No fading.
    pub const NONE: Fading = Fading {
        sigma_db: 0.0,
        coherence_us: 1,
        seed: 0,
    };

    /// A crowded-hall profile: σ = 8 dB held for ~4 s.
    pub const fn crowded_hall(seed: u64) -> Fading {
        Fading {
            sigma_db: 8.0,
            coherence_us: 4_000_000,
            seed,
        }
    }

    /// The fade (dB, signed) on the link `a → b` at time `now_us`.
    pub fn fade_db(&self, a: u64, b: u64, now_us: u64) -> f64 {
        if self.sigma_db == 0.0 {
            return 0.0;
        }
        let bucket = now_us / self.coherence_us.max(1);
        let h = splitmix64(
            splitmix64(self.seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ bucket,
        );
        // Box–Muller from two 32-bit halves of the hash.
        let u1 = ((h >> 32) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
        let u2 = ((h & 0xFFFF_FFFF) as f64 + 0.5) / (u32::MAX as f64 + 1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        z * self.sigma_db
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fade-key step of one station move. Station keys are build indices
/// below the sniffer link space at `SNIFFER_LINK_BASE = 1 << 40`, so the
/// move count occupies bits ≥ 44, disjoint from both.
const MOVE_KEY_STEP: u64 = 1 << 44;

/// The simulator's slow-fade memo: every receiver, station or sniffer,
/// reads its link fades here.
///
/// [`Fading::fade_db`] is a pure hash of `(link, coherence interval,
/// seed)`, so each directed link pays one Box–Muller draw per coherence
/// interval instead of one per frame, and a hit returns the exact bits a
/// fresh call would compute. Interval boundaries are global (`now /
/// coherence_us`), so one `until` stamp validates both tables instead of a
/// per-entry tag: each entry is one bare `f64`, `NAN` = not drawn this
/// interval (`fade_db` never returns `NAN`).
///
/// A station's fade key is its scenario-global key plus one
/// `MOVE_KEY_STEP` per move: a moved station draws fresh fades on all of its
/// links instead of replaying those memoized for its old position, and a
/// station that never moved keys its links by the bare global key.
pub(crate) struct FadeMemo {
    /// A copy of the simulator's `config.radio.fading`.
    fading: Fading,
    /// Fade key of each station, by node id.
    station_keys: Vec<u64>,
    /// Fade link of each sniffer (`SNIFFER_LINK_BASE + key`), by index.
    sniffer_links: Vec<u64>,
    /// Station-link fades, `[tx * n + rx]`.
    links: Vec<f64>,
    /// Sniffer-link fades, `[sniffer * n + tx]` (unscaled; callers apply
    /// the sniffer's `fade_scale`).
    sniffers: Vec<f64>,
    /// Start of the first coherence interval the tables do not describe.
    until: Micros,
}

impl FadeMemo {
    /// An empty memo for `fading`.
    pub(crate) fn new(fading: Fading) -> FadeMemo {
        FadeMemo {
            fading,
            station_keys: Vec::new(),
            sniffer_links: Vec::new(),
            links: Vec::new(),
            sniffers: Vec::new(),
            until: 0,
        }
    }

    /// Registers the next station (node id = call order) by its global key.
    pub(crate) fn add_station(&mut self, key: u64) {
        self.station_keys.push(key);
    }

    /// Registers the next sniffer by its fade link.
    pub(crate) fn add_sniffer(&mut self, link: u64) {
        self.sniffer_links.push(link);
    }

    /// Sizes both tables for the registered population. A population change
    /// rebuilds them all-`NAN`, as fresh exact-size allocations: incremental
    /// joins would otherwise leave amortized-doubling dead capacity on the
    /// largest allocation in the simulator.
    pub(crate) fn cover(&mut self) {
        let n = self.station_keys.len();
        for (table, len) in [
            (&mut self.links, n * n),
            (&mut self.sniffers, self.sniffer_links.len() * n),
        ] {
            if table.len() != len {
                *table = Vec::new();
                table.reserve_exact(len);
                table.resize(len, f64::NAN);
            }
        }
    }

    /// Forgets both tables when `now` has left the interval they describe.
    #[inline]
    fn refresh(&mut self, now: Micros) {
        if now >= self.until {
            self.links.fill(f64::NAN);
            self.sniffers.fill(f64::NAN);
            let coherence = self.fading.coherence_us.max(1);
            self.until = (now / coherence + 1).saturating_mul(coherence);
        }
    }

    /// The fade (dB) of the station link `tx → rx` at `now`.
    #[inline]
    pub(crate) fn link(&mut self, tx: NodeId, rx: NodeId, now: Micros) -> f64 {
        if self.fading.sigma_db == 0.0 {
            return 0.0;
        }
        self.refresh(now);
        let n = self.station_keys.len();
        let slot = &mut self.links[tx * n + rx];
        if slot.is_nan() {
            *slot = self
                .fading
                .fade_db(self.station_keys[tx], self.station_keys[rx], now);
        }
        *slot
    }

    /// The fade (dB, unscaled) of station `tx` at sniffer `s` at `now`.
    #[inline]
    pub(crate) fn sniffer(&mut self, s: usize, tx: NodeId, now: Micros) -> f64 {
        if self.fading.sigma_db == 0.0 {
            return 0.0;
        }
        self.refresh(now);
        let n = self.station_keys.len();
        let slot = &mut self.sniffers[s * n + tx];
        if slot.is_nan() {
            *slot = self
                .fading
                .fade_db(self.station_keys[tx], self.sniffer_links[s], now);
        }
        *slot
    }

    /// Station `node` moved: its links take fresh fades. Exactly its row
    /// and column of the link table, and its column of the sniffer table,
    /// are forgotten; every other memoized fade in the interval stays
    /// valid. Tables not yet sized by [`Self::cover`] start all-`NAN`.
    pub(crate) fn moved(&mut self, node: NodeId) {
        self.station_keys[node] = self.station_keys[node].wrapping_add(MOVE_KEY_STEP);
        let n = self.station_keys.len();
        if self.links.len() == n * n {
            self.links[node * n..(node + 1) * n].fill(f64::NAN);
            for rx in 0..n {
                self.links[rx * n + node] = f64::NAN;
            }
        }
        if self.sniffers.len() == self.sniffer_links.len() * n {
            for s in 0..self.sniffer_links.len() {
                self.sniffers[s * n + node] = f64::NAN;
            }
        }
    }
}

impl RadioConfig {
    /// The coupling floor actually applied: `coupling_floor_dbm` clamped
    /// under both the carrier-sense threshold and the receiver sensitivity,
    /// so every pair that could carrier-sense or decode one another is
    /// guaranteed to count as coupled — the invariant the shard planner's
    /// connected components rest on.
    pub fn effective_coupling_floor_dbm(&self) -> f64 {
        self.coupling_floor_dbm
            .min(self.cs_threshold_dbm)
            .min(self.sensitivity_dbm)
    }

    /// Received signal strength at `rx` for a transmitter at `tx`, dBm.
    /// Distances below 1 m clamp to the reference loss.
    pub fn rssi_dbm(&self, tx: Pos, rx: Pos) -> f64 {
        let d = tx.distance_to(rx).max(1.0);
        self.tx_power_dbm - self.ref_loss_db - 10.0 * self.pathloss_exp * d.log10()
    }

    /// The distance (meters) at which RSSI falls to `level_dbm` — handy for
    /// sizing scenarios (e.g. placing a hidden terminal outside carrier-sense
    /// range but inside interference range of a receiver).
    pub fn range_at_dbm(&self, level_dbm: f64) -> f64 {
        let loss = self.tx_power_dbm - self.ref_loss_db - level_dbm;
        10f64.powf(loss / (10.0 * self.pathloss_exp))
    }
}

/// Sums powers expressed in dBm, returning dBm.
pub fn sum_dbm(levels: impl IntoIterator<Item = f64>) -> f64 {
    let mw: f64 = levels.into_iter().map(|l| 10f64.powf(l / 10.0)).sum();
    if mw <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * mw.log10()
    }
}

/// SINR in dB: `signal` against the power sum of `interferers` and the
/// noise floor, with despreading credit: DSSS processing gain suppresses
/// *interference* (not thermal noise) by `processing_gain_db`. The 11-chip
/// Barker code of the 1 and 2 Mbps rates rejects ≈10.4 dB of co-channel
/// interference — the physical reason slow frames survive collisions that
/// destroy CCK frames, and a key ingredient of the paper's observation that
/// 1 Mbps traffic keeps flowing (and keeps being captured) under congestion.
pub fn effective_sinr_db(
    signal_dbm: f64,
    interferers_dbm: &[f64],
    noise_floor_dbm: f64,
    processing_gain_db: f64,
) -> f64 {
    let denom = sum_dbm(
        interferers_dbm
            .iter()
            .map(|i| i - processing_gain_db)
            .chain(std::iter::once(noise_floor_dbm)),
    );
    signal_dbm - denom
}

/// Interference-rejection (despreading) gain of each 802.11b rate, dB.
pub fn processing_gain_db(rate: Rate) -> f64 {
    match rate {
        Rate::R1 => 10.4,  // 11-chip Barker
        Rate::R2 => 7.4,   // Barker, 2 bits/symbol
        Rate::R5_5 => 2.0, // CCK-4
        Rate::R11 => 0.7,  // CCK-8
    }
}

/// Frame-decoding model.
#[derive(Clone, Copy, Debug)]
pub struct ErrorModel {
    /// Logistic steepness: dB of SINR margin per e-fold of per-bit odds.
    pub steepness_db: f64,
    /// Reference frame size (bytes) at which the rate-threshold SNRs of
    /// [`Rate::min_snr_db`] give 50 % frame success.
    pub ref_bytes: f64,
}

impl Default for ErrorModel {
    fn default() -> Self {
        ErrorModel {
            steepness_db: 1.5,
            ref_bytes: 1024.0,
        }
    }
}

impl ErrorModel {
    /// Probability that a frame of `bytes` bytes at `rate` decodes at the
    /// given SINR.
    ///
    /// A logistic per-bit success probability is compounded over the frame
    /// length, normalized so that at `sinr == rate.min_snr_db()` a
    /// `ref_bytes`-byte frame succeeds 50 % of the time. The model has the
    /// two monotonicities that drive the paper's findings: success falls
    /// with frame size and rises with SINR margin, and a slower rate buys
    /// margin.
    pub fn frame_success_prob(&self, sinr_db: f64, rate: Rate, bytes: u32) -> f64 {
        let margin = sinr_db - rate.min_snr_db();
        // Per-bit success from a logistic in the margin. At margin 0 the
        // per-bit success is tuned so p_ref = 0.5 for ref_bytes.
        let bits_ref = self.ref_bytes * 8.0;
        // p_bit(0)^bits_ref = 0.5  =>  ln p_bit(0) = ln 0.5 / bits_ref.
        let ln_pbit_at_zero = 0.5f64.ln() / bits_ref;
        // Scale the per-bit log-failure by a logistic factor in the margin:
        // large positive margin -> factor -> 0 (no errors); large negative ->
        // factor grows -> certain loss.
        let factor = (-margin / self.steepness_db).exp();
        let ln_pbit = ln_pbit_at_zero * factor;
        let bits = bytes as f64 * 8.0;
        (ln_pbit * bits).exp().clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fading_is_deterministic_and_bucketed() {
        let f = Fading::crowded_hall(42);
        let a = f.fade_db(1, 2, 100);
        assert_eq!(a, f.fade_db(1, 2, 100), "pure function of inputs");
        assert_eq!(
            a,
            f.fade_db(1, 2, 3_999_999),
            "same coherence bucket, same fade"
        );
        assert_ne!(a, f.fade_db(1, 2, 4_000_001), "next bucket re-draws");
        assert_ne!(
            a,
            f.fade_db(2, 1, 100),
            "directional links fade independently"
        );
        assert_eq!(Fading::NONE.fade_db(1, 2, 100), 0.0);
    }

    /// Every memoized fade equals a direct `fade_db` draw on the station's
    /// moved key, across coherence boundaries and interleaved moves.
    #[test]
    fn fade_memo_matches_direct_draws() {
        const BASE: u64 = crate::sim::SNIFFER_LINK_BASE;
        let keys = [3u64, 0, 7, 12];
        let sniffer_ids = [0u64, 5];
        for fading in [
            Fading {
                sigma_db: 8.0,
                coherence_us: 1_000,
                seed: 9,
            },
            Fading::NONE,
        ] {
            let mut memo = FadeMemo::new(fading);
            for &k in &keys {
                memo.add_station(k);
            }
            for &k in &sniffer_ids {
                memo.add_sniffer(BASE + k);
            }
            memo.cover();
            let mut moves = [0u64; 4];
            let mut now = 0;
            for step in 0u64..40 {
                // Steps of 0–699 µs: several lookups per interval, and
                // each boundary crossed both exactly and in passing.
                now += (step * 263) % 700;
                // Check every link, then (every seventh step) move one
                // station and check again inside the same interval.
                let rounds = if step % 7 == 3 { 2 } else { 1 };
                for round in 0..rounds {
                    if round == 1 {
                        let node = (step as usize / 7) % keys.len();
                        memo.moved(node);
                        moves[node] += 1;
                    }
                    let key = |i: usize| keys[i] ^ (moves[i] << 44);
                    for tx in 0..keys.len() {
                        for rx in 0..keys.len() {
                            let want = fading.fade_db(key(tx), key(rx), now);
                            let got = memo.link(tx, rx, now);
                            assert_eq!(got.to_bits(), want.to_bits(), "{tx}->{rx} @ {now}");
                        }
                        for (s, &k) in sniffer_ids.iter().enumerate() {
                            let want = fading.fade_db(key(tx), BASE + k, now);
                            let got = memo.sniffer(s, tx, now);
                            assert_eq!(got.to_bits(), want.to_bits(), "{tx}->s{s} @ {now}");
                        }
                    }
                }
            }
            if fading.sigma_db == 0.0 {
                assert_eq!(memo.link(0, 1, now), 0.0);
                assert_eq!(memo.sniffer(1, 2, now), 0.0);
            }
        }
    }

    #[test]
    fn fading_distribution_is_roughly_gaussian() {
        let f = Fading {
            sigma_db: 6.0,
            coherence_us: 1,
            seed: 7,
        };
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| f.fade_db(i, i + 1, 0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.3, "std {}", var.sqrt());
    }

    #[test]
    fn rssi_falls_with_distance() {
        let r = RadioConfig::default();
        let tx = Pos::new(0.0, 0.0);
        let near = r.rssi_dbm(tx, Pos::new(1.0, 0.0));
        let mid = r.rssi_dbm(tx, Pos::new(10.0, 0.0));
        let far = r.rssi_dbm(tx, Pos::new(100.0, 0.0));
        assert!(near > mid && mid > far);
        // 15 - 40 = -25 dBm at 1 m; -55 at 10 m with exponent 3.
        assert!((near - -25.0).abs() < 1e-9);
        assert!((mid - -55.0).abs() < 1e-9);
    }

    #[test]
    fn sub_meter_clamps() {
        let r = RadioConfig::default();
        let a = r.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(0.1, 0.0));
        let b = r.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(1.0, 0.0));
        assert_eq!(a, b);
    }

    #[test]
    fn range_inverts_rssi() {
        let r = RadioConfig::default();
        for level in [-62.0, -82.0, -90.0] {
            let d = r.range_at_dbm(level);
            let back = r.rssi_dbm(Pos::new(0.0, 0.0), Pos::new(d, 0.0));
            assert!((back - level).abs() < 1e-6, "level {level}: {back}");
        }
    }

    #[test]
    fn power_sum_dominated_by_strongest() {
        let s = sum_dbm([-50.0, -90.0]);
        assert!(s > -50.0 && s < -49.9);
        // Two equal powers add 3 dB.
        let s = sum_dbm([-60.0, -60.0]);
        assert!((s - -56.989_7).abs() < 1e-3);
        assert_eq!(sum_dbm([]), f64::NEG_INFINITY);
    }

    #[test]
    fn sinr_against_noise_only() {
        let s = effective_sinr_db(-60.0, &[], -95.0, 0.0);
        assert!((s - 35.0).abs() < 1e-9);
    }

    #[test]
    fn sinr_collision_crushes_margin() {
        // An equal-power interferer puts SINR at ~0 dB: undecodable at any
        // 802.11b rate.
        let s = effective_sinr_db(-60.0, &[-60.0], -95.0, 0.0);
        assert!(s < 0.1);
    }

    #[test]
    fn success_monotone_in_sinr() {
        let m = ErrorModel::default();
        let mut last = 0.0;
        for snr in [0.0, 4.0, 8.0, 12.0, 16.0, 24.0, 40.0] {
            let p = m.frame_success_prob(snr, Rate::R11, 1024);
            assert!(p >= last, "p({snr}) = {p} < {last}");
            last = p;
        }
        assert!(last > 0.999);
    }

    #[test]
    fn success_falls_with_size() {
        let m = ErrorModel::default();
        let snr = 11.0;
        let small = m.frame_success_prob(snr, Rate::R11, 100);
        let large = m.frame_success_prob(snr, Rate::R11, 1500);
        assert!(small > large);
    }

    #[test]
    fn slower_rate_buys_reliability() {
        let m = ErrorModel::default();
        let snr = 8.0; // marginal for 11 Mbps, comfortable for 1 Mbps
        let p11 = m.frame_success_prob(snr, Rate::R11, 800);
        let p1 = m.frame_success_prob(snr, Rate::R1, 800);
        assert!(p1 > p11 + 0.2, "p1={p1} p11={p11}");
    }

    #[test]
    fn half_success_at_threshold_for_ref_size() {
        let m = ErrorModel::default();
        for rate in Rate::ALL {
            let p = m.frame_success_prob(rate.min_snr_db(), rate, 1024);
            assert!((p - 0.5).abs() < 1e-6, "{rate}: {p}");
        }
    }

    #[test]
    fn deep_fade_is_certain_loss() {
        let m = ErrorModel::default();
        let p = m.frame_success_prob(-10.0, Rate::R1, 1500);
        assert!(p < 1e-6);
    }
}
