//! IEEE 802.11b physical-layer vocabulary: data rates, channels, preambles,
//! and modulation schemes.

use core::fmt;

/// The four IEEE 802.11b (HR/DSSS) data rates.
///
/// Rates are ordered: `R1 < R2 < R5_5 < R11`, which lets rate-adaptation code
/// use comparison operators directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Rate {
    /// 1 Mbps — DBPSK, the basic (mandatory) rate.
    R1,
    /// 2 Mbps — DQPSK.
    R2,
    /// 5.5 Mbps — CCK.
    R5_5,
    /// 11 Mbps — CCK, the highest 802.11b rate.
    R11,
}

impl Rate {
    /// All four rates, slowest first.
    pub const ALL: [Rate; 4] = [Rate::R1, Rate::R2, Rate::R5_5, Rate::R11];

    /// Rate in kilobits per second (exact, avoids the 5.5 fraction).
    pub const fn kbps(self) -> u64 {
        match self {
            Rate::R1 => 1_000,
            Rate::R2 => 2_000,
            Rate::R5_5 => 5_500,
            Rate::R11 => 11_000,
        }
    }

    /// Rate in megabits per second as a float (for reporting only).
    pub fn mbps(self) -> f64 {
        self.kbps() as f64 / 1000.0
    }

    /// Rate in units of 500 kbps, the encoding used by the 802.11
    /// Supported Rates information element and by radiotap.
    pub const fn units_500kbps(self) -> u8 {
        match self {
            Rate::R1 => 2,
            Rate::R2 => 4,
            Rate::R5_5 => 11,
            Rate::R11 => 22,
        }
    }

    /// Decodes the 500 kbps-unit encoding (the basic-rate flag bit 0x80 is
    /// ignored). Returns `None` for rates outside the 802.11b set.
    pub const fn from_units_500kbps(raw: u8) -> Option<Rate> {
        match raw & 0x7f {
            2 => Some(Rate::R1),
            4 => Some(Rate::R2),
            11 => Some(Rate::R5_5),
            22 => Some(Rate::R11),
            _ => None,
        }
    }

    /// The next rate down, or `None` at 1 Mbps.
    pub const fn step_down(self) -> Option<Rate> {
        match self {
            Rate::R1 => None,
            Rate::R2 => Some(Rate::R1),
            Rate::R5_5 => Some(Rate::R2),
            Rate::R11 => Some(Rate::R5_5),
        }
    }

    /// The next rate up, or `None` at 11 Mbps.
    pub const fn step_up(self) -> Option<Rate> {
        match self {
            Rate::R1 => Some(Rate::R2),
            Rate::R2 => Some(Rate::R5_5),
            Rate::R5_5 => Some(Rate::R11),
            Rate::R11 => None,
        }
    }

    /// Index 0..=3 into [`Rate::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Rate::R1 => 0,
            Rate::R2 => 1,
            Rate::R5_5 => 2,
            Rate::R11 => 3,
        }
    }

    /// Minimum SNR (dB) at which this rate is typically decodable, the
    /// threshold model used by the simulator's error model and by SNR-based
    /// rate adaptation. Values follow common 802.11b receiver-sensitivity
    /// deltas (DBPSK needs the least SNR, CCK-11 the most).
    pub const fn min_snr_db(self) -> f64 {
        match self {
            Rate::R1 => 4.0,
            Rate::R2 => 6.0,
            Rate::R5_5 => 8.0,
            Rate::R11 => 10.0,
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rate::R1 => write!(f, "1 Mbps"),
            Rate::R2 => write!(f, "2 Mbps"),
            Rate::R5_5 => write!(f, "5.5 Mbps"),
            Rate::R11 => write!(f, "11 Mbps"),
        }
    }
}

/// An IEEE 802.11b/g 2.4 GHz channel number (1–14).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Channel(u8);

impl Channel {
    /// The three mutually non-overlapping channels used at IETF 62.
    pub const ORTHOGONAL: [Channel; 3] = [Channel(1), Channel(6), Channel(11)];

    /// Creates a channel; `None` unless `1 <= n <= 14`.
    pub const fn new(n: u8) -> Option<Channel> {
        if n >= 1 && n <= 14 {
            Some(Channel(n))
        } else {
            None
        }
    }

    /// The channel number (1–14).
    pub const fn number(self) -> u8 {
        self.0
    }

    /// Center frequency in MHz. Channels 1–13 are spaced 5 MHz starting at
    /// 2412; channel 14 sits apart at 2484.
    pub const fn center_mhz(self) -> u16 {
        if self.0 == 14 {
            2484
        } else {
            2407 + 5 * self.0 as u16
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// PLCP preamble length. 802.11b control frames and Table 2 of the paper
/// assume the long preamble (192 µs); short-preamble support is modelled for
/// completeness and ablations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Preamble {
    /// 144 µs preamble + 48 µs header, both at 1 Mbps: 192 µs total.
    #[default]
    Long,
    /// 72 µs preamble at 1 Mbps + 24 µs header at 2 Mbps: 96 µs total.
    Short,
}

impl Preamble {
    /// Total PLCP preamble + header duration in microseconds.
    pub const fn duration_us(self) -> u64 {
        match self {
            Preamble::Long => 192,
            Preamble::Short => 96,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_ordering_matches_speed() {
        assert!(Rate::R1 < Rate::R2);
        assert!(Rate::R2 < Rate::R5_5);
        assert!(Rate::R5_5 < Rate::R11);
    }

    #[test]
    fn rate_kbps_values() {
        assert_eq!(Rate::R1.kbps(), 1000);
        assert_eq!(Rate::R2.kbps(), 2000);
        assert_eq!(Rate::R5_5.kbps(), 5500);
        assert_eq!(Rate::R11.kbps(), 11000);
    }

    #[test]
    fn rate_500kbps_roundtrip() {
        for r in Rate::ALL {
            assert_eq!(Rate::from_units_500kbps(r.units_500kbps()), Some(r));
            // Basic-rate flag must be ignored.
            assert_eq!(Rate::from_units_500kbps(r.units_500kbps() | 0x80), Some(r));
        }
        assert_eq!(Rate::from_units_500kbps(3), None);
        assert_eq!(Rate::from_units_500kbps(0), None);
    }

    #[test]
    fn rate_stepping_is_a_chain() {
        assert_eq!(Rate::R1.step_down(), None);
        assert_eq!(Rate::R11.step_up(), None);
        let mut r = Rate::R1;
        let mut seen = vec![r];
        while let Some(next) = r.step_up() {
            seen.push(next);
            r = next;
        }
        assert_eq!(seen, Rate::ALL.to_vec());
        let mut r = Rate::R11;
        while let Some(next) = r.step_down() {
            assert!(next < r);
            r = next;
        }
        assert_eq!(r, Rate::R1);
    }

    #[test]
    fn rate_index_matches_all() {
        for (i, r) in Rate::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn min_snr_monotone_in_rate() {
        for pair in Rate::ALL.windows(2) {
            assert!(pair[0].min_snr_db() < pair[1].min_snr_db());
        }
    }

    #[test]
    fn channel_bounds() {
        assert!(Channel::new(0).is_none());
        assert!(Channel::new(15).is_none());
        assert_eq!(Channel::new(1).unwrap().number(), 1);
        assert_eq!(Channel::new(14).unwrap().number(), 14);
    }

    #[test]
    fn channel_frequencies() {
        assert_eq!(Channel::new(1).unwrap().center_mhz(), 2412);
        assert_eq!(Channel::new(6).unwrap().center_mhz(), 2437);
        assert_eq!(Channel::new(11).unwrap().center_mhz(), 2462);
        assert_eq!(Channel::new(13).unwrap().center_mhz(), 2472);
        assert_eq!(Channel::new(14).unwrap().center_mhz(), 2484);
    }

    #[test]
    fn preamble_durations() {
        assert_eq!(Preamble::Long.duration_us(), 192);
        assert_eq!(Preamble::Short.duration_us(), 96);
        assert_eq!(Preamble::default(), Preamble::Long);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Rate::R5_5.to_string(), "5.5 Mbps");
        assert_eq!(Channel::new(6).unwrap().to_string(), "ch6");
    }
}
