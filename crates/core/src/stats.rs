//! The mean ± 95 % confidence-interval aggregation the sweep engine applies
//! across seeds.

use std::fmt;

/// Two-sided 95 % Student-t critical values for 1–30 degrees of freedom;
/// beyond 30 the normal approximation (1.960) is within half a percent.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// A mean with its 95 % confidence half-width — how the sweep engine
/// aggregates a metric across seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanCi {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval (Student-t, so small seed
    /// counts get honestly wide intervals). Zero when `n == 1`.
    pub half_width: f64,
    /// Sample count.
    pub n: usize,
}

impl MeanCi {
    /// Lower bound of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
}

impl fmt::Display for MeanCi {
    /// Formats as `mean ± half_width`, honouring `{:.N}` precision
    /// (default 2).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(2);
        write!(
            f,
            "{:.prec$} ± {:.prec$}",
            self.mean,
            self.half_width,
            prec = prec
        )
    }
}

/// Mean and 95 % confidence half-width of a sample, using the Student-t
/// distribution on `n − 1` degrees of freedom. Returns `None` for an empty
/// sample; a single observation yields a zero-width interval (there is no
/// variance estimate to widen it with).
pub fn mean_ci95(xs: &[f64]) -> Option<MeanCi> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Some(MeanCi {
            mean,
            half_width: 0.0,
            n,
        });
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let t = T_95.get(n - 2).copied().unwrap_or(1.960);
    Some(MeanCi {
        mean,
        half_width: t * (var / n as f64).sqrt(),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_empty_and_single() {
        assert_eq!(mean_ci95(&[]), None);
        let one = mean_ci95(&[3.5]).unwrap();
        assert_eq!(one.mean, 3.5);
        assert_eq!(one.half_width, 0.0);
        assert_eq!(one.n, 1);
        assert_eq!((one.lo(), one.hi()), (3.5, 3.5));
    }

    #[test]
    fn mean_ci_known_small_sample() {
        // {1, 2, 3}: mean 2, s = 1, se = 1/√3, t(df=2) = 4.303.
        let ci = mean_ci95(&[1.0, 2.0, 3.0]).unwrap();
        assert!((ci.mean - 2.0).abs() < 1e-12);
        let expected = 4.303 / 3.0_f64.sqrt();
        assert!((ci.half_width - expected).abs() < 1e-9, "{}", ci.half_width);
        assert!(ci.lo() < 2.0 && ci.hi() > 2.0);
    }

    #[test]
    fn mean_ci_constant_sample_is_tight() {
        let ci = mean_ci95(&[7.0; 10]).unwrap();
        assert_eq!(ci.mean, 7.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn mean_ci_uses_normal_tail_for_large_n() {
        // 100 alternating ±1 around 10: s = 1.00..., se = 0.1, z ≈ 1.96.
        let xs: Vec<f64> = (0..100)
            .map(|i| 10.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ci = mean_ci95(&xs).unwrap();
        assert!((ci.mean - 10.0).abs() < 1e-12);
        assert!((ci.half_width - 1.960 * 1.005_037_815_259_212 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_ci_narrows_with_n() {
        let small = mean_ci95(&[1.0, 2.0, 3.0]).unwrap();
        let xs: Vec<f64> = (0..30).map(|i| 1.0 + (i % 3) as f64).collect();
        let large = mean_ci95(&xs).unwrap();
        assert!(large.half_width < small.half_width);
    }

    #[test]
    fn mean_ci_display_formatting() {
        let ci = mean_ci95(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(format!("{ci:.1}"), "2.0 ± 2.5");
        assert!(format!("{ci}").starts_with("2.00 ± 2.48"));
    }
}
