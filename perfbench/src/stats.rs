//! Order statistics, and the parent-versus-change verdicts of `compare`.

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones any outside check computes from the same values. One value is its
/// own quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of the finite `values`; a NaN marks a failed sample and is
    /// left out.
    pub fn of(values: &[f64]) -> Summary {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        let (q1, median, q3) = quartiles(&finite);
        Summary {
            median,
            q1,
            q3,
            n: finite.len(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before a change counts as a regression: a
/// share of the parent's median, floored at an absolute amount.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

impl Bound {
    pub fn allowance(self, parent_median: f64) -> f64 {
        (self.rel * parent_median.abs()).max(self.abs)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs (ten or more) and
    /// its median beats the parent's by more than the parent's own
    /// inter-quartile distance and the bound's absolute floor.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// The parent's own spread is wider than the bound, and the change does
    /// not beat every parent run with every one of its own.
    Unresolved,
    /// Within the bound, and no gain shown.
    Unchanged,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Judges one metric on one workload. `parent[i]` and `change[i]` are the
/// i-th pair of runs, made back to back. A pair with a NaN on either side
/// (a failed sample) is left out on both.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Bound) -> Verdict {
    let (parent, change): (Vec<f64>, Vec<f64>) = parent
        .iter()
        .zip(change)
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .unzip();
    let p = Summary::of(&parent);
    let c = Summary::of(&change);
    // Positive when `b` (the change) reads better than `a` (the parent).
    let gain = |a: f64, b: f64| match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let pairs = parent.len();
    let wins = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) > 0.0)
        .count();
    let improvement = gain(p.median, c.median);
    let iqr = p.q3 - p.q1;
    if pairs >= 10 && wins * 10 >= pairs * 9 && improvement > iqr.max(bound.abs) {
        return Verdict::Gain;
    }
    let allowance = bound.allowance(p.median);
    if -improvement > allowance {
        return Verdict::Regression;
    }
    if iqr > allowance {
        let every_run_better = change
            .iter()
            .all(|&b| parent.iter().all(|&a| gain(a, b) > 0.0));
        if !every_run_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.5, 5.0, 7.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: two values
        // extrapolate.
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!(quartiles(&[]).1.is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_leaves_out_failed_samples() {
        let s = Summary::of(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 10);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    }

    const TEN: Bound = Bound {
        rel: 0.10,
        abs: 0.0,
    };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let a = around(1.0, 0.01);
        assert_eq!(verdict(&a, &a, Better::Lower, TEN), Verdict::Unchanged);
    }

    #[test]
    fn clear_improvement_is_a_gain_in_either_direction() {
        let parent = around(1.0, 0.01);
        let faster = around(0.8, 0.01);
        assert_eq!(verdict(&parent, &faster, Better::Lower, TEN), Verdict::Gain);
        assert_eq!(
            verdict(&faster, &parent, Better::Higher, TEN),
            Verdict::Gain
        );
    }

    #[test]
    fn gain_needs_nine_of_ten_pair_wins() {
        let parent = around(1.0, 0.01);
        let mut change = around(0.8, 0.01);
        change[0] = 2.0;
        change[1] = 2.0; // two lost pairs: 8/10 wins
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::Unchanged
        );
        // Fewer than ten pairs never make a gain.
        assert_eq!(
            verdict(&parent[..5], &around(0.8, 0.01)[..5], Better::Lower, TEN),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_failed_sample_drops_its_pair_on_both_sides() {
        // Eleven rounds, two of them unusual on both sides; the change is
        // 10 % faster in every round, but its third sample failed.
        let mut parent = vec![1.0; 11];
        parent[4] = 2.0;
        parent[8] = 0.5;
        let mut change: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        change[2] = f64::NAN;
        assert_eq!(verdict(&parent, &change, Better::Lower, TEN), Verdict::Gain);
        // Dropping the NaN from the change alone would pair every later
        // change run with the next round's parent run and lose two pairs.
        let shifted: Vec<f64> = change.iter().copied().filter(|v| v.is_finite()).collect();
        assert_eq!(
            verdict(&parent, &shifted, Better::Lower, TEN),
            Verdict::Unchanged
        );
        // Nine pairs left are too few for a gain.
        assert_eq!(
            verdict(&parent[..10], &change[..10], Better::Lower, TEN),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_median_beyond_the_bound_is_a_regression() {
        let parent = around(1.0, 0.01);
        assert_eq!(
            verdict(&parent, &around(1.2, 0.01), Better::Lower, TEN),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&parent, &around(0.8, 0.01), Better::Higher, TEN),
            Verdict::Regression
        );
        // 5 % worse is within a 10 % bound.
        assert_eq!(
            verdict(&parent, &around(1.05, 0.01), Better::Lower, TEN),
            Verdict::Unchanged
        );
    }

    #[test]
    fn absolute_floor_widens_small_bounds() {
        let parent = vec![0.001; 10];
        let change = vec![0.0015; 10];
        let floor = Bound {
            rel: 0.10,
            abs: 0.002,
        };
        assert_eq!(
            verdict(&parent, &change, Better::Lower, floor),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::Regression
        );
        // Nor is a steady improvement under the floor a gain.
        assert_eq!(
            verdict(&change, &parent, Better::Lower, floor),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&change, &parent, Better::Lower, TEN), Verdict::Gain);
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_every_run_is_better() {
        let noisy = around(1.0, 0.4);
        let same = around(1.02, 0.4);
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, TEN),
            Verdict::Unresolved
        );
        // Every change run beats every parent run, but the medians differ by
        // less than the parent's spread: no gain, and not unresolved either.
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * i as f64).collect();
        let change = vec![0.99; 10];
        assert_eq!(
            verdict(
                &parent,
                &change,
                Better::Lower,
                Bound {
                    rel: 0.01,
                    abs: 0.0
                }
            ),
            Verdict::Unchanged
        );
    }
}
