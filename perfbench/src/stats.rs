//! Summary statistics and operation accounting for benchmark results.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(f64::midpoint(s[n / 2 - 1], s[n / 2])),
    }
}

/// First and third quartile with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads computed here match those of any Python-side check. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// The percentiles a tail is reported at, lowest first.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// beyond it, with its value: a tail figure resting on a single outlier is
/// noise, so the reported percentile rises with the sample count. `None`
/// when even the median has fewer than ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9)?;
    Some((p, percentile(values, p)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted against operations failed. Timed operations and
/// correctness checks both count: a failed check is a failed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`; returns `ok`.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Counts one correctness check, logging `what` to stderr when it
    /// fails; returns `ok`.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
        self.record(ok)
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// True when at least one operation ran and none failed.
    pub fn all_ok(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([7, 1], n=4) == [-0.5, 4.0, 8.5]
        assert_eq!(quartiles(&[7.0, 1.0]), Some((-0.5, 8.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&v(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&v(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&v(1_000_000)).map(|t| t.0), Some(99.999));
    }

    #[test]
    fn tally_counts_checks_and_failures() {
        let mut t = Tally::default();
        assert!(!t.all_ok(), "nothing attempted is not a pass");
        assert!(t.record(true));
        assert!(!t.check(false, "deliberate"));
        let mut other = Tally::default();
        other.record(true);
        t.absorb(other);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!(!t.all_ok());
        let mut clean = Tally::default();
        clean.record(true);
        assert!(clean.all_ok());
    }
}
