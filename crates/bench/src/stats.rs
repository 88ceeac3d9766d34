//! Summary statistics for the paper experiments.
//!
//! The paper reports boxplot-style distributions (min / 25th / median / 75th /
//! max) for runtimes and view counts (Fig. 3, Fig. 4). [`Summary`] computes
//! those five numbers plus the mean.

use std::fmt;

/// Five-number summary (plus mean) over a sample of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Compute the summary of `values`. Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        Some(Summary {
            n,
            min: v[0],
            p25: percentile_sorted(&v, 0.25),
            median: percentile_sorted(&v, 0.50),
            p75: percentile_sorted(&v, 0.75),
            max: v[n - 1],
            mean,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.3} p25={:.3} med={:.3} p75={:.3} max={:.3} mean={:.3}",
            self.n, self.min, self.p25, self.median, self.p75, self.max, self.mean
        )
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
/// `q` is in `[0, 1]`. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median convenience wrapper over an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.p25 - 1.75).abs() < 1e-12);
        assert!((s.p75 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(median(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(s.min, 7.5);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.max, 7.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [0.0, 10.0];
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
    }

    #[test]
    fn median_odd_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]).unwrap(), 5.0);
    }

    #[test]
    fn display_contains_fields() {
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("med=1.500"));
        assert!(txt.contains("n=2"));
    }
}
