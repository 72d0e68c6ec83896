//! Order statistics used by every metric: the median and the tail
//! percentile rule.

/// A latency-style sample summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// The tail value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile the tail was taken at: 99, or the highest percentile
    /// that still has at least [`TAIL_BEYOND`] samples above it when the
    /// sample is too small for p99. 100 (the maximum) below that.
    pub tail_pct: f64,
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The 0-based nearest-rank index of the tail percentile for `n` sorted
/// samples: p99 when at least [`TAIL_BEYOND`] samples lie above it,
/// otherwise the highest rank that still leaves [`TAIL_BEYOND`] above,
/// otherwise the maximum.
fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    let p99 = (n * 99).div_ceil(100) - 1;
    if n - 1 - p99 >= TAIL_BEYOND {
        p99
    } else if n > TAIL_BEYOND {
        n - 1 - TAIL_BEYOND
    } else {
        n - 1
    }
}

/// Summarizes `samples` (any order). An empty sample summarizes to zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary { count: 0, p50: 0.0, p90: 0.0, tail: 0.0, tail_pct: 0.0 };
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let k = tail_index(n);
    Summary {
        count: n,
        p50: s[n.div_ceil(2) - 1],
        p90: s[(n * 9).div_ceil(10) - 1],
        tail: s[k],
        tail_pct: if k == n - 1 { 100.0 } else { 100.0 * (k + 1) as f64 / n as f64 },
    }
}

/// Nearest-rank median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    summarize(v).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 (index 989), exactly 10 above it.
        assert_eq!(tail_index(1000), 989);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.tail, 990.0);
        assert_eq!(sum.tail_pct, 99.0);
        assert_eq!(sum.p50, 500.0);
        assert_eq!(sum.p90, 900.0);
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_supported_percentile() {
        // 500 samples cannot support p99 (only 5 above it): take the rank
        // with exactly 10 above, i.e. p98.
        assert_eq!(tail_index(500), 489);
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.tail, 490.0);
        assert!((sum.tail_pct - 98.0).abs() < 1e-9);
        for n in 11..3000 {
            let k = tail_index(n);
            assert!(n - 1 - k >= TAIL_BEYOND, "n={n}: only {} beyond", n - 1 - k);
            assert!(k < (n * 99).div_ceil(100), "n={n}: never above p99");
        }
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        assert_eq!(tail_index(1), 0);
        assert_eq!(tail_index(10), 9);
        let sum = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((sum.p50, sum.tail, sum.tail_pct), (2.0, 3.0, 100.0));
        assert_eq!(summarize(&[]).count, 0);
    }
}
