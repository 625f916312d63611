//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition, and a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie strictly above its rank:
//! a p99 over 300 samples would be decided by three requests, which is noise
//! dressed up as a tail.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` (0 < p ≤ 100) over `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many samples lie strictly beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The median: the middle sample, or the mean of the middle pair. Unlike a
/// tail percentile it is always reportable from one sample up.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method,
/// which extrapolates past the ends of very small samples). Needs two
/// samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Sort a sample vector ascending (total order, NaN-safe).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(101, 50.0), 51);
        assert_eq!(nearest_rank(1, 99.0), 1);
        assert_eq!(nearest_rank(1000, 99.0), 990);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(percentile(&short, 99.0), None, "9 beyond is not enough");
        assert_eq!(percentile(&short, 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 95.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn sorted_orders_ascending() {
        assert_eq!(sorted(vec![3.0, -1.0, 2.0]), vec![-1.0, 2.0, 3.0]);
    }
}
