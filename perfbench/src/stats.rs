//! Order statistics shared by every workload.

/// Percentiles a tail figure may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in p * n from adding a rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie above the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Sorts a copy and returns its median (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean of the values left after dropping the lowest and highest
/// fifth (at least one each side when there are five or more).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `count / base`, or 0 when the base is 0.
pub fn ratio(count: f64, base: f64) -> f64 {
    if base > 0.0 {
        count / base
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it, p99.9 only 1.
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        // One short of that and p99 leaves only 9: fall back to p95.
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let slices = [9.0, 1.0, 5.0, 5.0, 6.0, 4.0, 100.0, 5.0, 5.0, 0.0];
        assert_eq!(trimmed_mean(&slices), 5.0);
    }
}
