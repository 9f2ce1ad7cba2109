//! Sample statistics: medians and percentiles that refuse thin samples.

/// Fewest samples that must lie beyond a reported percentile (the guide's
/// rule: "the highest percentile that has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Number of samples strictly beyond the `p`-th percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p) - 1
}

/// Zero-based nearest-rank index of the `p`-th percentile among `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=100.0).contains(&p));
    // Integer arithmetic in tenths of a percent: `0.9 * 100.0` must not land
    // a hair above 90 and push the rank up by one.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a tail read off a handful of
/// samples is noise, so the caller must collect more instead.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// Median of a non-empty sample, with no sample-count floor: used for
/// repeated whole-phase timings (set-up, reopen, compact, batch passes)
/// where every repetition does identical work.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so a spread computed here equals the
/// one the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(340), Some(95.0));
        assert_eq!(highest_supported_percentile(1200), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // Only nine samples lie beyond the 91st.
        assert_eq!(percentile(&samples, 91.0), None);
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), Some(20.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(spread(&ten), 1.0);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
