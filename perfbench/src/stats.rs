//! Order statistics used by every workload.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return [v, v, v];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Smallest of `values` (NaN when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Samples that must lie strictly above the reported tail value.
pub const TAIL_EXCESS: usize = 10;

/// The 1-based rank of the tail value among `n` sorted samples: the
/// highest that leaves [`TAIL_EXCESS`] samples beyond it, but never below
/// the nearest-rank 90th percentile, so a short op list's tail is still
/// its slow end.
pub fn tail_rank(n: usize) -> usize {
    n.saturating_sub(TAIL_EXCESS).max((n * 9).div_ceil(10))
}

/// The tail of `samples` ([`tail_rank`]) as `(percentile, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return (100.0, f64::NAN);
    }
    let rank = tail_rank(n);
    (100.0 * rank as f64 / n as f64, sorted[rank - 1])
}

/// The nearest-rank `p`-th percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (percentile, value) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_EXCESS);
    }

    #[test]
    fn short_lists_take_the_90th_percentile() {
        let values: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(tail(&values).1, 12.0);
        assert_eq!(tail(&[5.0]).1, 5.0);
        assert_eq!(tail_rank(2000), 1990);
    }
}
