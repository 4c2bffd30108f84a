//! Order statistics and the q-error, as the benchmark reports them.

/// The q-error of one estimate: `max(e/t, t/e)` with both sides clamped to at least one
/// row.  Zeros are handled explicitly: an empty result estimated as empty is exact, and a
/// NaN or zero estimate is read as one row, so a degenerate estimate yields a large but
/// finite error instead of poisoning the percentiles.
pub fn q_error(estimate: f64, truth: u64) -> f64 {
    if truth == 0 && estimate == 0.0 {
        return 1.0;
    }
    let estimate = if estimate.is_nan() {
        1.0
    } else {
        estimate.max(1.0)
    };
    let truth = (truth as f64).max(1.0);
    (estimate / truth).max(truth / estimate)
}

/// The `p`-th percentile (0 ≤ p ≤ 100) of `values` by the nearest-rank rule: the smallest
/// value with at least `p`% of the values at or below it.  `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

/// [`percentile`] of an already ascending slice.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (the mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; 0 for an empty slice (used only for per-layer averages, where an
/// empty slice means the layer did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency percentiles of a run taken window by window: `windows` holds each window's
/// samples, and the result is the median over windows of each window's p50 and p99.  A
/// burst of host noise then moves one window's figures, not the run's.
pub fn windowed_p50_p99<'a>(windows: impl IntoIterator<Item = &'a [f64]>) -> (f64, f64) {
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = windows
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut sorted = w.to_vec();
            sorted.sort_by(f64::total_cmp);
            (
                percentile_of_sorted(&sorted, 50.0).expect("non-empty"),
                percentile_of_sorted(&sorted, 99.0).expect("non-empty"),
            )
        })
        .unzip();
    (median(&p50s).unwrap_or(0.0), median(&p99s).unwrap_or(0.0))
}

/// Consecutive windows of `size` samples; a shorter remainder joins the last window, and
/// fewer than `size` samples make one window.
pub fn windows(samples: &[f64], size: usize) -> Vec<&[f64]> {
    let count = (samples.len() / size.max(1)).max(1);
    (0..count)
        .map(|i| {
            let end = if i + 1 == count {
                samples.len()
            } else {
                (i + 1) * size
            };
            &samples[i * size..end]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(100.0, 10), 10.0);
        assert_eq!(q_error(10.0, 100), 10.0);
        assert_eq!(q_error(42.0, 42), 1.0);
        // Both sides clamp to one row.
        assert_eq!(q_error(0.25, 1), 1.0);
        assert_eq!(q_error(0.5, 8), 8.0);
    }

    #[test]
    fn q_error_handles_zero_counts_and_nan_estimates() {
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(0.0, 50), 50.0);
        assert_eq!(q_error(30.0, 0), 30.0);
        assert_eq!(q_error(f64::NAN, 0), 1.0);
        assert_eq!(q_error(f64::NAN, 20), 20.0);
        assert!(q_error(f64::INFINITY, 5).is_infinite());
    }

    /// The oracle: sort, then index the nearest rank directly.
    fn oracle(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let mut index = 0;
        while ((index + 1) as f64) < p / 100.0 * n as f64 {
            index += 1;
        }
        sorted[index]
    }

    #[test]
    fn percentiles_match_a_sorted_array_oracle() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as f64 / 7.0
                })
                .collect();
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    percentile(&values, p),
                    Some(oracle(&values, p)),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let noisy: Vec<f64> = (1..=100).map(|v| f64::from(v) * 10.0).collect();
        let windows = [calm.as_slice(), noisy.as_slice(), calm.as_slice()];
        assert_eq!(windowed_p50_p99(windows), (50.0, 99.0));
        assert_eq!(windowed_p50_p99([calm.as_slice()]), (50.0, 99.0));
        assert_eq!(windowed_p50_p99(std::iter::empty()), (0.0, 0.0));
    }

    #[test]
    fn windows_fold_the_remainder_into_the_last() {
        let samples: Vec<f64> = (0..7).map(f64::from).collect();
        let lens: Vec<usize> = windows(&samples, 3).iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![3, 4]);
        assert_eq!(windows(&samples, 10).len(), 1);
        assert_eq!(windows(&samples[..6], 3).len(), 2);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
