//! Order statistics for timing samples.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps `0.999 * 20000` (19980.000000000004) at rank 19980.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest rank), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// The highest of the tail percentiles p99.9, p99 and p90 that leaves at
/// least ten samples above its rank, as `(percentile, value)`. A tail
/// percentile computed from fewer samples beyond it is one or two
/// outliers, not a percentile, so `None` is returned instead.
pub fn reportable_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [99.9, 99.0, 90.0].into_iter().find_map(|p| {
        let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, nearest_rank(samples, p / 100.0).unwrap_or(0.0)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 0.2), Some(1.0));
        assert_eq!(nearest_rank(&s, 0.21), Some(2.0));
        assert_eq!(nearest_rank(&s, 0.5), Some(3.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(5.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it; p90 has ten.
        assert_eq!(reportable_tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&thousand), Some((99.0, 990.0)));
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(reportable_tail(&many), Some((99.9, 19_980.0)));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(reportable_tail(&few), None);
        assert_eq!(reportable_tail(&[]), None);
    }
}
