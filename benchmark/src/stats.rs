//! Sample statistics the driver reports: nearest-rank percentiles and
//! the quartile spread the `repeat` mode judges steadiness by.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; 0 when empty.
/// The value returned is always one of the samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of positive values: a change of one of `n` values by a
/// factor `c` moves it by `c^(1/n)`, whichever value it was.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The distance between the first and third quartile as a share of the
/// median — the spread the harness judges steadiness by, with quartiles
/// as Python's `statistics.quantiles(values, n=4)` cuts them. 0 with
/// fewer than two samples or a zero median.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    let m = median(samples);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Clamp first, then measure the offset from the clamped position:
        // at the ends it extrapolates, as Python's exclusive method does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        // The textbook nearest-rank example: ranks ceil(5q).
        assert_eq!(percentile(&s, 0.05), 15.0);
        assert_eq!(percentile(&s, 0.30), 20.0);
        assert_eq!(percentile(&s, 0.40), 20.0);
        assert_eq!(percentile(&s, 0.50), 35.0);
        assert_eq!(percentile(&s, 0.95), 50.0);
        assert_eq!(percentile(&s, 1.00), 50.0);
        // Order of the input does not matter; even counts take the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn geomean_weighs_every_value_alike() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let base = geomean(&[0.007, 0.17, 0.8, 0.018, 0.8, 0.25]);
        let cc_doubled = geomean(&[0.007, 0.17, 0.8, 0.036, 0.8, 0.25]);
        let sssp_doubled = geomean(&[0.007, 0.17, 1.6, 0.018, 0.8, 0.25]);
        assert!((cc_doubled / base - 2f64.powf(1.0 / 6.0)).abs() < 1e-12);
        assert!((sssp_doubled / cc_doubled - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p95_of_a_hundred_is_the_95th_smallest() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; the
        // nearest-rank median of 1..10 is 5.
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&s) - (8.25 - 2.75) / 5.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 9], n=4) == [9.0, 10.0, 11.0].
        assert!((quartile_spread(&[10.0, 11.0, 9.0]) - 0.2).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert!((quartile_spread(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75];
        // the nearest-rank median of those eight is 3.
        let s = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert!((quartile_spread(&s) - (5.75 - 1.25) / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[]), 0.0);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
