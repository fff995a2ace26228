//! Order statistics used throughout the benchmark.

/// Nearest-rank percentile of an ascending-sorted slice; `q` in `(0, 1]`.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1]
}

/// Arrival→terminal latencies over **all started** instances, ascending: an
/// instance with no completion tick counts as `horizon`, so a stall shows in
/// the tail instead of vanishing from the sample.
pub fn latencies_with_unfinished(
    arrivals: impl IntoIterator<Item = (u64, Option<u64>)>,
    horizon: u64,
) -> Vec<u64> {
    let mut out: Vec<u64> = arrivals
        .into_iter()
        .map(|(due, done)| done.map_or(horizon, |t| t.saturating_sub(due)))
        .collect();
    out.sort_unstable();
    out
}

/// Minimum, first quartile, median and third quartile of a host timing
/// sample. Quartiles interpolate linearly at rank k(n+1)/4, clamped to the
/// sample — Python's `statistics.quantiles(values, n=4)` (which the gate
/// applies to the values this benchmark prints) for samples of three or
/// more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    assert!(!values.is_empty(), "spread of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based index, linearly
        // interpolated and clamped to the sample.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Spread {
        min: v[0],
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
    }
}

/// Weighted median of `(value, weight)` pairs: the smallest value at which
/// the values up to it hold at least half of the total weight.
pub fn weighted_median(pairs: &mut [(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "median of an empty sample");
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = pairs.iter().map(|p| p.1).sum::<f64>() / 2.0;
    let mut below = 0.0;
    for &(value, weight) in pairs.iter() {
        below += weight;
        if below >= half {
            return value;
        }
    }
    pairs[pairs.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&[7u64], 0.99), 7);
    }

    #[test]
    fn unfinished_instances_sit_at_the_horizon() {
        // 98 instances finish in 10 ticks, 2 never finish: p50 is unmoved
        // and p99 is the horizon.
        let mut arrivals: Vec<(u64, Option<u64>)> = (0..98).map(|k| (k, Some(k + 10))).collect();
        arrivals.push((5, None));
        arrivals.push((6, None));
        let lat = latencies_with_unfinished(arrivals, 1_000_000);
        assert_eq!(lat.len(), 100);
        assert_eq!(nearest_rank(&lat, 0.50), 10);
        assert_eq!(nearest_rank(&lat, 0.99), 1_000_000);
    }

    #[test]
    fn spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = spread(&[4.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (4.0, 4.0, 4.0, 4.0));
    }

    #[test]
    fn weighted_median_follows_the_weight_not_the_count() {
        // Equal weights: the plain (lower) median.
        assert_eq!(
            weighted_median(&mut [(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]),
            2.0
        );
        // One long stretch outweighs two short ones.
        assert_eq!(
            weighted_median(&mut [(1.0, 1.0), (1.1, 1.0), (1.5, 5.0)]),
            1.5
        );
        assert_eq!(weighted_median(&mut [(7.0, 0.5)]), 7.0);
    }
}
