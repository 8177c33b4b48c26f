//! Exact order statistics over raw samples. Nothing here buckets: the
//! repo's `obs::LatencyHistogram` moves in 6.25 % steps, which is wider
//! than the bounds this benchmark gates on.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `q` of the samples are ≤ it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len() as u64, q) as usize - 1]
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, q)
}

/// Nearest-rank percentile of `(value, weight)` pairs, each pair standing
/// for `weight` samples of `value` (a tick of `weight` points that all
/// waited `value` for their labels).
pub fn weighted_percentile(pairs: &mut [(f64, u64)], q: f64) -> f64 {
    assert!(!pairs.is_empty(), "percentile of no samples");
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = pairs.iter().map(|p| p.1).sum();
    let target = rank(total, q);
    let mut seen = 0u64;
    for &(value, weight) in pairs.iter() {
        seen += weight;
        if seen >= target {
            return value;
        }
    }
    pairs[pairs.len() - 1].0
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Tail percentiles a report may quote, best first.
const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.50];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples strictly beyond it — quoting a p99 off 300 samples would
/// rest it on three points.
pub fn supported_tail(n: u64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n >= 1 && n - rank(n, q) >= 10)
        .unwrap_or(0.50)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// driver computes spreads from. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Python: j = k*(n+1) // 4 clamped to 1..=n-1, delta = k*(n+1) - 4j.
        let m = k * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Segment-level F1 of `labels` against `truth` (1 = anomalous), pooled
/// over all sessions; rows are compared up to the shorter of the two.
pub fn f1(labels: &[Vec<u8>], truth: &[Vec<u8>]) -> f64 {
    let (mut tp, mut fp, mut fne) = (0u64, 0u64, 0u64);
    for (l, t) in labels.iter().zip(truth) {
        for (&l, &t) in l.iter().zip(t) {
            match (l, t) {
                (1, 1) => tp += 1,
                (1, 0) => fp += 1,
                (0, 1) => fne += 1,
                _ => {}
            }
        }
    }
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fne) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        let mut odd = vec![9.0, 1.0, 5.0];
        assert_eq!(percentile(&mut odd, 0.5), 5.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of n leaves n - ceil(0.99 n) samples beyond it.
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(99), 0.50);
        assert_eq!(supported_tail(20), 0.50);
        assert_eq!(supported_tail(3), 0.50);
    }

    #[test]
    fn weighted_matches_expanded() {
        let mut pairs = vec![(30.0, 1), (10.0, 5), (20.0, 4)];
        let mut expanded: Vec<f64> = pairs
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
            .collect();
        for q in [0.1, 0.5, 0.6, 0.9, 0.95, 1.0] {
            assert_eq!(
                weighted_percentile(&mut pairs, q),
                percentile(&mut expanded, q),
                "q = {q}"
            );
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn f1_counts_segments() {
        let labels = vec![vec![1, 1, 0, 0], vec![0, 1]];
        let truth = vec![vec![1, 0, 1, 0], vec![0, 1]];
        // tp 2, fp 1, fn 1
        assert!((f1(&labels, &truth) - 2.0 * 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(f1(&[vec![0, 0]], &[vec![0, 1]]), 0.0);
    }
}
