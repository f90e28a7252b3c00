//! Order statistics the benchmark reports: medians, the supported tail
//! percentile, and the run-to-run spread the acceptance check uses.

/// Fewest samples that must lie beyond a reported tail percentile. A p99
/// over 200 samples is its second-largest value, i.e. noise; the rule
/// lowers the percentile until ten samples lie beyond it.
pub const BEYOND: usize = 10;

/// Sort a sample ascending (NaN-free by construction: every input is a
/// duration or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending sample; `0.0` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank_index(n, q)],
    }
}

fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of an ascending sample.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Median of a sample in any order.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values.to_vec()))
}

/// The highest percentile not above `q` that has at least [`BEYOND`]
/// samples beyond it, as `(value, percentile actually used)`. Never
/// drops below the median, so a tiny sample reports its median.
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, q);
    }
    let wanted = rank_index(n, q);
    let supported = n.saturating_sub(BEYOND + 1);
    let index = wanted.min(supported).max(rank_index(n, 0.5));
    (sorted[index], (index + 1) as f64 / n as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), so the spread printed here is the one the
/// acceptance driver computes. Needs at least two values.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread of one metric: the distance between the first and
/// third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let [q1, q2, q3] = quartiles(&s);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 8000 samples: p99 has 80 beyond it and stands.
        let (v, q) = tail(&ramp(8000), 0.99);
        assert_eq!(v, 7920.0);
        assert!((q - 0.99).abs() < 1e-12);
        // 200 samples: p99 would leave 2 beyond; the rule backs off to the
        // value with exactly ten beyond it.
        let (v, q) = tail(&ramp(200), 0.99);
        assert_eq!(v, 190.0);
        assert!((q - 0.95).abs() < 1e-12);
        // Exactly enough: 1000 samples, p99 leaves ten.
        assert_eq!(tail(&ramp(1000), 0.99).0, 990.0);
        // Too few for any tail: the median.
        assert_eq!(tail(&ramp(9), 0.99).0, 5.0);
        assert_eq!(tail(&[], 0.99).0, 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
