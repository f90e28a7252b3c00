//! Streaming log-bucketed latency histogram (HDR-style).
//!
//! [`LogHistogram`] records unsigned integer samples (the engine uses
//! microseconds) into a fixed array of logarithmically spaced buckets:
//! each power-of-two range is split into [`SUB_BUCKETS`] sub-buckets, so
//! any quantile estimate is off by at most one sub-bucket width —
//! a relative error bound of `1 / SUB_BUCKETS` = 12.5%. Exact `count`,
//! `sum`, `min`, and `max` are tracked on the side, and quantile answers
//! are clamped into `[min, max]`, so extreme quantiles (p0/p100) are
//! exact and small values (`< SUB_BUCKETS`) land in unit-width buckets
//! and are exact too.
//!
//! The whole structure is ~2.4 KB ([`BUCKET_COUNT`] `u64` counters plus a
//! few scalars), independent of how many samples were recorded — this is
//! what lets `ServiceStats` run for days without growing — and two
//! histograms recorded on different threads [`merge`](LogHistogram::merge)
//! into exactly the histogram a single recorder would have produced.

/// log2 of the number of sub-buckets per power-of-two range.
const SUB_BITS: u32 = 3;

/// Sub-buckets per power-of-two range; the relative quantile error bound
/// is `1 / SUB_BUCKETS`.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Values at or above `2^MAX_EXP` are clamped into the top bucket. At
/// microsecond resolution this is ~12.7 days — far beyond any round.
const MAX_EXP: u32 = 40;

/// Total bucket count: `SUB_BUCKETS` unit-width buckets for values below
/// `SUB_BUCKETS`, then `SUB_BUCKETS` per octave up to `2^MAX_EXP`.
pub const BUCKET_COUNT: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB_BUCKETS;

/// Largest value stored without clamping.
const MAX_VALUE: u64 = (1u64 << MAX_EXP) - 1;

/// Fixed-size streaming histogram with bounded relative error. See the
/// module docs for the error bound and memory model.
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKET_COUNT]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: Box::new([0; BUCKET_COUNT]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `value` (already clamped to `MAX_VALUE`).
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let offset = ((value >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        group * SUB_BUCKETS + offset
    }

    /// Exclusive upper bound of bucket `i`; a recorded sample is strictly
    /// below its bucket's bound.
    fn bucket_upper_bound(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64 + 1;
        }
        let group = (i / SUB_BUCKETS) as u32;
        let offset = (i % SUB_BUCKETS) as u64;
        let shift = group - 1; // msb - SUB_BITS
        (SUB_BUCKETS as u64 + offset + 1) << shift
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let clamped = value.min(MAX_VALUE);
        self.counts[Self::bucket_index(clamped)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold `other` into `self`; equivalent to having recorded both sample
    /// streams into one histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile estimate (`p` in `[0, 1]`). The answer is a
    /// bucket's inclusive upper bound clamped into `[min, max]`, so it is
    /// within `1 / SUB_BUCKETS` relative error of the exact order
    /// statistic (exact for unit-width buckets) — O(buckets), no sample
    /// storage, no sorting.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((Self::bucket_upper_bound(i) - 1).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The raw per-bucket counters, indexed by bucket. The inverse of
    /// [`Self::from_raw_parts`]; together they let a histogram cross a
    /// process boundary bit-for-bit (the `ObsFrame` wire codec).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts[..]
    }

    /// Rebuild a histogram from its raw parts, validating the invariants
    /// [`Self::record`] maintains. Returns `None` (fail-closed) when
    /// `counts` is not exactly [`BUCKET_COUNT`] long, the bucket counters
    /// do not sum to a consistent total, or the min/max/sum scalars are
    /// impossible for that total.
    pub fn from_raw_parts(counts: &[u64], sum: u64, min: u64, max: u64) -> Option<LogHistogram> {
        if counts.len() != BUCKET_COUNT {
            return None;
        }
        let mut total = 0u64;
        for &c in counts {
            total = total.checked_add(c)?;
        }
        if total == 0 {
            if sum != 0 || min != u64::MAX || max != 0 {
                return None;
            }
        } else if min > max {
            return None;
        }
        let mut boxed = Box::new([0u64; BUCKET_COUNT]);
        boxed.copy_from_slice(counts);
        Some(LogHistogram {
            counts: boxed,
            count: total,
            sum,
            min,
            max,
        })
    }

    /// Non-empty buckets as `(exclusive upper bound, cumulative count)` in
    /// ascending order — the shape a Prometheus `le` series needs.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((Self::bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.quantile(0.5))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_answers() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn all_zero_samples_answer_zero_at_every_quantile() {
        // Zero is a real sample (bucket 0, upper bound 1): the nearest-rank
        // walk computes `1 - 1 = 0` and the [min, max] clamp keeps it there
        // — no underflow, no phantom positive latency.
        let mut h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(0);
        }
        assert!(!h.is_empty());
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), Some(0), "p={p}");
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
        assert_eq!(h.sum(), 0);
        // Out-of-range and pathological p values clamp instead of
        // panicking; NaN degrades to the lowest rank.
        assert_eq!(h.quantile(-3.0), Some(0));
        assert_eq!(h.quantile(7.0), Some(0));
        assert_eq!(h.quantile(f64::NAN), Some(0));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        // Unit-width buckets: every quantile of {0..7} is exact.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(7));
        assert_eq!(h.quantile(0.5), Some(3));
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_tight() {
        for i in 1..BUCKET_COUNT {
            assert!(
                LogHistogram::bucket_upper_bound(i) > LogHistogram::bucket_upper_bound(i - 1),
                "bound not monotonic at {i}"
            );
        }
        // Every value maps into a bucket whose inclusive upper bound
        // (what `quantile` reports) exceeds it by at most 12.5%.
        for &v in &[1u64, 7, 8, 9, 100, 1000, 123_456, 10_000_000, MAX_VALUE] {
            let i = LogHistogram::bucket_index(v);
            let ub = LogHistogram::bucket_upper_bound(i);
            assert!(ub > v, "bound {ub} not above {v}");
            let rel = (ub - 1 - v) as f64 / v as f64;
            assert!(rel <= 0.125 + 1e-12, "value {v}: bound {ub}, rel err {rel}");
            if i > 0 {
                assert!(LogHistogram::bucket_upper_bound(i - 1) <= v);
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LogHistogram::new();
        let samples: Vec<u64> = (0..10_000u64).map(|i| i * i % 900_001 + 1).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &p in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let exact = sorted[rank] as f64;
            let est = h.quantile(p).unwrap() as f64;
            assert!(
                (est - exact).abs() / exact <= 0.125 + 1e-12,
                "p={p}: exact {exact}, estimate {est}"
            );
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = LogHistogram::new();
        for v in [13u64, 999, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(13));
        assert_eq!(h.quantile(1.0), Some(1_000_000));
        assert_eq!(h.min(), Some(13));
        assert_eq!(h.max(), Some(1_000_000));
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1_001_012);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for i in 0..500u64 {
            let v = i * 37 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn oversized_values_clamp_into_top_bucket() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(MAX_VALUE + 5);
        assert_eq!(h.count(), 2);
        // max is tracked exactly even though the bucket clamps.
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn cumulative_buckets_sum_to_count() {
        let mut h = LogHistogram::new();
        for v in [3u64, 3, 70, 900, 900, 900, 12_345] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        // Cumulative counts are non-decreasing and end at the total count.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
    }

    #[test]
    fn memory_footprint_is_fixed() {
        // The O(1)-in-rounds claim: bucket array is ~2.4 KB regardless of
        // how many samples were recorded.
        assert_eq!(BUCKET_COUNT, 304);
        assert!(BUCKET_COUNT * std::mem::size_of::<u64>() <= 2560);
        let mut h = LogHistogram::new();
        for i in 0..100_000u64 {
            h.record(i);
        }
        assert_eq!(h.counts.len(), BUCKET_COUNT);
    }

    #[test]
    fn raw_parts_round_trip_bit_for_bit() {
        let mut h = LogHistogram::new();
        for v in [0u64, 3, 70, 900, 12_345, u64::MAX] {
            h.record(v);
        }
        let back = LogHistogram::from_raw_parts(h.bucket_counts(), h.sum(), h.min, h.max).unwrap();
        assert_eq!(back, h);
        // Empty round-trips too.
        let e = LogHistogram::new();
        let back = LogHistogram::from_raw_parts(e.bucket_counts(), 0, u64::MAX, 0).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_inputs() {
        // Wrong length.
        assert!(LogHistogram::from_raw_parts(&[0; 10], 0, u64::MAX, 0).is_none());
        // Empty buckets but non-empty scalars.
        let zeros = [0u64; BUCKET_COUNT];
        assert!(LogHistogram::from_raw_parts(&zeros, 5, u64::MAX, 0).is_none());
        assert!(LogHistogram::from_raw_parts(&zeros, 0, 3, 9).is_none());
        // Non-empty buckets with min > max.
        let mut one = [0u64; BUCKET_COUNT];
        one[0] = 1;
        assert!(LogHistogram::from_raw_parts(&one, 0, 9, 3).is_none());
        // Counter overflow is rejected, not wrapped.
        let mut huge = [0u64; BUCKET_COUNT];
        huge[0] = u64::MAX;
        huge[1] = 1;
        assert!(LogHistogram::from_raw_parts(&huge, 0, 0, 1).is_none());
    }

    #[test]
    fn golden_quantiles_for_round_latencies() {
        // Pinned quantiles of 1/2/3/4 ms rounds, in microseconds.
        let mut h = LogHistogram::new();
        for ms in [1_000u64, 2_000, 3_000, 4_000] {
            h.record(ms);
        }
        assert_eq!(h.quantile(0.5), Some(2_047));
        assert_eq!(h.quantile(0.99), Some(4_000)); // clamped by exact max
    }
}
