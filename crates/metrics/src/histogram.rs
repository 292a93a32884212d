//! Log-bucketed histogram with percentile queries.
//!
//! The paper reports pause times as percentiles (Fig. 8) and as counts per
//! duration interval (Fig. 9). Both views are served by one HDR-style
//! histogram: values are bucketed with a fixed number of sub-buckets per
//! power of two, giving a bounded relative error (< 1/32 with the default
//! 5 precision bits) at O(1) record cost, with storage up to the highest
//! recorded bucket.

/// Number of low-order bits kept exactly within each power-of-two bucket.
const PRECISION_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;

/// A log-bucketed histogram of `u64` values (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// counts[b * SUB_BUCKETS + s] holds values in bucket (b, s). Grows
    /// to the highest index recorded; slots past the end count zero.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering the full `u64` range. It owns
    /// no storage until the first observation.
    pub fn new() -> Self {
        Histogram { counts: Vec::new(), total: 0, min: u64::MAX, max: 0, sum: 0 }
    }

    /// The bucket index `value` maps to. Values below `SUB_BUCKETS` index
    /// themselves; every power of two above that adds `SUB_BUCKETS` slots,
    /// so 60 × 32 = 1,920 slots (at most 15 KB) cover all `u64` values and
    /// `u64::MAX` maps to 1,919.
    pub fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let bucket = 63 - value.leading_zeros();
        let shift = bucket - PRECISION_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((bucket - PRECISION_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Lowest value that maps to the bucket at `index` (the reported
    /// representative for percentile queries).
    pub fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            sub
        } else {
            let shift = (bucket - 1) as u32;
            (SUB_BUCKETS as u64 + sub) << shift
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += *src;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of recorded values (0 if empty).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`.
    ///
    /// Returns the representative (lower bound) of the bucket containing the
    /// `ceil(q * count)`-th observation; the exact max is returned for
    /// `q = 1.0`. Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = crate::stats::rank_of(q, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(idx).max(self.min);
            }
        }
        self.max
    }

    /// Shorthand for `value_at_quantile(p / 100.0)`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.value_at_quantile(p / 100.0)
    }

    /// Counts observations falling into each of the given right-open
    /// intervals `[bounds[i], bounds[i+1])`, plus a final overflow interval
    /// `[bounds.last(), +inf)`.
    ///
    /// This is the Fig. 9 "number of pauses per duration interval" view.
    /// Bucket boundaries are resolved at bucket granularity (each histogram
    /// bucket is assigned to the interval containing its representative).
    pub fn interval_counts(&self, bounds: &[u64]) -> Vec<u64> {
        assert!(!bounds.is_empty(), "need at least one interval bound");
        let mut out = vec![0u64; bounds.len()];
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = Self::value_of(idx);
            // Find the last bound <= v; values below bounds[0] count into
            // the first interval.
            let slot = match bounds.binary_search(&v) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            out[slot] += c;
        }
        out
    }

    /// Iterates `(representative_value, count)` over non-empty buckets.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (Self::value_of(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        // Each small value sits in its own bucket; the median of 0..32 is
        // the 16th smallest observation, which is 15.
        assert_eq!(h.value_at_quantile(0.5), (SUB_BUCKETS / 2 - 1) as u64);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        let v = 1_234_567_890u64;
        h.record(v);
        let got = h.value_at_quantile(0.5);
        let err = (v as f64 - got as f64).abs() / v as f64;
        assert!(err < 1.0 / SUB_BUCKETS as f64, "error {err} too large");
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 37);
        }
        let mut prev = 0;
        for p in [10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p} = {v} < previous {prev}");
            prev = v;
        }
        assert_eq!(h.percentile(100.0), 370_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.99), 0);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero_at_every_point() {
        let h = Histogram::new();
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 0);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 0);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = Histogram::new();
        h.record(123_456_789);
        for p in [0.0, 1.0, 50.0, 99.0, 99.9] {
            // The representative is clamped up to the recorded min, so a
            // lone observation is reported exactly at every percentile.
            assert_eq!(h.percentile(p), 123_456_789, "p{p}");
        }
        assert_eq!(h.percentile(100.0), 123_456_789);
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn saturating_bucket_holds_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
        // Both extreme values land in the last power-of-two bucket; the
        // representative keeps the bounded relative error.
        let p99 = h.percentile(99.0) as f64;
        assert!(p99 >= u64::MAX as f64 * (1.0 - 1.0 / SUB_BUCKETS as f64));
        // Repeated saturating counts do not overflow the bucket tally.
        h.record_n(u64::MAX, 1 << 40);
        assert_eq!(h.count(), 3 + (1 << 40));
        assert_eq!(h.percentile(50.0), h.percentile(90.0));
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn u64_max_maps_to_the_last_slot() {
        assert_eq!(Histogram::index_of(u64::MAX), 1919);
        assert_eq!(Histogram::index_of(u64::MAX - 1), 1919);
    }

    #[test]
    fn empty_histogram_owns_no_storage() {
        let h = Histogram::new();
        assert_eq!(h.counts.len(), 0);
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!(Histogram::default().counts.capacity(), 0);
    }

    #[test]
    fn storage_grows_only_to_the_highest_recorded_bucket() {
        let mut h = Histogram::new();
        for v in (0..1_000u64).step_by(7) {
            h.record(v);
        }
        assert!(h.counts.len() - 1 <= Histogram::index_of(1_000), "len {}", h.counts.len());
        h.record_n(5, 0);
        h.record(3);
        assert_eq!(h.counts.len(), Histogram::index_of(994) + 1, "a lower value never grows it");
    }

    /// `a` merged with `b` must read exactly like one histogram that
    /// recorded both value lists.
    fn assert_merge_matches_union(a: &[u64], b: &[u64]) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut union = Histogram::new();
        for &v in a {
            ha.record(v);
            union.record(v);
        }
        for &v in b {
            hb.record(v);
            union.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), union.count());
        assert_eq!(ha.min(), union.min());
        assert_eq!(ha.max(), union.max());
        assert_eq!(ha.sum(), union.sum());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(ha.value_at_quantile(q), union.value_at_quantile(q), "q{q}");
        }
        let bounds = [0, 50, 1_000, 40_000, 2_000_000];
        assert_eq!(ha.interval_counts(&bounds), union.interval_counts(&bounds));
        assert_eq!(ha.iter_buckets().collect::<Vec<_>>(), union.iter_buckets().collect::<Vec<_>>());
        assert_eq!(ha.counts.len(), union.counts.len());
    }

    #[test]
    fn merge_in_both_directions_equals_the_union() {
        let short = [3u64, 17, 31, 400, 999];
        let long = [5u64, 999, 12_345, 7_000_000, 3_000_000_000];
        // Short into long and long into short.
        assert_merge_matches_union(&long, &short);
        assert_merge_matches_union(&short, &long);
        // An empty side on either end.
        assert_merge_matches_union(&[], &long);
        assert_merge_matches_union(&short, &[]);
    }

    #[test]
    fn interval_counts_partition_all_observations() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 40, 200, 3_000, 3_000, 90_000] {
            h.record(v);
        }
        let counts = h.interval_counts(&[0, 100, 10_000]);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(counts[0], 3); // 1, 5, 40
        assert_eq!(counts[1], 3); // 200, 3000, 3000
        assert_eq!(counts[2], 1); // 90000
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..7 {
            a.record(12345);
        }
        b.record_n(12345, 7);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.percentile(99.0), b.percentile(99.0));
    }
}
