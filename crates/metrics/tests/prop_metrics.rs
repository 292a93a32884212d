//! Property-based tests for the metrics substrate.

use proptest::prelude::*;
use rolp_metrics::{quantile_sorted, rank_of, Histogram};

proptest! {
    /// Histogram percentiles track exact (sorted) percentiles within the
    /// structure's bounded relative error.
    #[test]
    fn percentiles_track_exact_values(
        mut values in prop::collection::vec(1u64..100_000_000, 1..500),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let exact = quantile_sorted(&values, p / 100.0) as f64;
            let approx = h.percentile(p) as f64;
            // Log-bucketed with 5 precision bits: < 1/32 relative error on
            // the bucket representative (which is a lower bound).
            prop_assert!(approx <= exact + 1.0, "p{p}: approx {approx} > exact {exact}");
            prop_assert!(
                approx >= exact * (1.0 - 1.0 / 32.0) - 1.0,
                "p{p}: approx {approx} too far below exact {exact}"
            );
        }
        prop_assert_eq!(h.max(), *values.last().expect("non-empty"));
        prop_assert_eq!(h.min(), values[0]);
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Every quantile below 1 is the representative of the bucket holding
    /// the nearest-rank observation, clamped up to the recorded minimum;
    /// q = 1 is the exact maximum.
    #[test]
    fn quantiles_match_a_sorted_vector_oracle(
        mut values in prop::collection::vec(any::<u64>().prop_map(|v| v >> (v % 64)), 1..300),
        qs in prop::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let min = values[0];
        for q in qs {
            let rank = rank_of(q, values.len() as u64) as usize;
            let oracle = Histogram::value_of(Histogram::index_of(values[rank - 1])).max(min);
            prop_assert_eq!(h.value_at_quantile(q), oracle, "q {}", q);
        }
        prop_assert_eq!(h.value_at_quantile(1.0), *values.last().expect("non-empty"));
    }

    /// Interval counts always partition the full population, for any
    /// bucket bounds.
    #[test]
    fn interval_counts_partition(
        values in prop::collection::vec(0u64..1_000_000, 0..300),
        mut bounds in prop::collection::vec(0u64..1_000_000, 1..8),
    ) {
        bounds.sort_unstable();
        bounds.dedup();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let counts = h.interval_counts(&bounds);
        prop_assert_eq!(counts.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(counts.len(), bounds.len());
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn merge_is_concatenation(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.min(), hc.min());
        prop_assert_eq!(ha.max(), hc.max());
        for p in [50.0, 95.0, 100.0] {
            prop_assert_eq!(ha.percentile(p), hc.percentile(p));
        }
    }
}
