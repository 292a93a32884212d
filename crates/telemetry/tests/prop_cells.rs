//! Property tests for the telemetry plane's cells and publication.
//!
//! Samples recorded through [`Telemetry`] and published must give
//! *exactly* what a reference computation over the same samples gives:
//! a histogram identical to a plain `Histogram` fed the same values,
//! conserved time and counters, versions that rise by one per publish,
//! and snapshots that never change once handed out.

use std::rc::Rc;

use proptest::prelude::*;

use rolp_metrics::Histogram;
use rolp_telemetry::{Bucket, CounterId, HistId, MetricsSnapshot, Telemetry};

/// Records every sample through all three recording paths: the
/// histogram, the time cells (alternating between a direct `add` and a
/// span-attributed `on_charge`) and a counter.
fn record_all(t: &Telemetry, samples: &[u64]) {
    for (i, &v) in samples.iter().enumerate() {
        t.record(HistId::GcPauseNs, v);
        if i % 2 == 0 {
            t.add(Bucket::GcEvac, v);
        } else {
            let _span = t.span(Bucket::GcEvac);
            t.on_charge(v);
        }
        t.bump(CounterId::GcPauses, 1);
    }
}

fn assert_same_histogram(got: &Histogram, reference: &Histogram) {
    prop_assert_eq!(got.count(), reference.count(), "no lost counts");
    prop_assert_eq!(got.min(), reference.min());
    prop_assert_eq!(got.max(), reference.max());
    prop_assert_eq!(got.sum(), reference.sum());
    prop_assert_eq!(got.mean(), reference.mean());
    for p in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        prop_assert_eq!(got.percentile(p), reference.percentile(p), "p{} diverged", p);
    }
    let ref_buckets: Vec<(u64, u64)> = reference.iter_buckets().collect();
    let got_buckets: Vec<(u64, u64)> = got.iter_buckets().collect();
    prop_assert_eq!(got_buckets, ref_buckets, "bucket-level divergence");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A published snapshot's histogram is identical to a reference
    /// histogram fed the same samples.
    #[test]
    fn published_histogram_equals_reference(
        samples in prop::collection::vec(0u64..4_000_000_000, 1..200),
    ) {
        let mut reference = Histogram::new();
        for &v in &samples {
            reference.record(v);
        }
        let t = Telemetry::new();
        record_all(&t, &samples);
        let snapshot = t.publish(0);
        assert_same_histogram(snapshot.histogram(HistId::GcPauseNs), &reference);
    }

    /// Publishing in several windows conserves time and counters, bumps
    /// the version by one each time, and leaves every earlier snapshot
    /// exactly as it was when published.
    #[test]
    fn windows_conserve_totals_and_held_snapshots_stay_fixed(
        samples in prop::collection::vec(0u64..1_000_000, 1..200),
        windows in 1usize..6,
    ) {
        let t = Telemetry::new();
        let chunk = samples.len().div_ceil(windows);
        let mut held: Vec<(Rc<MetricsSnapshot>, usize)> = Vec::new();
        let mut recorded = 0;
        for (w, part) in samples.chunks(chunk).enumerate() {
            record_all(&t, part);
            recorded += part.len();
            let snapshot = t.publish(w as u64);
            prop_assert_eq!(snapshot.version(), w as u64 + 1);
            prop_assert_eq!(t.load().version(), snapshot.version());
            held.push((snapshot, recorded));
        }
        prop_assert_eq!(t.history().len(), held.len() + 1, "version 0 plus one per publish");

        for (snapshot, n) in &held {
            let prefix = &samples[..*n];
            let mut reference = Histogram::new();
            for &v in prefix {
                reference.record(v);
            }
            prop_assert_eq!(snapshot.time(Bucket::GcEvac), prefix.iter().sum::<u64>());
            prop_assert_eq!(snapshot.time(Bucket::MutatorApp), 0, "span attributed every charge");
            prop_assert_eq!(snapshot.counter(CounterId::GcPauses), *n as u64);
            assert_same_histogram(snapshot.histogram(HistId::GcPauseNs), &reference);
        }
        prop_assert_eq!(t.cells().time(Bucket::GcEvac), samples.iter().sum::<u64>());
        prop_assert_eq!(t.cells().counter(CounterId::GcPauses), samples.len() as u64);
    }
}
