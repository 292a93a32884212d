//! The paper's §7.6 lost-update bound, on real OS threads.
//!
//! Mutator threads bump age-0 cells of the shared OLD table with the
//! unsynchronized increment, and four GC worker threads merge private
//! survivor tables at every pause. The merged histograms must never
//! exceed the single-threaded reference, and must deviate from it by at
//! most the increments the per-epoch reconciliation measured as lost.

use rolp_bench::concurrent::{
    compare_to_reference, run_concurrent, run_reference, ConcurrentConfig,
};

fn config(mutator_threads: usize) -> ConcurrentConfig {
    ConcurrentConfig { mutator_threads, gc_workers: 4, ..ConcurrentConfig::default() }
}

#[test]
fn racing_mutators_stay_within_the_measured_loss() {
    let config = config(4);
    let run = run_concurrent(&config);
    let reference = run_reference(&config);
    let report = compare_to_reference(&run.histograms, &reference.histograms);
    assert!(
        report.within_bound(run.total_lost),
        "deviation {} exceeds measured loss {} (cells exceeding: {})",
        report.total_abs_dev,
        run.total_lost,
        report.cells_exceeding,
    );
}

#[test]
fn one_mutator_thread_is_lossless_and_exact() {
    let config = config(1);
    let run = run_concurrent(&config);
    let reference = run_reference(&config);
    let report = compare_to_reference(&run.histograms, &reference.histograms);
    assert!(report.within_bound(run.total_lost));
    assert_eq!(run.total_lost, 0, "no race with one mutator thread");
    assert_eq!(run.histograms, reference.histograms);
}
