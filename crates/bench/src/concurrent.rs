//! Real-thread concurrency harness: mutator threads racing on the shared
//! OLD table, GC workers with private tables, and the safepoint merge.
//!
//! This module is where the paper's §5.2/§7.6 concurrency story stops
//! being simulated and actually runs on OS threads:
//!
//! 1. **Mutator epochs.** `mutator_threads` OS threads each replay a
//!    seed-deterministic allocation schedule against one
//!    [`SharedOldTable`], bumping age-0 cells with the unsynchronized
//!    relaxed increment. Joining the threads is the safepoint that ends
//!    the epoch.
//! 2. **Reconciliation.** At each safepoint the coordinator compares the
//!    exact per-thread allocation tallies against the age-0 counts that
//!    actually landed in the table — the difference is the *measured*
//!    §7.6 increment loss ([`EpochReconciliation`]), replacing the old
//!    `loss_probability` simulation.
//! 3. **Parallel GC pause.** `gc_workers` worker threads claim chunks
//!    of the live-object list from a shared cursor, buffer survivor age
//!    moves into private [`WorkerTable`]s, and return them to the
//!    coordinator from the scope join, as the mutator phase does. The
//!    coordinator merges all records **sorted by `(context, age)`**, so
//!    the merged histograms are identical no matter how the chunk race
//!    distributed work.
//! 4. **Loss bound.** [`run_reference`] replays the same schedules on the
//!    exact single-threaded [`OldTable`]; [`compare_to_reference`] checks
//!    the §7.6 bound: every parallel cell ≤ its reference cell, and the
//!    total deviation ≤ the reconciliation-reported loss. (Lost
//!    increments only *remove* age-0 counts, and the survival pipeline's
//!    saturating decrements can only shrink — never grow — a deficit, so
//!    the bound is exact.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rolp::context::pack;
use rolp::{OldTable, TableGeometry, WorkerTable, AGE_COLUMNS};

use crate::shared_table::SharedOldTable;

/// Shape of a concurrent profiling run.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Application (mutator) OS threads.
    pub mutator_threads: usize,
    /// GC worker OS threads per pause.
    pub gc_workers: usize,
    /// Mutator-phase + GC-pause rounds.
    pub epochs: usize,
    /// Allocations per mutator thread per epoch.
    pub allocs_per_thread_per_epoch: usize,
    /// Allocation-site ids drawn from `1..=sites`.
    pub sites: u16,
    /// Thread-stack-state values drawn from `0..tss_values`.
    pub tss_values: u16,
    /// Maximum GC pauses an object survives (`dies_after` is drawn
    /// from `0..=max_survivals`).
    pub max_survivals: u8,
    /// Sites given private expansion blocks up front (so the run
    /// exercises both aliased and expanded rows).
    pub expand_sites: Vec<u16>,
    /// Shared-table geometry (power of two; must exceed `sites` so
    /// masking never aliases distinct sites).
    pub site_rows: usize,
    /// Expansion-block rows (power of two; must exceed `tss_values`).
    pub tss_rows: usize,
    /// Seed for the deterministic allocation schedules.
    pub seed: u64,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            mutator_threads: 4,
            gc_workers: 4,
            epochs: 8,
            allocs_per_thread_per_epoch: 5_000,
            sites: 200,
            tss_values: 48,
            max_survivals: 4,
            expand_sites: vec![3, 7, 11],
            site_rows: 1 << 10,
            tss_rows: 64,
            seed: 0xEC0_5E19,
        }
    }
}

impl ConcurrentConfig {
    fn validate(&self) {
        assert!(self.mutator_threads >= 1 && self.gc_workers >= 1);
        assert!(
            (self.sites as usize) < self.site_rows,
            "sites must fit the table geometry without aliasing"
        );
        assert!((self.tss_values as usize) <= self.tss_rows);
    }
}

/// One scheduled allocation: the context it goes through and how many
/// GC pauses it survives.
#[derive(Debug, Clone, Copy)]
struct LiveObj {
    context: u32,
    age: u8,
    dies_after: u8,
}

/// A mutator thread's allocation schedule for one epoch — a pure
/// function of `(seed, thread, epoch)`, so the concurrent run and the
/// single-threaded reference replay byte-identical workloads.
fn thread_schedule(config: &ConcurrentConfig, thread: usize, epoch: usize) -> Vec<LiveObj> {
    let mix = config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((thread as u64) << 32)
        .wrapping_add(epoch as u64);
    let mut rng = StdRng::seed_from_u64(mix);
    (0..config.allocs_per_thread_per_epoch)
        .map(|_| LiveObj {
            context: pack(rng.gen_range(1..=config.sites), rng.gen_range(0..config.tss_values)),
            age: 0,
            dies_after: rng.gen_range(0..=config.max_survivals),
        })
        .collect()
}

/// The safepoint ledger for one epoch: what the mutators meant to
/// record vs. what survived the unsynchronized increments (§7.6).
#[derive(Debug, Clone, Copy)]
pub struct EpochReconciliation {
    /// Epoch index.
    pub epoch: usize,
    /// Σ of exact per-thread allocation counters.
    pub intended: u64,
    /// Age-0 counts that actually landed in the shared table.
    pub recorded: u64,
    /// `intended - recorded`: increments lost to the race.
    pub lost: u64,
}

/// What one safepoint merge of per-worker tables applied (§5.2).
#[derive(Debug, Clone, Default)]
pub struct MergeSummary {
    /// Records each worker contributed, in worker-index order.
    pub per_worker: Vec<u64>,
    /// Total records merged this safepoint.
    pub total: u64,
}

/// Merges (and drains) every worker's private table into the shared
/// table **sorted by `(context, age)`**, the order
/// [`OldTable::merge_survivals`] applies, so the merged histograms do not
/// depend on how the chunk race distributed survivor work.
fn merge_worker_tables(workers: &mut [WorkerTable], table: &SharedOldTable) -> MergeSummary {
    let mut summary = MergeSummary::default();
    let mut records: Vec<(u32, u8)> = Vec::new();
    for worker in workers.iter_mut() {
        let entries = worker.drain_entries();
        summary.per_worker.push(entries.len() as u64);
        summary.total += entries.len() as u64;
        records.extend(entries);
    }
    records.sort_unstable();
    for (context, age) in records {
        table.record_survival(context, age);
    }
    summary
}

/// Everything a concurrent run produced.
#[derive(Debug)]
pub struct ConcurrentRunResult {
    /// Final merged histograms, keyed by row key.
    pub histograms: BTreeMap<u32, [u32; AGE_COLUMNS]>,
    /// Per-epoch measured increment loss.
    pub reconciliations: Vec<EpochReconciliation>,
    /// Σ lost across epochs — the §7.6 deviation bound.
    pub total_lost: u64,
    /// Σ intended across epochs.
    pub total_intended: u64,
    /// Per-pause merge summaries (worker record counts).
    pub merges: Vec<MergeSummary>,
}

/// Runs the full concurrent pipeline on a [`SharedOldTable`]: real
/// mutator threads, real GC worker threads, safepoint merges,
/// per-epoch reconciliation.
pub fn run_concurrent(config: &ConcurrentConfig) -> ConcurrentRunResult {
    config.validate();
    let table =
        SharedOldTable::with_geometry(TableGeometry::new(config.site_rows, config.tss_rows));
    for &site in &config.expand_sites {
        table.expand_site(site);
    }

    let mut live: Vec<LiveObj> = Vec::new();
    let mut reconciliations = Vec::new();
    let mut merges = Vec::new();
    let mut total_lost = 0u64;
    let mut total_intended = 0u64;
    let mut age0_baseline = 0u64;

    for epoch in 0..config.epochs {
        // Mutator phase: each thread replays its schedule with the
        // racy age-0 increment and returns (allocations, exact tally).
        // The scope join is the safepoint: it gives the coordinator a
        // happens-before edge over every mutator store.
        let per_thread: Vec<(Vec<LiveObj>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.mutator_threads)
                .map(|t| {
                    let table = &table;
                    s.spawn(move || {
                        let schedule = thread_schedule(config, t, epoch);
                        let mut exact = 0u64;
                        for obj in &schedule {
                            table.record_allocation(obj.context);
                            exact += 1;
                        }
                        (schedule, exact)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("mutator panicked")).collect()
        });

        // Reconciliation: exact tallies vs. what landed in age 0.
        let intended: u64 = per_thread.iter().map(|(_, exact)| exact).sum();
        let recorded = table.age0_total().saturating_sub(age0_baseline);
        let lost = intended.saturating_sub(recorded);
        reconciliations.push(EpochReconciliation { epoch, intended, recorded, lost });
        total_lost += lost;
        total_intended += intended;

        // Deterministic live-list order: thread-index order.
        for (schedule, _) in per_thread {
            live.extend(schedule);
        }

        // GC pause: workers claim chunks of the live list from a
        // shared cursor and buffer survivals privately. The scope join
        // hands every worker's table back to the coordinator.
        const CHUNK: usize = 256;
        let cursor = AtomicUsize::new(0);
        let mut workers: Vec<WorkerTable> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.gc_workers)
                .map(|_| {
                    let cursor = &cursor;
                    let live = &live;
                    s.spawn(move || {
                        let mut private = WorkerTable::new();
                        loop {
                            let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                            if start >= live.len() {
                                break;
                            }
                            let end = (start + CHUNK).min(live.len());
                            for obj in &live[start..end] {
                                if obj.age < obj.dies_after {
                                    private.record_survival(obj.context, obj.age);
                                }
                            }
                        }
                        private
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("gc worker panicked")).collect()
        });

        // Safepoint merge: apply all worker records sorted.
        merges.push(merge_worker_tables(&mut workers, &table));

        // Advance survivor ages; drop the dead.
        live.retain_mut(|obj| {
            if obj.age < obj.dies_after {
                obj.age += 1;
                true
            } else {
                false
            }
        });
        age0_baseline = table.age0_total();
    }

    ConcurrentRunResult {
        histograms: table.snapshot(),
        reconciliations,
        total_lost,
        total_intended,
        merges,
    }
}

/// The single-threaded reference run.
#[derive(Debug)]
pub struct ReferenceRun {
    /// Final histograms, keyed by row key.
    pub histograms: BTreeMap<u32, [u32; AGE_COLUMNS]>,
    /// Survival records merged at each pause, in pause order.
    pub merge_totals: Vec<u64>,
}

/// Replays the identical schedules single-threaded on the exact
/// [`OldTable`] — the deterministic reference the §7.6 bound is checked
/// against. Survivor records go through the same sorted merge, so the
/// only difference from [`run_concurrent`] is the absence of races.
pub fn run_reference(config: &ConcurrentConfig) -> ReferenceRun {
    config.validate();
    let mut table = OldTable::with_geometry(TableGeometry::new(config.site_rows, config.tss_rows));
    for &site in &config.expand_sites {
        table.expand_site(site);
    }
    let mut live: Vec<LiveObj> = Vec::new();
    let mut merge_totals = Vec::new();
    for epoch in 0..config.epochs {
        for t in 0..config.mutator_threads {
            let schedule = thread_schedule(config, t, epoch);
            for obj in &schedule {
                table.record_allocation(obj.context);
            }
            live.extend(schedule);
        }
        let mut survivors = WorkerTable::new();
        for obj in &live {
            if obj.age < obj.dies_after {
                survivors.record_survival(obj.context, obj.age);
            }
        }
        merge_totals.push(table.merge_survivals(&mut survivors));
        live.retain_mut(|obj| {
            if obj.age < obj.dies_after {
                obj.age += 1;
                true
            } else {
                false
            }
        });
    }
    let mut histograms = BTreeMap::new();
    for key in table.touched_rows() {
        let h = table.histogram(key);
        if h.iter().any(|&c| c != 0) {
            histograms.insert(key, h);
        }
    }
    ReferenceRun { histograms, merge_totals }
}

/// How far a concurrent end-state drifted from the reference.
#[derive(Debug, Clone, Copy)]
pub struct DeviationReport {
    /// Σ |reference − parallel| over all cells.
    pub total_abs_dev: u64,
    /// Cells where the parallel count *exceeds* the reference (must
    /// be 0: lost increments can only remove counts).
    pub cells_exceeding: u64,
}

impl DeviationReport {
    /// The §7.6 acceptance check: parallel ≤ reference cellwise, and
    /// total deviation within the measured increment loss.
    pub fn within_bound(&self, lost: u64) -> bool {
        self.cells_exceeding == 0 && self.total_abs_dev <= lost
    }
}

/// Compares merged histograms cell by cell against the reference.
pub fn compare_to_reference(
    parallel: &BTreeMap<u32, [u32; AGE_COLUMNS]>,
    reference: &BTreeMap<u32, [u32; AGE_COLUMNS]>,
) -> DeviationReport {
    let mut keys: Vec<u32> = parallel.keys().chain(reference.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let zero = [0u32; AGE_COLUMNS];
    let mut report = DeviationReport { total_abs_dev: 0, cells_exceeding: 0 };
    for key in keys {
        let p = parallel.get(&key).unwrap_or(&zero);
        let r = reference.get(&key).unwrap_or(&zero);
        for age in 0..AGE_COLUMNS {
            report.total_abs_dev += u64::from(p[age].abs_diff(r[age]));
            if p[age] > r[age] {
                report.cells_exceeding += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ConcurrentConfig {
        ConcurrentConfig {
            mutator_threads: 4,
            gc_workers: 4,
            epochs: 4,
            allocs_per_thread_per_epoch: 2_000,
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn reconciliation_accounts_for_every_increment() {
        let result = run_concurrent(&small_config());
        for rec in &result.reconciliations {
            assert_eq!(rec.intended, rec.recorded + rec.lost, "epoch {}", rec.epoch);
            assert!(rec.recorded <= rec.intended);
        }
        assert_eq!(result.total_intended, 4 * 4 * 2_000);
        assert_eq!(result.total_lost, result.reconciliations.iter().map(|r| r.lost).sum());
    }

    #[test]
    fn merge_summaries_cover_all_survivals() {
        let config = small_config();
        let result = run_concurrent(&config);
        assert_eq!(result.merges.len(), config.epochs);
        for merge in &result.merges {
            assert_eq!(merge.per_worker.len(), config.gc_workers);
            assert_eq!(merge.per_worker.iter().sum::<u64>(), merge.total);
        }
        assert!(result.merges[0].total > 0);
        // Survival schedules do not depend on lost age-0 increments, so
        // the records merged at each pause match the reference replay
        // exactly.
        let totals: Vec<u64> = result.merges.iter().map(|m| m.total).collect();
        assert_eq!(totals, run_reference(&config).merge_totals);
    }

    #[test]
    fn gc_worker_parallelism_is_deterministic() {
        // Same seed + same worker count: byte-identical merged
        // histograms across runs, even though chunk claiming races.
        let config = ConcurrentConfig {
            mutator_threads: 1,
            gc_workers: 4,
            epochs: 3,
            allocs_per_thread_per_epoch: 3_000,
            ..ConcurrentConfig::default()
        };
        let a = run_concurrent(&config);
        let b = run_concurrent(&config);
        assert_eq!(a.histograms, b.histograms);
    }
}
