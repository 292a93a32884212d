//! The shared (concurrent) Object Lifetime Distribution table.
//!
//! [`SharedOldTable`] is the multi-threaded twin of [`rolp::OldTable`]
//! that the §7.6 race harness ([`crate::concurrent`]) runs on: the same
//! §7.5 [`TableGeometry`] (a base block of one row per allocation-site
//! id, plus one expansion block per conflicted site), but with every age
//! cell an [`AtomicU32`] so real mutator threads can bump age-0 cells
//! while the coordinator thread merges GC workers' records into the same
//! storage.
//!
//! Fidelity to the paper's §7.6 concurrency story:
//!
//! - **Application threads increment age-0 cells with no locks and no
//!   read-modify-write.** [`SharedOldTable::record_allocation`] is a
//!   relaxed load followed by a relaxed store — the Rust-legal rendering
//!   of the paper's *unsynchronized* `incl` (HotSpot omits the `lock`
//!   prefix to keep the allocation fast path cheap). Two threads hitting
//!   the same cell can overlap and **lose counts**, exactly as §7.6
//!   describes. Because both halves are atomic ops, this is benign
//!   imprecision, not UB — ThreadSanitizer stays quiet while the lost
//!   counts remain measurable.
//! - **Loss is measured, not simulated.** A per-epoch reconciliation
//!   compares the age-0 counts that actually landed in the table against
//!   the exact per-thread allocation tallies (see
//!   [`crate::concurrent::EpochReconciliation`]), so the §7.6 imprecision
//!   is an *observed* quantity of a real race.
//! - **GC-side updates go through private per-worker tables**
//!   ([`rolp::WorkerTable`]) merged at the safepoint, never through racy
//!   read-modify-write cycles on the shared cells.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use rolp::{TableGeometry, AGE_COLUMNS};

/// The concurrent Object Lifetime Distribution table.
pub struct SharedOldTable {
    geometry: TableGeometry,
    /// Base block: one row of [`AGE_COLUMNS`] cells per site row, flat.
    base: Box<[AtomicU32]>,
    /// Per-site expansion blocks, installed at safepoints. `OnceLock::get`
    /// is a single atomic load, keeping the mutator path lock-free.
    expanded: Box<[OnceLock<Box<[AtomicU32]>>]>,
}

fn zeroed_cells(n: usize) -> Box<[AtomicU32]> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

impl SharedOldTable {
    /// A table with an explicit geometry; ids alias into rows by masking.
    pub fn with_geometry(geometry: TableGeometry) -> Self {
        SharedOldTable {
            geometry,
            base: zeroed_cells(geometry.site_rows() * AGE_COLUMNS),
            expanded: (0..geometry.site_rows()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The cell backing `(context, age)` under the current expansion
    /// state.
    #[inline]
    fn cell(&self, context: u32, age: usize) -> &AtomicU32 {
        let site = self.geometry.site_row(context);
        match self.expanded[site].get() {
            Some(block) => &block[self.geometry.tss_row(context) * AGE_COLUMNS + age],
            None => &self.base[site * AGE_COLUMNS + age],
        }
    }

    /// Application-thread fast path: bump the age-0 cell with the paper's
    /// unsynchronized increment (relaxed load + relaxed store, no lock, no
    /// RMW). Concurrent callers on the same cell may lose counts — that is
    /// the §7.6 trade, and the per-epoch reconciliation measures it.
    #[inline]
    pub fn record_allocation(&self, context: u32) {
        let cell = self.cell(context, 0);
        let v = cell.load(Ordering::Relaxed);
        cell.store(v.saturating_add(1), Ordering::Relaxed);
    }

    /// Safepoint-side survival move (`age` → `age + 1`). Called only by
    /// the single merger thread while the world is stopped (GC workers
    /// buffer into private [`rolp::WorkerTable`]s instead of calling
    /// this), so plain load/store is exact here.
    pub fn record_survival(&self, context: u32, age: u8) {
        let age = (age as usize).min(AGE_COLUMNS - 1);
        let next = (age + 1).min(AGE_COLUMNS - 1);
        let from = self.cell(context, age);
        let v = from.load(Ordering::Relaxed);
        from.store(v.saturating_sub(1), Ordering::Relaxed);
        let to = self.cell(context, next);
        let v = to.load(Ordering::Relaxed);
        to.store(v.saturating_add(1), Ordering::Relaxed);
    }

    /// Grows the table with a private block for a conflicted site (§7.5).
    /// Idempotent and safepoint-only: aliased counts already in the base
    /// row stay there, as in the sequential table.
    pub fn expand_site(&self, site: u16) {
        let row = self.geometry.site_row((site as u32) << 16);
        self.expanded[row].get_or_init(|| zeroed_cells(self.geometry.tss_rows() * AGE_COLUMNS));
    }

    /// Sum of all age-0 cells — the reconciliation counter's observed
    /// side. Safepoint-side scan (the mutators are stopped).
    pub fn age0_total(&self) -> u64 {
        let mut sum = 0u64;
        for row in 0..self.geometry.site_rows() {
            sum += self.base[row * AGE_COLUMNS].load(Ordering::Relaxed) as u64;
            if let Some(block) = self.expanded[row].get() {
                for trow in 0..self.geometry.tss_rows() {
                    sum += block[trow * AGE_COLUMNS].load(Ordering::Relaxed) as u64;
                }
            }
        }
        sum
    }

    /// All rows with at least one nonzero cell, keyed like
    /// [`rolp::OldTable::row_key`]. Safepoint-side scan. Every record
    /// leaves at least one nonzero cell behind (allocation bumps age 0;
    /// survival's destination column saturates *up*), so nonzero-ness is
    /// exactly "touched".
    pub fn snapshot(&self) -> BTreeMap<u32, [u32; AGE_COLUMNS]> {
        let mut out = BTreeMap::new();
        let read_row = |cells: &[AtomicU32], start: usize| {
            let mut h = [0u32; AGE_COLUMNS];
            let mut nonzero = false;
            for (age, slot) in h.iter_mut().enumerate() {
                *slot = cells[start + age].load(Ordering::Relaxed);
                nonzero |= *slot != 0;
            }
            nonzero.then_some(h)
        };
        for row in 0..self.geometry.site_rows() {
            if let Some(h) = read_row(&self.base, row * AGE_COLUMNS) {
                out.insert((row as u32) << 16, h);
            }
            if let Some(block) = self.expanded[row].get() {
                for trow in 0..self.geometry.tss_rows() {
                    if let Some(h) = read_row(block, trow * AGE_COLUMNS) {
                        out.insert(((row as u32) << 16) | trow as u32, h);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp::context::pack;

    fn small() -> SharedOldTable {
        SharedOldTable::with_geometry(TableGeometry::new(64, 16))
    }

    /// The histogram stored under row key `key` (all-zero if untouched).
    fn row(t: &SharedOldTable, key: u32) -> [u32; AGE_COLUMNS] {
        t.snapshot().get(&key).copied().unwrap_or_default()
    }

    #[test]
    fn allocations_land_in_age_zero() {
        let t = small();
        let c = pack(10, 0);
        t.record_allocation(c);
        t.record_allocation(c);
        assert_eq!(row(&t, c)[0], 2);
        assert_eq!(t.age0_total(), 2);
    }

    #[test]
    fn unexpanded_sites_alias_stack_states_and_masked_geometry_aliases_sites() {
        let t = small();
        t.record_allocation(pack(5, 111));
        t.record_allocation(pack(5, 222));
        // 64-row geometry: site 69 aliases site 5's row.
        t.record_allocation(pack(69, 0));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1, "one site-only row key");
        assert_eq!(snap[&pack(5, 0)][0], 3);
    }

    #[test]
    fn expansion_splits_stack_states() {
        let t = small();
        t.expand_site(5);
        t.expand_site(5); // idempotent
        t.record_allocation(pack(5, 1));
        t.record_allocation(pack(5, 2));
        t.record_allocation(pack(5, 17)); // 17 & 15 aliases stack state 1
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&pack(5, 1)][0], 2);
        assert_eq!(snap[&pack(5, 2)][0], 1);
    }

    #[test]
    fn survival_moves_between_age_columns_and_saturates() {
        let t = small();
        let c = pack(3, 0);
        t.record_allocation(c);
        t.record_survival(c, 0);
        let h = row(&t, c);
        assert_eq!((h[0], h[1]), (0, 1));
        for age in 1..40u8 {
            t.record_survival(c, age.min(15));
        }
        assert_eq!(row(&t, c)[15], 1);
        // Underflow saturates instead of wrapping.
        t.record_survival(pack(9, 0), 3);
        assert_eq!(row(&t, pack(9, 0))[3], 0);
        assert_eq!(row(&t, pack(9, 0))[4], 1);
    }

    #[test]
    fn snapshot_reports_nonzero_rows_with_row_keys() {
        let t = small();
        t.expand_site(7);
        t.record_allocation(pack(7, 3));
        t.record_allocation(pack(2, 9)); // aliases to site row 2
        let snap = t.snapshot();
        assert_eq!(snap.keys().copied().collect::<Vec<_>>(), vec![pack(2, 0), pack(7, 3)]);
        assert_eq!(snap[&pack(2, 0)][0], 1);
        assert_eq!(snap[&pack(7, 3)][0], 1);
    }

    #[test]
    fn full_scale_geometry_keeps_every_site_row() {
        let t = SharedOldTable::with_geometry(TableGeometry::full_scale());
        t.record_allocation(pack(0xFFFF, 7));
        t.record_allocation(pack(1, 7));
        assert_eq!(
            t.snapshot().keys().copied().collect::<Vec<_>>(),
            vec![pack(1, 0), pack(0xFFFF, 0)]
        );
    }

    #[test]
    fn concurrent_unsynchronized_increments_lose_at_most_the_deficit() {
        // 4 threads x 20k increments on one contended cell: the final
        // count never exceeds the intended total, and the deficit is the
        // measured §7.6 loss.
        let t = small();
        let c = pack(1, 0);
        let threads = 4;
        let per = 20_000u32;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        t.record_allocation(c);
                    }
                });
            }
        });
        let recorded = row(&t, c)[0];
        assert!(recorded <= threads * per);
        assert!(recorded > 0);
    }
}
