//! Shared OLD-table geometry and the [`LifetimeTable`] backend trait.
//!
//! The paper has *one* Object Lifetime Distribution table (§3.3, §7.5);
//! this repo has two implementations of it — [`crate::OldTable`]
//! (sequential, exact: the table the runtime profiles into, at every
//! guest thread count) and [`crate::SharedOldTable`] (relaxed-atomic: the
//! real §7.6 fast path, raced by OS threads only in the
//! [`crate::concurrent`] harness). Everything they share that is *not*
//! about synchronization lives here:
//!
//! - [`TableGeometry`] — row counts, masking, row keying, and the §7.5
//!   memory accounting, written once.
//! - [`LifetimeTable`] — the backend trait the profiler pipeline
//!   (worker-table merge, inference, conflict resolution, §7.6 loss
//!   reconciliation) is written against, so the logic exists once and the
//!   backends differ only in how cells are updated.
//!
//! # The `clear_counts` contract
//!
//! The backends historically diverged here, so the contract is now
//! explicit and observational. After [`LifetimeTable::clear_counts`]:
//!
//! 1. every row's histogram reads all-zero (however the backend gets
//!    there — the sequential table zeroes only rows it tracked as
//!    touched, the shared table sweeps every cell);
//! 2. [`LifetimeTable::touched_rows`] is empty and
//!    [`LifetimeTable::age0_total`] is zero;
//! 3. expansion blocks are **retained**: `is_expanded`/`expansions` and
//!    the §7.5 memory footprint are unchanged, and subsequent records to
//!    an expanded site still split by thread stack state.
//!
//! Callers may only invoke it at a safepoint (no concurrent recorders).

use crate::context::{site_of, tss_of};
use crate::old_table::AGE_COLUMNS;

/// Rows in the full-scale base table / expansion blocks (§7.5: 2^16).
pub const FULL_SCALE_ROWS: usize = 1 << 16;

/// The §7.5 table shape: a base block with one row per allocation-site
/// id, plus one per-stack-state block per conflicted site. Row counts are
/// powers of two so scaled-down tests (and Miri, which would crawl over a
/// 4 MB table) alias ids into rows by masking; at full scale the masks
/// are the identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableGeometry {
    site_rows: usize,
    site_mask: u16,
    tss_rows: usize,
    tss_mask: u16,
}

impl TableGeometry {
    /// The paper's geometry: 2^16 site rows, 2^16 stack states per
    /// expansion block — 4 MB base + 4 MB per conflict.
    pub fn full_scale() -> Self {
        Self::new(FULL_SCALE_ROWS, FULL_SCALE_ROWS)
    }

    /// A geometry with explicit power-of-two row counts.
    pub fn new(site_rows: usize, tss_rows: usize) -> Self {
        assert!(site_rows.is_power_of_two() && site_rows <= FULL_SCALE_ROWS);
        assert!(tss_rows.is_power_of_two() && tss_rows <= FULL_SCALE_ROWS);
        TableGeometry {
            site_rows,
            site_mask: (site_rows - 1) as u16,
            tss_rows,
            tss_mask: (tss_rows - 1) as u16,
        }
    }

    /// Rows in the base block.
    pub fn site_rows(&self) -> usize {
        self.site_rows
    }

    /// Rows in each expansion block.
    pub fn tss_rows(&self) -> usize {
        self.tss_rows
    }

    /// The base-block row index a context's site aliases into.
    #[inline]
    pub fn site_row(&self, context: u32) -> usize {
        (site_of(context) & self.site_mask) as usize
    }

    /// The expansion-block row index a context's stack state aliases
    /// into.
    #[inline]
    pub fn tss_row(&self, context: u32) -> usize {
        (tss_of(context) & self.tss_mask) as usize
    }

    /// The *row key* a context resolves to: the (masked) full context for
    /// expanded sites, the site-only key otherwise — the key space
    /// decisions and inference operate on.
    #[inline]
    pub fn row_key(&self, context: u32, site_expanded: bool) -> u32 {
        let site = (site_of(context) & self.site_mask) as u32;
        if site_expanded {
            (site << 16) | (tss_of(context) & self.tss_mask) as u32
        } else {
            site << 16
        }
    }

    /// Memory footprint per §7.5: one base block plus one block per
    /// conflict (`4 MB * (1 + N)` at full scale).
    pub fn memory_bytes(&self, expansions: usize) -> u64 {
        let cell = std::mem::size_of::<u32>();
        let base = self.site_rows * AGE_COLUMNS * cell;
        let per_block = self.tss_rows * AGE_COLUMNS * cell;
        (base + expansions * per_block) as u64
    }
}

impl Default for TableGeometry {
    fn default() -> Self {
        Self::full_scale()
    }
}

/// The OLD-table backend contract the profiler data plane is written
/// against.
///
/// Both backends must agree on the *observable* state: identical event
/// streams (single-threaded) produce identical histograms, touched rows,
/// and memory accounting — the differential property test in
/// `crates/core/tests/prop_table_diff.rs` holds them to it.
///
/// All methods are safepoint-or-single-thread semantics at the trait
/// level; [`crate::SharedOldTable`] additionally exposes `&self` inherent
/// methods for the genuinely concurrent paths (racy age-0 increments from
/// mutator threads), which the trait impl delegates to.
pub trait LifetimeTable {
    /// The table's §7.5 shape.
    fn geometry(&self) -> &TableGeometry;

    /// One object allocated through `context`: age-0 increment.
    fn record_allocation(&mut self, context: u32);

    /// `n` objects allocated through `context`: the batched age-0 ingest
    /// behind the safepoint flush of the per-thread delta buffers. Must
    /// be observationally identical to `n` calls of
    /// [`LifetimeTable::record_allocation`]; backends override it to pay
    /// the row lookup once instead of `n` times.
    fn record_allocations(&mut self, context: u32, n: u32) {
        for _ in 0..n {
            self.record_allocation(context);
        }
    }

    /// One object allocated through `context` survived at `age`, moving
    /// to `age + 1` (both clamped to the last column).
    fn record_survival(&mut self, context: u32, age: u8);

    /// Grows the table with a per-stack-state block for a conflicted
    /// site (§7.5). Idempotent. Counts already aggregated in the site's
    /// base row stay there until the next clear.
    fn expand_site(&mut self, site: u16);

    /// True if `site` has its own per-stack-state expansion block.
    fn is_expanded(&self, site: u16) -> bool;

    /// Number of expansion blocks (== resolved-or-pending conflicts).
    fn expansions(&self) -> usize;

    /// The (masked) site rows holding expansion blocks, in ascending
    /// order — what the decision snapshot builder needs to reproduce the
    /// table's row keying.
    fn expanded_sites(&self) -> Vec<u16>;

    /// The age histogram of a context's row.
    fn histogram(&self, context: u32) -> [u32; AGE_COLUMNS];

    /// Row keys with recorded counts since the last clear, in **ascending
    /// order** — the ordering contract is what makes inference and
    /// conflict processing backend-independent.
    fn touched_rows(&self) -> Vec<u32>;

    /// Sum of all age-0 cells (the §7.6 reconciliation's observed side).
    fn age0_total(&self) -> u64;

    /// Resets all counts per the module-level contract: histograms read
    /// zero, touched rows empty, expansion blocks retained.
    fn clear_counts(&mut self);

    /// The row key a context resolves to under the current expansion
    /// state.
    #[inline]
    fn row_key(&self, context: u32) -> u32 {
        self.geometry().row_key(context, self.is_expanded(site_of(context)))
    }

    /// Memory footprint per §7.5.
    fn memory_bytes(&self) -> u64 {
        self.geometry().memory_bytes(self.expansions())
    }

    /// Whether `context`'s site half is a plausible (assigned) profile
    /// id. Rows are dense, so this is a bound check against the id space
    /// the JIT has handed out.
    fn context_known(&self, context: u32, max_profile_id: u16) -> bool {
        let site = site_of(context);
        site != 0 && site <= max_profile_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::pack;

    #[test]
    fn full_scale_masks_are_identity() {
        let g = TableGeometry::full_scale();
        assert_eq!(g.site_row(pack(0xABCD, 7)), 0xABCD);
        assert_eq!(g.tss_row(pack(3, 0xFFFE)), 0xFFFE);
        assert_eq!(g.row_key(pack(9, 42), false), 9 << 16);
        assert_eq!(g.row_key(pack(9, 42), true), pack(9, 42));
    }

    #[test]
    fn scaled_geometry_aliases_by_masking() {
        let g = TableGeometry::new(64, 16);
        assert_eq!(g.site_row(pack(69, 0)), 5, "69 & 63");
        assert_eq!(g.tss_row(pack(0, 19)), 3, "19 & 15");
        assert_eq!(g.row_key(pack(69, 19), true), (5 << 16) | 3);
    }

    #[test]
    fn memory_accounting_matches_the_paper() {
        let g = TableGeometry::full_scale();
        assert_eq!(g.memory_bytes(0), 4 * 1024 * 1024);
        assert_eq!(g.memory_bytes(3), 4 * 4 * 1024 * 1024);
        let small = TableGeometry::new(64, 16);
        assert_eq!(small.memory_bytes(1), (64 * 16 * 4 + 16 * 16 * 4) as u64);
    }
}
