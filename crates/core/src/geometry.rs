//! The OLD table's §7.5 shape: row counts, masking, row keying and
//! memory accounting for [`crate::OldTable`].

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
