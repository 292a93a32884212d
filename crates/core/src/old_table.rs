//! The Object Lifetime Distribution (OLD) table — the runtime's one table.
//!
//! The paper's central data structure (§3.3, §7.5, §7.6): per allocation
//! context, the number of objects currently known at each age (0..=15).
//! Application threads bump the age-0 cell at allocation; the collector
//! buffers survivors moving from age `a` to `a+1` in a [`WorkerTable`]
//! that [`OldTable::merge_survivals`] applies at the end of each
//! collection.
//!
//! Sizing follows §7.5 exactly via [`TableGeometry`]: the table starts
//! with 2^16 rows — one per possible allocation-site identifier, with
//! every thread stack state *aliasing* into its site's row (≈4 MB). When
//! a conflict is detected on a site, the table grows by another 2^16 rows
//! for that site so each thread stack state gets its own row (another
//! 4 MB per conflict): `4 * (1 + N) MB` for `N` conflicts.
//!
//! §7.6's unsynchronized application-thread increments can lose counts;
//! this table is exact. The runtime profiles into it at every guest
//! thread count: guest mutators share one OS thread and age-0 records are
//! batched to the safepoint, so nothing races it. The lost-update race
//! itself is measured on real OS threads by the `rolp-bench` harness,
//! against this table as the reference.

use std::collections::{HashMap, HashSet};

use crate::context::site_of;
use crate::geometry::TableGeometry;

/// Number of age columns (objects stop aging at 15; §4).
pub const AGE_COLUMNS: usize = 16;

type Row = [u32; AGE_COLUMNS];

/// The sequential (exact) Object Lifetime Distribution table.
pub struct OldTable {
    geometry: TableGeometry,
    /// Base block: one row per allocation-site id (tss aliases in).
    base: Vec<Row>,
    /// Expansion blocks for conflicted sites, keyed by base-block row.
    expanded: HashMap<u16, Vec<Row>>,
    /// Contexts with at least one recorded count since the last clear
    /// (keyed by *row key*), kept so inference does not scan 64 K rows.
    touched: Vec<u32>,
    touched_set: HashSet<u32>,
}

impl OldTable {
    /// Creates the table with the paper's full-scale geometry.
    pub fn new() -> Self {
        Self::with_geometry(TableGeometry::full_scale())
    }

    /// Creates the table with an explicit geometry (scaled-down tests
    /// alias ids into rows by masking).
    pub fn with_geometry(geometry: TableGeometry) -> Self {
        OldTable {
            geometry,
            base: vec![[0; AGE_COLUMNS]; geometry.site_rows()],
            expanded: HashMap::new(),
            touched: Vec::new(),
            touched_set: HashSet::new(),
        }
    }

    fn row_mut(&mut self, context: u32) -> &mut Row {
        let site = self.geometry.site_row(context) as u16;
        match self.expanded.get_mut(&site) {
            Some(block) => &mut block[self.geometry.tss_row(context)],
            None => &mut self.base[site as usize],
        }
    }

    fn row(&self, context: u32) -> &Row {
        let site = self.geometry.site_row(context) as u16;
        match self.expanded.get(&site) {
            Some(block) => &block[self.geometry.tss_row(context)],
            None => &self.base[site as usize],
        }
    }

    fn touch(&mut self, context: u32) {
        let key = self.row_key(context);
        if self.touched_set.insert(key) {
            self.touched.push(key);
        }
    }

    /// The table's §7.5 shape.
    pub fn geometry(&self) -> &TableGeometry {
        &self.geometry
    }

    /// Application-thread path: one object allocated through `context`
    /// (age-0 increment; exact here, unlike §7.6's racy increment).
    pub fn record_allocation(&mut self, context: u32) {
        self.touch(context);
        let row = self.row_mut(context);
        row[0] = row[0].saturating_add(1);
    }

    /// `n` objects allocated through `context`: the batched age-0 ingest
    /// behind the safepoint flush of the per-thread delta buffers, equal
    /// to `n` calls of [`OldTable::record_allocation`] with one row
    /// lookup for the whole run-length.
    pub fn record_allocations(&mut self, context: u32, n: u32) {
        if n == 0 {
            return;
        }
        self.touch(context);
        let row = self.row_mut(context);
        row[0] = row[0].saturating_add(n);
    }

    /// GC-side path (normally via [`OldTable::merge_survivals`]): one
    /// object allocated through `context` survived at `age`, moving to
    /// `age + 1` (both clamped to the last column).
    pub fn record_survival(&mut self, context: u32, age: u8) {
        let age = (age as usize).min(AGE_COLUMNS - 1);
        let next = (age + 1).min(AGE_COLUMNS - 1);
        self.touch(context);
        let row = self.row_mut(context);
        row[age] = row[age].saturating_sub(1);
        row[next] = row[next].saturating_add(1);
    }

    /// Applies (and drains) a pause's buffered survival records sorted by
    /// `(context, age)` and returns how many it applied. The apply order
    /// matters because under-counted rows saturate at zero; sorting makes
    /// the result independent of the order the collector found survivors
    /// in.
    pub fn merge_survivals(&mut self, survivors: &mut WorkerTable) -> u64 {
        let mut records = survivors.drain_entries();
        records.sort_unstable();
        for &(context, age) in &records {
            self.record_survival(context, age);
        }
        records.len() as u64
    }

    /// Grows the table by an expansion block for a conflicted site
    /// (§7.5). Idempotent. Counts already aggregated in the site's base
    /// row stay there; they are discarded at the next periodic clear.
    pub fn expand_site(&mut self, site: u16) {
        let row = self.geometry.site_row((site as u32) << 16) as u16;
        let rows = self.geometry.tss_rows();
        self.expanded.entry(row).or_insert_with(|| vec![[0; AGE_COLUMNS]; rows]);
    }

    /// True if `site` has its own per-stack-state expansion block.
    pub fn is_expanded(&self, site: u16) -> bool {
        self.expanded.contains_key(&(self.geometry.site_row((site as u32) << 16) as u16))
    }

    /// Number of expansion blocks (== resolved-or-pending conflicts).
    pub fn expansions(&self) -> usize {
        self.expanded.len()
    }

    /// The (masked) site rows holding expansion blocks, in ascending
    /// order — what the decision snapshot builder needs to reproduce the
    /// table's row keying.
    pub fn expanded_sites(&self) -> Vec<u16> {
        let mut sites: Vec<u16> = self.expanded.keys().copied().collect();
        sites.sort_unstable();
        sites
    }

    /// The age histogram of a context's row.
    pub fn histogram(&self, context: u32) -> [u32; AGE_COLUMNS] {
        *self.row(context)
    }

    /// Row keys with recorded counts since the last clear, in ascending
    /// order, so inference and conflict processing visit rows in a fixed
    /// order.
    pub fn touched_rows(&self) -> Vec<u32> {
        let mut rows = self.touched.clone();
        rows.sort_unstable();
        rows
    }

    /// Sum of all age-0 cells (the §7.6 reconciliation's observed side).
    pub fn age0_total(&self) -> u64 {
        // Row keys double as contexts, so each touched row reads back
        // through the normal lookup.
        self.touched.iter().map(|&key| self.row(key)[0] as u64).sum()
    }

    /// Clears all counts: the §4 freshness reset after inference. Only
    /// rows tracked as touched can be nonzero, so only they are zeroed.
    /// Call it only at a safepoint. Afterwards:
    ///
    /// 1. every row's histogram reads all-zero;
    /// 2. [`OldTable::touched_rows`] is empty and
    ///    [`OldTable::age0_total`] is zero;
    /// 3. expansion blocks are **retained**: `is_expanded`/`expansions`
    ///    and the §7.5 memory footprint are unchanged, and later records
    ///    to an expanded site still split by thread stack state.
    pub fn clear_counts(&mut self) {
        for i in 0..self.touched.len() {
            let key = self.touched[i];
            *self.row_mut(key) = [0; AGE_COLUMNS];
        }
        self.touched.clear();
        self.touched_set.clear();
    }

    /// The row key a context resolves to under the current expansion
    /// state.
    #[inline]
    pub fn row_key(&self, context: u32) -> u32 {
        self.geometry.row_key(context, self.is_expanded(site_of(context)))
    }

    /// Memory footprint per §7.5.
    pub fn memory_bytes(&self) -> u64 {
        self.geometry.memory_bytes(self.expansions())
    }
}

impl Default for OldTable {
    fn default() -> Self {
        Self::new()
    }
}

/// A GC worker's private table (§7.6): survival updates are buffered here
/// and merged into the global table after the collection, avoiding racy
/// GC-side updates.
#[derive(Debug, Default, Clone)]
pub struct WorkerTable {
    entries: Vec<(u32, u8)>,
}

impl WorkerTable {
    /// Creates an empty worker table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers one survival record.
    pub fn record_survival(&mut self, context: u32, age: u8) {
        self.entries.push((context, age));
    }

    /// Buffered record count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the buffered records.
    pub fn drain_entries(&mut self) -> Vec<(u32, u8)> {
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::pack;

    #[test]
    fn allocation_counts_land_in_age_zero() {
        let mut t = OldTable::new();
        let c = pack(10, 0);
        t.record_allocation(c);
        t.record_allocation(c);
        assert_eq!(t.histogram(c)[0], 2);
        assert_eq!(t.age0_total(), 2);
    }

    #[test]
    fn unexpanded_sites_alias_all_stack_states() {
        let mut t = OldTable::new();
        t.record_allocation(pack(5, 111));
        t.record_allocation(pack(5, 222));
        // Both land in the site row.
        assert_eq!(t.histogram(pack(5, 0))[0], 2);
        assert_eq!(t.row_key(pack(5, 111)), t.row_key(pack(5, 222)));
    }

    #[test]
    fn expansion_splits_stack_states() {
        let mut t = OldTable::new();
        t.expand_site(5);
        t.record_allocation(pack(5, 111));
        t.record_allocation(pack(5, 222));
        assert_eq!(t.histogram(pack(5, 111))[0], 1);
        assert_eq!(t.histogram(pack(5, 222))[0], 1);
        assert_eq!(t.histogram(pack(5, 0))[0], 0);
        assert_ne!(t.row_key(pack(5, 111)), t.row_key(pack(5, 222)));
    }

    #[test]
    fn scaled_geometry_aliases_sites_by_masking() {
        let mut t = OldTable::with_geometry(TableGeometry::new(64, 16));
        t.record_allocation(pack(69, 0)); // 69 & 63 == 5
        t.record_allocation(pack(5, 3));
        assert_eq!(t.histogram(pack(5, 0))[0], 2);
        assert_eq!(t.memory_bytes(), (64 * 16 * 4) as u64);
    }

    #[test]
    fn survival_moves_between_age_columns() {
        let mut t = OldTable::new();
        let c = pack(3, 0);
        t.record_allocation(c);
        t.record_survival(c, 0);
        let h = t.histogram(c);
        assert_eq!(h[0], 0);
        assert_eq!(h[1], 1);
        // Ages saturate at 15.
        for age in 1..40u8 {
            t.record_survival(c, age.min(15));
        }
        assert_eq!(t.histogram(c)[15], 1);
    }

    #[test]
    fn memory_grows_four_megabytes_per_conflict() {
        let mut t = OldTable::new();
        let base = t.memory_bytes();
        assert_eq!(base, 4 * 1024 * 1024);
        t.expand_site(9);
        assert_eq!(t.memory_bytes(), 2 * base);
        t.expand_site(9); // idempotent
        assert_eq!(t.memory_bytes(), 2 * base);
        t.expand_site(10);
        assert_eq!(t.memory_bytes(), 3 * base);
        assert_eq!(t.expansions(), 2);
    }

    #[test]
    fn clear_resets_counts_but_keeps_expansions() {
        let mut t = OldTable::new();
        t.expand_site(4);
        t.record_allocation(pack(4, 9));
        t.record_allocation(pack(8, 0));
        t.clear_counts();
        assert_eq!(t.histogram(pack(4, 9))[0], 0);
        assert_eq!(t.histogram(pack(8, 0))[0], 0);
        assert!(t.is_expanded(4));
        assert!(t.touched_rows().is_empty());
        assert_eq!(t.age0_total(), 0);
    }

    #[test]
    fn touched_rows_are_sorted_regardless_of_record_order() {
        let mut t = OldTable::new();
        t.record_allocation(pack(9, 0));
        t.record_allocation(pack(2, 0));
        t.record_allocation(pack(5, 0));
        assert_eq!(t.touched_rows(), vec![2 << 16, 5 << 16, 9 << 16]);
    }

    #[test]
    fn survivals_merge_after_collection() {
        let mut t = OldTable::new();
        let c = pack(2, 0);
        t.record_allocation(c);
        t.record_allocation(c);
        let mut w = WorkerTable::new();
        w.record_survival(c, 0);
        w.record_survival(c, 0);
        assert_eq!(t.histogram(c)[1], 0, "not visible until merge");
        assert_eq!(t.merge_survivals(&mut w), 2);
        assert!(w.is_empty());
        let h = t.histogram(c);
        assert_eq!(h[0], 0);
        assert_eq!(h[1], 2);
    }

    #[test]
    fn sorted_merge_is_independent_of_record_order() {
        // The same survival records buffered in two different orders must
        // produce identical histograms after the sorted merge — including
        // rows that saturate at zero.
        let records = [
            (pack(2, 0), 0u8),
            (pack(2, 0), 1),
            (pack(7, 3), 0),
            (pack(2, 0), 0),
            (pack(7, 3), 5), // under-counted: saturates row 5 at zero
        ];
        let run = |order: &[usize]| {
            let mut t = OldTable::new();
            t.record_allocation(pack(2, 0));
            t.record_allocation(pack(2, 0));
            t.record_allocation(pack(7, 3));
            let mut w = WorkerTable::new();
            for &i in order {
                let (c, a) = records[i];
                w.record_survival(c, a);
            }
            assert_eq!(t.merge_survivals(&mut w), records.len() as u64);
            (t.histogram(pack(2, 0)), t.histogram(pack(7, 3)))
        };
        // Applied unsorted, the second order would hit the age-1 record
        // before any object reached age 1 and saturate it away.
        assert_eq!(run(&[0, 1, 2, 3, 4]), run(&[1, 4, 3, 2, 0]));
    }
}
