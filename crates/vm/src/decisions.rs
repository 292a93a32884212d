//! Pretenuring-decision snapshots.
//!
//! ROLP's inference runs at safepoints, but its *decisions* are consumed
//! on the allocation fast path — the one place the paper insists must
//! stay at "negligible overhead" (§3.2, §8.3). This module gives the
//! decisions the same shape HotSpot would: an immutable, versioned
//! [`DecisionTable`] (a flat byte array indexed by the decision row key)
//! published once per inference epoch on a [`DecisionStore`], and read
//! with one bounds-checked array index. No hashing and no locks on the
//! hot path.
//!
//! Every guest thread runs on the runtime's one OS thread, so the store
//! is plain single-threaded ownership:
//!
//! 1. The profiler builds a fresh `DecisionTable` from its working
//!    estimates at a safepoint.
//! 2. [`DecisionStore::publish`] replaces the current table and bumps the
//!    store's version. The previous table is freed as soon as its last
//!    holder lets go; nothing keeps a history.
//! 3. [`DecisionStore::load`] hands out an [`Rc`] to the current table.
//!    A holder keeps reading its consistent old version across a
//!    publish; the next load observes the new one.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Slot value meaning "no decision for this site".
const NO_DECISION: u8 = 0;
/// Slot value meaning "site is conflicted/expanded — consult the
/// per-stack-state block" (never a valid `gen + 1`, which is ≤ 16).
const EXPANDED: u8 = 0xFF;
/// Bit set on a slot whose decision came from an imported offline
/// profile. The allocation fast path diverts a small deterministic
/// sample of a flagged context's allocations to the young generation as
/// *canaries*: a pretenured context produces no young survivals, so
/// without the sample the profiler would have no live evidence to
/// confirm or refute the imported prior. Plain `gen + 1` encodings are
/// ≤ 16, so the bit never collides with them or with [`EXPANDED`].
const CANARY_FLAG: u8 = 0x40;
/// One in this many allocations of a canary-flagged context stays
/// young. Small enough to keep the imported row's pretenuring benefit,
/// large enough that every inference epoch of a hot context sees
/// multiple canaries.
pub const CANARY_STRIDE: u32 = 64;

/// An immutable, versioned snapshot of the profiler's pretenuring
/// decisions, indexed by decision row key (site id in the high half,
/// thread stack state in the low half — see `rolp::context`).
///
/// Layout: one byte per site id (`0` = none, `gen + 1` = pretenure to
/// `gen`, a sentinel for conflicted sites), plus a dense per-stack-state
/// block for each conflicted site. The common case — unconflicted site —
/// resolves with a single bounds-checked index into the site array.
pub struct DecisionTable {
    version: u64,
    site_slots: Box<[u8]>,
    site_mask: u16,
    /// Dense per-tss decision blocks for expanded (conflicted) sites.
    expanded: BTreeMap<u16, Box<[u8]>>,
    tss_mask: u16,
    decisions: u32,
    changed_rows: u32,
}

impl fmt::Debug for DecisionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionTable")
            .field("version", &self.version)
            .field("decisions", &self.decisions)
            .field("changed_rows", &self.changed_rows)
            .field("expanded_sites", &self.expanded.len())
            .finish()
    }
}

impl DecisionTable {
    /// The empty version-0 table every store starts from (full-scale
    /// geometry: 2^16 site slots, 64 KB).
    pub fn empty() -> Self {
        Self::empty_with_geometry(1 << 16, 1 << 16)
    }

    /// An empty table with explicit power-of-two slot counts (scaled-down
    /// tests alias ids into the slots by masking, like the OLD table).
    pub fn empty_with_geometry(site_slots: usize, tss_slots: usize) -> Self {
        assert!(site_slots.is_power_of_two() && site_slots <= 1 << 16);
        assert!(tss_slots.is_power_of_two() && tss_slots <= 1 << 16);
        DecisionTable {
            version: 0,
            site_slots: vec![NO_DECISION; site_slots].into_boxed_slice(),
            site_mask: (site_slots - 1) as u16,
            expanded: BTreeMap::new(),
            tss_mask: (tss_slots - 1) as u16,
            decisions: 0,
            changed_rows: 0,
        }
    }

    /// Builds the next version from the profiler's working estimates.
    ///
    /// `rows` maps decision row keys to target generations: for an
    /// unconflicted site the key is `site << 16` (stack states alias into
    /// it), for a site in `expanded_sites` the key carries the full
    /// context. `prev` is the currently published table; the new version
    /// is `prev.version() + 1` and `changed_rows` counts the row keys
    /// whose resolved decision differs from `prev`.
    pub fn next_from(
        prev: &DecisionTable,
        rows: &BTreeMap<u32, u8>,
        expanded_sites: impl IntoIterator<Item = u16>,
    ) -> Self {
        Self::next_from_blended(prev, rows, expanded_sites, |_| false)
    }

    /// [`next_from`](Self::next_from) with a canary predicate: row keys
    /// for which `is_canary` returns true are flagged so the allocation
    /// fast path ([`advise_for_alloc`](Self::advise_for_alloc)) samples
    /// them — the blend machinery marks imported-profile rows this way.
    pub fn next_from_blended(
        prev: &DecisionTable,
        rows: &BTreeMap<u32, u8>,
        expanded_sites: impl IntoIterator<Item = u16>,
        is_canary: impl Fn(u32) -> bool,
    ) -> Self {
        let mut table = DecisionTable {
            version: prev.version + 1,
            site_slots: vec![NO_DECISION; prev.site_slots.len()].into_boxed_slice(),
            site_mask: prev.site_mask,
            expanded: BTreeMap::new(),
            tss_mask: prev.tss_mask,
            decisions: 0,
            changed_rows: 0,
        };
        for site in expanded_sites {
            let site = site & table.site_mask;
            table.site_slots[site as usize] = EXPANDED;
            table
                .expanded
                .entry(site)
                .or_insert_with(|| vec![NO_DECISION; (table.tss_mask as usize) + 1].into());
        }
        for (&key, &gen) in rows {
            let site = ((key >> 16) as u16) & table.site_mask;
            let mut encoded = gen.min(15) + 1;
            if is_canary(key) {
                encoded |= CANARY_FLAG;
            }
            match table.expanded.get_mut(&site) {
                Some(block) => {
                    let tss = ((key & 0xFFFF) as u16 & table.tss_mask) as usize;
                    if block[tss] == NO_DECISION {
                        table.decisions += 1;
                    }
                    block[tss] = encoded;
                }
                None => {
                    if table.site_slots[site as usize] == NO_DECISION {
                        table.decisions += 1;
                    }
                    table.site_slots[site as usize] = encoded;
                }
            }
        }
        // Changed rows: every key either table resolves, compared through
        // the public read path so expansion transitions count too.
        let mut keys: Vec<u32> = rows.keys().copied().collect();
        keys.extend(prev.iter().map(|(k, _)| k));
        keys.sort_unstable();
        keys.dedup();
        table.changed_rows =
            keys.iter().filter(|&&k| table.advise(k) != prev.advise(k)).count() as u32;
        table
    }

    /// Resolves a pretenuring decision for an allocation context: one
    /// bounds-checked index into the site array; conflicted (expanded)
    /// sites — rare by construction — take one more into their block.
    #[inline]
    pub fn advise(&self, context: u32) -> Option<u8> {
        let site = ((context >> 16) as u16) & self.site_mask;
        match self.site_slots[site as usize] {
            NO_DECISION => None,
            EXPANDED => self.advise_expanded(site, context),
            encoded => Some((encoded & !CANARY_FLAG) - 1),
        }
    }

    /// [`advise`](Self::advise) for the allocation fast path: identical,
    /// except that a canary-flagged (imported-profile) row answers `None`
    /// — allocate young — for one in [`CANARY_STRIDE`] allocations, keyed
    /// off the allocation's identity-hash draw `tick`. The diverted
    /// objects age through the young generation like any other, feeding
    /// the survivor-tracking evidence the blend decay judges the
    /// imported prior by.
    #[inline]
    pub fn advise_for_alloc(&self, context: u32, tick: u32) -> Option<u8> {
        Self::decode_slot(self.resolve_slot(context), tick)
    }

    /// The raw encoded slot byte for `context` (`0` when the table holds
    /// nothing for it) — the context-dependent, cacheable
    /// half of [`advise_for_alloc`](Self::advise_for_alloc). The byte is
    /// what a [`DecisionCache`] stores, so canary rows keep their flag
    /// and sample per allocation even when served from the cache.
    #[inline]
    pub fn resolve_slot(&self, context: u32) -> u8 {
        let site = ((context >> 16) as u16) & self.site_mask;
        match self.site_slots[site as usize] {
            EXPANDED => match self.expanded.get(&site) {
                Some(block) => block[((context & 0xFFFF) as u16 & self.tss_mask) as usize],
                None => NO_DECISION,
            },
            e => e,
        }
    }

    /// Decodes an encoded slot byte against the allocation's
    /// identity-hash draw `tick` — the per-allocation half of
    /// [`advise_for_alloc`](Self::advise_for_alloc), shared by the direct
    /// and micro-cached paths so both sample canaries bit-identically.
    #[inline]
    pub fn decode_slot(encoded: u8, tick: u32) -> Option<u8> {
        if encoded == NO_DECISION {
            return None;
        }
        if encoded & CANARY_FLAG != 0 && tick.is_multiple_of(CANARY_STRIDE) {
            return None;
        }
        Some((encoded & !CANARY_FLAG) - 1)
    }

    /// True when the context resolves to a canary-flagged (imported)
    /// row.
    pub fn is_canary(&self, context: u32) -> bool {
        let site = ((context >> 16) as u16) & self.site_mask;
        let encoded = match self.site_slots[site as usize] {
            NO_DECISION => return false,
            EXPANDED => {
                let Some(block) = self.expanded.get(&site) else { return false };
                block[((context & 0xFFFF) as u16 & self.tss_mask) as usize]
            }
            e => e,
        };
        encoded != NO_DECISION && encoded & CANARY_FLAG != 0
    }

    #[cold]
    fn advise_expanded(&self, site: u16, context: u32) -> Option<u8> {
        let block = self.expanded.get(&site)?;
        match block[((context & 0xFFFF) as u16 & self.tss_mask) as usize] {
            NO_DECISION => None,
            encoded => Some((encoded & !CANARY_FLAG) - 1),
        }
    }

    /// The snapshot's version (0 = the initial empty table).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Active decisions in this snapshot.
    pub fn len(&self) -> usize {
        self.decisions as usize
    }

    /// True when the snapshot holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.decisions == 0
    }

    /// Row keys whose resolved decision differs from the previous
    /// version (0 for the initial table).
    pub fn changed_rows(&self) -> u32 {
        self.changed_rows
    }

    /// Iterates `(row key, generation)` pairs, sorted by row key.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        let base = self.site_slots.iter().enumerate().filter_map(|(site, &slot)| match slot {
            NO_DECISION | EXPANDED => None,
            encoded => Some(((site as u32) << 16, (encoded & !CANARY_FLAG) - 1)),
        });
        let expanded = self.expanded.iter().flat_map(|(&site, block)| {
            block.iter().enumerate().filter_map(move |(tss, &slot)| match slot {
                NO_DECISION => None,
                encoded => Some((((site as u32) << 16) | tss as u32, (encoded & !CANARY_FLAG) - 1)),
            })
        });
        let mut all: Vec<(u32, u8)> = base.chain(expanded).collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all.into_iter()
    }

    /// FNV-1a digest of the snapshot's observable decision state: every
    /// `(row key, generation, canary)` triple in row-key order. Two
    /// snapshots advise identically for every context iff their digests
    /// match, so bit-identity claims (fast path vs. reference path, one
    /// vs. several guest threads) reduce to one `u64` comparison.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (key, generation) in self.iter() {
            for b in key.to_le_bytes() {
                mix(b);
            }
            mix(generation);
            mix(u8::from(self.is_canary(key)));
        }
        h
    }
}

/// The publication point for [`DecisionTable`] snapshots.
///
/// `load` hands out the current table; `publish` (safepoint-side, once
/// per inference epoch) replaces it. The version is kept beside the
/// table so [`DecisionCache`] validates an entry without touching it.
pub struct DecisionStore {
    current: RefCell<Rc<DecisionTable>>,
    version: Cell<u64>,
}

impl DecisionStore {
    /// A store holding the empty version-0 table.
    pub fn new() -> Self {
        Self::with_initial(DecisionTable::empty())
    }

    /// A store seeded with a specific initial table (scaled geometries).
    pub fn with_initial(table: DecisionTable) -> Self {
        DecisionStore { version: Cell::new(table.version()), current: RefCell::new(Rc::new(table)) }
    }

    /// The current snapshot. A holder may keep it across publishes and
    /// keep reading a consistent (old) version.
    #[inline]
    pub fn load(&self) -> Rc<DecisionTable> {
        Rc::clone(&self.current.borrow())
    }

    /// Publishes `table` as the new current snapshot (safepoint-side).
    /// Returns its version.
    pub fn publish(&self, table: DecisionTable) -> u64 {
        let version = table.version();
        *self.current.borrow_mut() = Rc::new(table);
        self.version.set(version);
        version
    }

    /// The current snapshot's version.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.get()
    }
}

impl Default for DecisionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for DecisionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionStore")
            .field("version", &self.version())
            .field("decisions", &self.load().len())
            .finish()
    }
}

/// Slots in a [`DecisionCache`] (direct-mapped, power of two).
const MICRO_CACHE_SLOTS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    context: u32,
    /// Version of the table the byte was resolved from. Initialized to
    /// `u64::MAX`, which no published table ever carries, so empty slots
    /// can never validate.
    version: u64,
    encoded: u8,
}

/// A per-thread decision micro-cache: the repeat-site allocation fast
/// path. A hit costs one read of the store's version and one private
/// array index — it skips the table dereference and the
/// site/expanded-block walk entirely. An entry is valid only while its
/// version equals the store's, so a snapshot publish invalidates the
/// whole cache implicitly without the publisher knowing any thread's
/// cache exists.
///
/// The cached byte is the *encoded* slot ([`DecisionTable::resolve_slot`]);
/// decoding (canary sampling included) runs per allocation through the
/// same [`DecisionTable::decode_slot`] as the uncached path, which is
/// what makes hit and miss answers bit-identical for the same
/// `(table, context, tick)`.
#[derive(Debug, Clone)]
pub struct DecisionCache {
    entries: [CacheEntry; MICRO_CACHE_SLOTS],
    hits: u64,
    misses: u64,
}

impl DecisionCache {
    /// An empty cache (every slot invalid).
    pub fn new() -> Self {
        DecisionCache {
            entries: [CacheEntry { context: 0, version: u64::MAX, encoded: 0 }; MICRO_CACHE_SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn slot_of(context: u32) -> usize {
        // Fold the site id onto the stack state so neither alone decides
        // the slot (hot sites differ in their high half, hot stacks in
        // their low half).
        ((context >> 16) ^ context) as usize & (MICRO_CACHE_SLOTS - 1)
    }

    /// [`DecisionTable::advise_for_alloc`] through the cache: identical
    /// answers, and a hit never touches the table.
    #[inline]
    pub fn advise_for_alloc(
        &mut self,
        store: &DecisionStore,
        context: u32,
        tick: u32,
    ) -> Option<u8> {
        let version = store.version();
        let entry = &mut self.entries[Self::slot_of(context)];
        if entry.context == context && entry.version == version {
            self.hits += 1;
            return DecisionTable::decode_slot(entry.encoded, tick);
        }
        self.misses += 1;
        let encoded = store.current.borrow().resolve_slot(context);
        *entry = CacheEntry { context, version, encoded };
        DecisionTable::decode_slot(encoded, tick)
    }

    /// Drains the hit/miss counters (flushed to telemetry at safepoints).
    pub fn take_counters(&mut self) -> (u64, u64) {
        let c = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        c
    }
}

impl Default for DecisionCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(u32, u8)]) -> BTreeMap<u32, u8> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn empty_table_advises_nothing() {
        let t = DecisionTable::empty_with_geometry(64, 16);
        assert_eq!(t.version(), 0);
        assert!(t.is_empty());
        assert_eq!(t.advise(5 << 16), None);
    }

    #[test]
    fn digest_tracks_observable_decisions_only() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let a = DecisionTable::next_from(&prev, &rows(&[(5 << 16, 3), (9 << 16, 1)]), []);
        let b = DecisionTable::next_from(&prev, &rows(&[(9 << 16, 1), (5 << 16, 3)]), []);
        assert_eq!(a.digest(), b.digest(), "same decisions, same digest");
        let c = DecisionTable::next_from(&prev, &rows(&[(5 << 16, 4), (9 << 16, 1)]), []);
        assert_ne!(a.digest(), c.digest(), "a changed generation changes the digest");
        let canary = DecisionTable::next_from_blended(&prev, &rows(&[(5 << 16, 3)]), [], |_| true);
        let plain = DecisionTable::next_from(&prev, &rows(&[(5 << 16, 3)]), []);
        assert_ne!(canary.digest(), plain.digest(), "canary status is observable");
        assert_eq!(DecisionTable::empty().digest(), DecisionTable::empty().digest());
    }

    #[test]
    fn site_decisions_alias_all_stack_states() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let t = DecisionTable::next_from(&prev, &rows(&[(5 << 16, 3)]), []);
        assert_eq!(t.version(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.advise(5 << 16), Some(3));
        assert_eq!(t.advise((5 << 16) | 7), Some(3), "tss aliases into the site row");
        assert_eq!(t.advise(6 << 16), None);
    }

    #[test]
    fn expanded_sites_split_stack_states() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let t = DecisionTable::next_from(&prev, &rows(&[((5 << 16) | 2, 7)]), [5u16]);
        assert_eq!(t.advise((5 << 16) | 2), Some(7));
        assert_eq!(t.advise((5 << 16) | 3), None, "sibling stack state undecided");
        assert_eq!(t.advise(5 << 16), None);
    }

    #[test]
    fn generation_zero_and_fifteen_are_representable() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let t = DecisionTable::next_from(&prev, &rows(&[(1 << 16, 0), (2 << 16, 15)]), []);
        assert_eq!(t.advise(1 << 16), Some(0));
        assert_eq!(t.advise(2 << 16), Some(15));
    }

    #[test]
    fn changed_rows_counts_differences_from_previous_version() {
        let v0 = DecisionTable::empty_with_geometry(64, 16);
        let v1 = DecisionTable::next_from(&v0, &rows(&[(1 << 16, 2), (2 << 16, 5)]), []);
        assert_eq!(v1.changed_rows(), 2);
        // One key keeps its value, one changes, one disappears, one is new.
        let v2 = DecisionTable::next_from(&v1, &rows(&[(1 << 16, 2), (3 << 16, 4)]), []);
        assert_eq!(v2.changed_rows(), 2, "2<<16 dropped, 3<<16 added, 1<<16 unchanged");
        assert_eq!(v2.version(), 2);
    }

    #[test]
    fn iter_reports_sorted_row_keys() {
        let v0 = DecisionTable::empty_with_geometry(64, 16);
        let t = DecisionTable::next_from(&v0, &rows(&[((5 << 16) | 3, 7), (2 << 16, 1)]), [5u16]);
        let all: Vec<(u32, u8)> = t.iter().collect();
        assert_eq!(all, vec![(2 << 16, 1), ((5 << 16) | 3, 7)]);
    }

    #[test]
    fn canary_rows_sample_one_in_stride_to_young() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let t = DecisionTable::next_from_blended(
            &prev,
            &rows(&[(5 << 16, 3), (6 << 16, 7)]),
            [],
            |key| key == 5 << 16,
        );
        // Plain reads mask the flag: both rows advise their generation.
        assert_eq!(t.advise(5 << 16), Some(3));
        assert_eq!(t.advise(6 << 16), Some(7));
        assert!(t.is_canary(5 << 16));
        assert!(!t.is_canary(6 << 16));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(5 << 16, 3), (6 << 16, 7)]);

        // The alloc path diverts the flagged row on stride ticks only.
        assert_eq!(t.advise_for_alloc(5 << 16, 0), None, "stride tick goes young");
        assert_eq!(t.advise_for_alloc(5 << 16, CANARY_STRIDE), None);
        assert_eq!(t.advise_for_alloc(5 << 16, 1), Some(3));
        assert_eq!(t.advise_for_alloc(5 << 16, CANARY_STRIDE - 1), Some(3));
        // Unflagged rows never sample.
        assert_eq!(t.advise_for_alloc(6 << 16, 0), Some(7));

        // Changed-rows accounting compares masked decisions: republishing
        // the same generations with the same flags is a no-op publish.
        let t2 =
            DecisionTable::next_from_blended(&t, &rows(&[(5 << 16, 3), (6 << 16, 7)]), [], |key| {
                key == 5 << 16
            });
        assert_eq!(t2.changed_rows(), 0);
    }

    #[test]
    fn canary_flag_reaches_expanded_blocks() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let key = (5u32 << 16) | 2;
        let t = DecisionTable::next_from_blended(&prev, &rows(&[(key, 7)]), [5u16], |k| k == key);
        assert_eq!(t.advise(key), Some(7));
        assert!(t.is_canary(key));
        assert_eq!(t.advise_for_alloc(key, 0), None);
        assert_eq!(t.advise_for_alloc(key, 3), Some(7));
        assert_eq!(t.advise_for_alloc((5 << 16) | 3, 0), None, "sibling tss undecided");
    }

    #[test]
    fn resolve_and_decode_compose_to_advise_for_alloc() {
        let prev = DecisionTable::empty_with_geometry(64, 16);
        let t = DecisionTable::next_from_blended(
            &prev,
            &rows(&[(5 << 16, 3), ((7 << 16) | 2, 9)]),
            [7u16],
            |key| key == 5 << 16,
        );
        for context in [5 << 16, (5 << 16) | 1, (7 << 16) | 2, (7 << 16) | 3, 6 << 16] {
            for tick in [0, 1, CANARY_STRIDE - 1, CANARY_STRIDE, 12345] {
                assert_eq!(
                    DecisionTable::decode_slot(t.resolve_slot(context), tick),
                    t.advise_for_alloc(context, tick),
                    "context {context:#x} tick {tick}"
                );
            }
        }
    }

    #[test]
    fn micro_cache_answers_match_the_direct_path() {
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(64, 16));
        let v1 = DecisionTable::next_from_blended(
            &store.load(),
            &rows(&[(5 << 16, 3), (9 << 16, 1)]),
            [],
            |key| key == 5 << 16,
        );
        store.publish(v1);
        let mut cache = DecisionCache::new();
        // Repeat sites: first read misses, repeats hit, answers identical
        // — including canary ticks served from the cache.
        for tick in 0..200u32 {
            for context in [5 << 16, 9 << 16, 3 << 16] {
                assert_eq!(
                    cache.advise_for_alloc(&store, context, tick),
                    store.load().advise_for_alloc(context, tick),
                    "context {context:#x} tick {tick}"
                );
            }
        }
        let (hits, misses) = cache.take_counters();
        assert_eq!(hits + misses, 600);
        assert_eq!(misses, 3, "one compulsory miss per distinct context");
        assert_eq!(cache.take_counters(), (0, 0), "counters drained");
    }

    #[test]
    fn publish_invalidates_micro_cache_entries() {
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(64, 16));
        let mut cache = DecisionCache::new();
        let context = 4 << 16;
        assert_eq!(cache.advise_for_alloc(&store, context, 1), None);
        let v1 = DecisionTable::next_from(&store.load(), &rows(&[(context, 11)]), []);
        store.publish(v1);
        // The stale entry must not answer: the store version moved.
        assert_eq!(cache.advise_for_alloc(&store, context, 1), Some(11));
        let (hits, misses) = cache.take_counters();
        assert_eq!((hits, misses), (0, 2), "both reads crossed a version");
        // And after the reload the new version is served from the cache.
        assert_eq!(cache.advise_for_alloc(&store, context, 1), Some(11));
        assert_eq!(cache.take_counters(), (1, 0));
    }

    #[test]
    fn store_publish_bumps_version_and_load_sees_it() {
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(64, 16));
        assert_eq!(store.version(), 0);
        let next = DecisionTable::next_from(&store.load(), &rows(&[(9 << 16, 4)]), []);
        assert_eq!(store.publish(next), 1);
        assert_eq!(store.version(), 1);
        assert_eq!(store.load().advise(9 << 16), Some(4));
    }

    #[test]
    fn old_snapshot_stays_consistent_across_a_publish() {
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(64, 16));
        let v1 = DecisionTable::next_from(&store.load(), &rows(&[(1 << 16, 2)]), []);
        store.publish(v1);

        // The mutator grabs its epoch snapshot...
        let held = store.load();
        assert_eq!(held.version(), 1);

        // ...a publish lands while it is held...
        let v2 = DecisionTable::next_from(&store.load(), &rows(&[(1 << 16, 9)]), []);
        store.publish(v2);

        // ...the held snapshot still reads version-1 decisions, while the
        // next load observes the new version.
        assert_eq!(held.version(), 1);
        assert_eq!(held.advise(1 << 16), Some(2));
        assert_eq!(store.load().version(), 2);
        assert_eq!(store.load().advise(1 << 16), Some(9));
    }

    #[test]
    fn store_retains_only_the_current_table() {
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(64, 16));
        let v0 = Rc::downgrade(&store.load());
        let v1 = DecisionTable::next_from(&store.load(), &rows(&[(2 << 16, 5)]), []);
        store.publish(v1);
        assert!(v0.upgrade().is_none(), "a replaced table is freed once no holder remains");
        assert_eq!(store.load().version(), 1);
    }
}
