//! Heap regions.
//!
//! The heap is a fixed-size array of equally sized regions (G1-style).
//! Each region is a bump-allocated arena of 8-byte words; a region belongs
//! to exactly one space at a time and is recycled through the free list
//! after evacuation.

use crate::remset::RememberedSet;

/// Index of a region within the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// The space a region currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Unassigned, on the free list.
    Free,
    /// Young-generation allocation region.
    Eden,
    /// Young-generation survivor region.
    Survivor,
    /// Tenured region (G1 old generation / CMS old space).
    Old,
    /// NG2C dynamic generation `g` (1..=14); generation 0 is the young
    /// generation and 15 is the old generation (paper §7.1).
    Dynamic(u8),
    /// A region holding a single humongous object (first region).
    Humongous,
    /// Continuation of a humongous object spanning multiple regions.
    HumongousCont,
}

impl RegionKind {
    /// True for regions holding young-generation objects.
    pub fn is_young(self) -> bool {
        matches!(self, RegionKind::Eden | RegionKind::Survivor)
    }

    /// True for regions subject to allocation (not free, not humongous
    /// continuation).
    pub fn is_allocatable(self) -> bool {
        !matches!(self, RegionKind::Free | RegionKind::HumongousCont)
    }
}

/// One heap region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Backing words. Allocated lazily on first assignment to a space.
    words: Vec<u64>,
    /// Bump pointer: next free word index.
    top: usize,
    /// Current space.
    pub kind: RegionKind,
    /// Live bytes found by the last marking/evacuation over this region.
    pub live_bytes: u64,
    /// References into this region from other regions (see [`remset`]).
    ///
    /// [`remset`]: crate::remset
    pub rset: RememberedSet,
    /// Monotone epoch of the last assignment, used to age regions for
    /// mixed-collection candidate selection.
    pub assigned_epoch: u64,
    /// Whether `live_bytes` reflects a marking that happened *after* the
    /// last assignment. Freshly assigned regions have unknown liveness;
    /// treating their 0 as "all garbage" would make collectors evacuate
    /// fully live regions.
    pub liveness_valid: bool,
}

impl Region {
    /// Creates an unassigned region; backing memory is not yet committed.
    pub fn new() -> Self {
        Region {
            words: Vec::new(),
            top: 0,
            kind: RegionKind::Free,
            live_bytes: 0,
            rset: RememberedSet::new(),
            assigned_epoch: 0,
            liveness_valid: false,
        }
    }

    /// Commits backing memory and assigns the region to a space.
    pub fn assign(&mut self, kind: RegionKind, region_words: usize, epoch: u64) {
        debug_assert!(matches!(self.kind, RegionKind::Free), "assigning a non-free region");
        if self.words.len() != region_words {
            self.words = vec![0; region_words];
        }
        self.top = 0;
        self.kind = kind;
        self.live_bytes = 0;
        self.rset.clear();
        self.assigned_epoch = epoch;
        self.liveness_valid = false;
    }

    /// Returns the region to the free list. Backing words stay committed
    /// for reuse (mirrors `-XX:+AlwaysPreTouch`-style behaviour; the heap
    /// tracks committed bytes separately). The remembered set's storage
    /// is freed: a free region owns no table, so host memory does not keep
    /// the largest set the region ever held.
    pub fn release(&mut self) {
        self.kind = RegionKind::Free;
        self.top = 0;
        self.live_bytes = 0;
        self.rset = RememberedSet::new();
        self.liveness_valid = false;
    }

    /// Bump-allocates `words` words; returns the offset of the first word
    /// or `None` if the region is full.
    pub fn bump(&mut self, words: usize) -> Option<u32> {
        if self.top + words > self.words.len() {
            return None;
        }
        let at = self.top;
        self.top += words;
        Some(at as u32)
    }

    /// Next free word index (the allocation frontier).
    pub fn top(&self) -> usize {
        self.top
    }

    /// Rolls the allocation frontier back to `to`. Only valid for TLAB
    /// retirement when the retiring buffer is the last carve in the
    /// region (its limit *is* the frontier), so the unused tail can be
    /// returned instead of stamped with a filler.
    ///
    /// # Panics
    ///
    /// Debug-panics if `to` is ahead of the current frontier.
    pub fn unbump(&mut self, to: u32) {
        debug_assert!((to as usize) <= self.top, "unbump past the frontier");
        self.top = to as usize;
    }

    /// Capacity in words (0 until first assignment).
    pub fn capacity_words(&self) -> usize {
        self.words.len()
    }

    /// Bytes allocated in this region so far.
    pub fn used_bytes(&self) -> u64 {
        (self.top * 8) as u64
    }

    /// Garbage bytes according to the last liveness information.
    pub fn garbage_bytes(&self) -> u64 {
        self.used_bytes().saturating_sub(self.live_bytes)
    }

    /// Reads a word.
    #[inline]
    pub fn word(&self, offset: u32) -> u64 {
        self.words[offset as usize]
    }

    /// Writes a word.
    #[inline]
    pub fn set_word(&mut self, offset: u32, value: u64) {
        self.words[offset as usize] = value;
    }

    /// Copies `words` words starting at `src_offset` in `src` into this
    /// region at `dst_offset`. Both ranges must be in bounds.
    pub fn copy_from(&mut self, src: &Region, src_offset: u32, dst_offset: u32, words: usize) {
        let s = src_offset as usize;
        let d = dst_offset as usize;
        self.words[d..d + words].copy_from_slice(&src.words[s..s + words]);
    }
}

impl Default for Region {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_until_full() {
        let mut r = Region::new();
        r.assign(RegionKind::Eden, 8, 1);
        assert_eq!(r.bump(3), Some(0));
        assert_eq!(r.bump(3), Some(3));
        assert_eq!(r.bump(3), None);
        assert_eq!(r.bump(2), Some(6));
        assert_eq!(r.top(), 8);
    }

    #[test]
    fn release_resets_but_keeps_memory() {
        let mut r = Region::new();
        r.assign(RegionKind::Old, 16, 1);
        r.bump(10).unwrap();
        for offset in 0..100 {
            r.rset.record(crate::remset::SlotAddr { region: RegionId(2), offset, epoch: 1 });
        }
        r.release();
        assert_eq!(r.kind, RegionKind::Free);
        assert_eq!(r.top(), 0);
        assert_eq!(r.capacity_words(), 16, "backing words stay committed");
        assert_eq!(r.rset.memory_bytes(), 0, "the remembered set's table is freed");
    }

    #[test]
    fn unbump_returns_the_tail() {
        let mut r = Region::new();
        r.assign(RegionKind::Eden, 8, 1);
        assert_eq!(r.bump(6), Some(0));
        r.unbump(2);
        assert_eq!(r.top(), 2);
        assert_eq!(r.bump(6), Some(2));
    }

    #[test]
    fn words_read_back_what_was_written() {
        let mut r = Region::new();
        r.assign(RegionKind::Eden, 4, 1);
        r.set_word(2, 0xDEAD_BEEF);
        assert_eq!(r.word(2), 0xDEAD_BEEF);
    }

    #[test]
    fn copy_from_moves_object_images() {
        let mut a = Region::new();
        let mut b = Region::new();
        a.assign(RegionKind::Eden, 8, 1);
        b.assign(RegionKind::Old, 8, 1);
        for i in 0..4 {
            a.set_word(i, i as u64 + 100);
        }
        b.copy_from(&a, 1, 5, 3);
        assert_eq!(b.word(5), 101);
        assert_eq!(b.word(7), 103);
    }

    #[test]
    fn garbage_accounting() {
        let mut r = Region::new();
        r.assign(RegionKind::Old, 100, 1);
        r.bump(50).unwrap();
        r.live_bytes = 100; // 100 bytes live out of 400 used
        assert_eq!(r.used_bytes(), 400);
        assert_eq!(r.garbage_bytes(), 300);
    }
}
