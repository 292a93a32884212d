//! Heap regions.
//!
//! The heap is a fixed-size array of equally sized regions (G1-style).
//! Each region is a bump-allocated arena of 8-byte words; a region belongs
//! to exactly one space at a time and is recycled through the free list
//! after evacuation.
//!
//! A region's words are stored four at a time, and a page is created by
//! the first non-zero write into it. Pages never written read as zero.
//! Object payloads are opaque to the collectors and mostly never written,
//! so the host holds little more than headers and references. A page map
//! of `u16` region-local indices locates the stored pages, which are
//! allocated in fixed-size chunks. A released region drops its map and
//! pages but keeps its simulated capacity, which is what the heap counts
//! as committed.

use crate::remset::RememberedSet;
use crate::ObjectHeader;

/// Words per backing page.
const PAGE_WORDS: usize = 4;

/// One backing page.
type Page = [u64; PAGE_WORDS];

/// Pages per storage chunk.
const CHUNK_PAGES: usize = 64;

/// A fixed-size block of page storage (2 KiB).
type Chunk = [Page; CHUNK_PAGES];

/// Page-map entry of a page that holds no storage (all its words read zero).
const ABSENT: u16 = u16::MAX;

/// The most pages one region can store: every `u16` but [`ABSENT`].
const MAX_PAGES: usize = ABSENT as usize;

/// The largest region, in words, whose every page a `u16` page map can
/// address. [`Heap::new`](crate::Heap::new) rejects larger regions.
pub const MAX_REGION_WORDS: usize = MAX_PAGES * PAGE_WORDS;

/// The contents of a page that was never written non-zero.
const ZERO_PAGE: Page = [0; PAGE_WORDS];

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
    /// Simulated size in words: set by assignment, kept on release.
    capacity: usize,
    /// One entry per page: the page's storage index, or `ABSENT`. Empty
    /// until the first non-zero write after assignment.
    page_map: Vec<u16>,
    /// Storage for the pages that have received a non-zero write; storage
    /// index `i` is page `i % CHUNK_PAGES` of chunk `i / CHUNK_PAGES`.
    #[allow(clippy::vec_box)] // growing moves pointers, not pages, and leaves no spare chunks
    chunks: Vec<Box<Chunk>>,
    /// Pages stored, in storage-index order.
    stored: usize,
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
    /// Monotone epoch of the last assignment. Remembered-set slots carry
    /// it so a slot into a region since released and reassigned is
    /// dropped as stale, and the regional collector compares it with the
    /// heap epochs it recorded at the start of its last collections to
    /// count the collections a region has been through (its age).
    pub assigned_epoch: u64,
    /// Whether `live_bytes` reflects a marking that happened *after* the
    /// last assignment. Freshly assigned regions have unknown liveness;
    /// treating their 0 as "all garbage" would make collectors evacuate
    /// fully live regions.
    pub liveness_valid: bool,
    /// Bytes of dead objects that markings turned into fillers
    /// ([`Region::fill_dead`]) since the last assignment. The object walk
    /// skips fillers, so later markings count these bytes as dead from
    /// here.
    pub filled_dead_bytes: u64,
}

impl Region {
    /// Creates an unassigned region of capacity 0 that holds no storage.
    pub fn new() -> Self {
        Region {
            capacity: 0,
            page_map: Vec::new(),
            chunks: Vec::new(),
            stored: 0,
            top: 0,
            kind: RegionKind::Free,
            live_bytes: 0,
            rset: RememberedSet::new(),
            assigned_epoch: 0,
            liveness_valid: false,
            filled_dead_bytes: 0,
        }
    }

    /// Assigns the region to a space with a capacity of `region_words`.
    /// Every word reads zero: a free region holds no pages.
    pub fn assign(&mut self, kind: RegionKind, region_words: usize, epoch: u64) {
        debug_assert!(matches!(self.kind, RegionKind::Free), "assigning a non-free region");
        self.capacity = region_words;
        self.top = 0;
        self.kind = kind;
        self.live_bytes = 0;
        self.rset.clear();
        self.assigned_epoch = epoch;
        self.liveness_valid = false;
        self.filled_dead_bytes = 0;
    }

    /// Returns the region to the free list. The capacity is kept, so the
    /// heap still counts the region as committed (mirrors
    /// `-XX:+AlwaysPreTouch`-style behaviour), but the pages and the
    /// remembered set's table are freed: a free region owns no storage, so
    /// host memory tracks live data.
    pub fn release(&mut self) {
        self.kind = RegionKind::Free;
        self.top = 0;
        self.live_bytes = 0;
        self.page_map = Vec::new();
        self.chunks = Vec::new();
        self.stored = 0;
        self.rset = RememberedSet::new();
        self.liveness_valid = false;
        self.filled_dead_bytes = 0;
    }

    /// Bump-allocates `words` words; returns the offset of the first word
    /// or `None` if the region is full.
    pub fn bump(&mut self, words: usize) -> Option<u32> {
        if self.top + words > self.capacity {
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
        self.capacity
    }

    /// Bytes allocated in this region so far.
    pub fn used_bytes(&self) -> u64 {
        (self.top * 8) as u64
    }

    /// Garbage bytes according to the last liveness information.
    pub fn garbage_bytes(&self) -> u64 {
        self.used_bytes().saturating_sub(self.live_bytes)
    }

    /// True when the region is assigned and `epoch` is its current
    /// assignment epoch: a slot stamped with `epoch` still names this
    /// assignment.
    pub fn holds_epoch(&self, epoch: u64) -> bool {
        !matches!(self.kind, RegionKind::Free) && self.assigned_epoch == epoch
    }

    /// Host bytes held by the page map and the page chunks.
    pub fn backing_bytes(&self) -> u64 {
        (self.page_map.capacity() * size_of::<u16>()
            + self.chunks.capacity() * size_of::<Box<Chunk>>()
            + self.chunks.len() * size_of::<Chunk>()) as u64
    }

    /// The first non-zero word at or past the allocation frontier, if any.
    /// Allocation relies on fresh bump space reading zero.
    pub(crate) fn first_dirty_word_past_top(&self) -> Option<u32> {
        let top = self.top;
        (top / PAGE_WORDS..self.page_map.len()).find_map(|page| {
            let base = page * PAGE_WORDS;
            let from = top.saturating_sub(base);
            let k = self.page(page)[from..].iter().position(|&w| w != 0)?;
            Some((base + from + k) as u32)
        })
    }

    /// Reads a word.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below the capacity.
    #[inline]
    pub fn word(&self, offset: u32) -> u64 {
        let o = offset as usize;
        self.check_range(o, 1);
        self.page(o / PAGE_WORDS)[o % PAGE_WORDS]
    }

    /// Writes a word. Writing zero into a page with no storage does nothing.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below the capacity, or if the write needs
    /// a page beyond the 65,535 a region can store (only a region larger
    /// than [`MAX_REGION_WORDS`] can get there).
    #[inline]
    pub fn set_word(&mut self, offset: u32, value: u64) {
        let o = offset as usize;
        self.check_range(o, 1);
        if let Some(page) = self.page_mut(o / PAGE_WORDS, value != 0) {
            page[o % PAGE_WORDS] = value;
        }
    }

    /// Turns the dead words `from..from + words` into one filler: the first
    /// word becomes a filler word spanning the range, and every other word
    /// reads zero. Pages left all zero keep their storage until
    /// [`Region::release_zero_pages`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn fill_dead(&mut self, from: u32, words: usize) {
        let (start, end) = (from as usize, from as usize + words);
        self.check_range(start, words);
        self.set_word(from, ObjectHeader::filler_word(words));
        for page in (start + 1) / PAGE_WORDS..end.div_ceil(PAGE_WORDS) {
            let base = page * PAGE_WORDS;
            let (lo, hi) = ((start + 1).max(base) - base, end.min(base + PAGE_WORDS) - base);
            if let Some(p) = self.page_mut(page, false) {
                p[lo..hi].fill(0);
            }
        }
        self.filled_dead_bytes += words as u64 * 8;
    }

    /// Drops the storage of every page that reads all zero, repacking the
    /// rest in page order.
    pub fn release_zero_pages(&mut self) {
        let mut chunks: Vec<Box<Chunk>> = Vec::new();
        let mut stored = 0;
        for slot in self.page_map.iter_mut().filter(|s| **s != ABSENT) {
            let old = *slot as usize;
            let page = self.chunks[old / CHUNK_PAGES][old % CHUNK_PAGES];
            if page == ZERO_PAGE {
                *slot = ABSENT;
                continue;
            }
            if stored % CHUNK_PAGES == 0 {
                chunks.push(Box::new([ZERO_PAGE; CHUNK_PAGES]));
            }
            chunks[stored / CHUNK_PAGES][stored % CHUNK_PAGES] = page;
            *slot = stored as u16;
            stored += 1;
        }
        self.chunks = chunks;
        self.stored = stored;
    }

    /// Copies `words` words starting at `src_offset` in `src` into this
    /// region at `dst_offset`, one source page at a time. A source page
    /// with no storage creates no page here.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds, or as [`Region::set_word`]
    /// does when this region runs out of storable pages.
    pub fn copy_from(&mut self, src: &Region, src_offset: u32, dst_offset: u32, words: usize) {
        let (s, d) = (src_offset as usize, dst_offset as usize);
        src.check_range(s, words);
        self.check_range(d, words);
        let mut done = 0;
        while done < words {
            let at = s + done;
            let within = at % PAGE_WORDS;
            let n = (PAGE_WORDS - within).min(words - done);
            self.write_words(d + done, &src.page(at / PAGE_WORDS)[within..within + n]);
            done += n;
        }
    }

    /// Writes `values` starting at word `at`, one destination page at a
    /// time; an all-zero run into a page with no storage is skipped.
    fn write_words(&mut self, at: usize, values: &[u64]) {
        let mut done = 0;
        while done < values.len() {
            let o = at + done;
            let within = o % PAGE_WORDS;
            let run = &values[done..values.len().min(done + PAGE_WORDS - within)];
            if let Some(page) = self.page_mut(o / PAGE_WORDS, run.iter().any(|&w| w != 0)) {
                page[within..within + run.len()].copy_from_slice(run);
            }
            done += run.len();
        }
    }

    #[inline]
    fn check_range(&self, offset: usize, words: usize) {
        assert!(
            offset + words <= self.capacity,
            "words {offset}..{} outside a region of {} words",
            offset + words,
            self.capacity
        );
    }

    /// Page `page`'s words; the zero page if it holds no storage.
    #[inline]
    fn page(&self, page: usize) -> &Page {
        match self.page_map.get(page) {
            Some(&slot) if slot != ABSENT => {
                let slot = slot as usize;
                &self.chunks[slot / CHUNK_PAGES][slot % CHUNK_PAGES]
            }
            _ => &ZERO_PAGE,
        }
    }

    /// Page `page`'s storage; created first if it has none and `create`.
    ///
    /// # Panics
    ///
    /// Panics if the region already stores [`MAX_PAGES`] pages, which only
    /// a humongous region larger than [`MAX_REGION_WORDS`] can reach.
    #[inline]
    fn page_mut(&mut self, page: usize, create: bool) -> Option<&mut Page> {
        let slot = match self.page_map.get(page) {
            Some(&slot) if slot != ABSENT => slot as usize,
            _ if !create => return None,
            _ => {
                if self.page_map.is_empty() {
                    self.page_map = vec![ABSENT; self.capacity.div_ceil(PAGE_WORDS)];
                }
                let slot = self.stored;
                assert!(
                    slot < MAX_PAGES,
                    "a region of {} words stores at most {MAX_PAGES} non-zero pages",
                    self.capacity
                );
                if slot.is_multiple_of(CHUNK_PAGES) {
                    self.chunks.push(Box::new([ZERO_PAGE; CHUNK_PAGES]));
                }
                self.stored += 1;
                self.page_map[page] = slot as u16;
                slot
            }
        };
        Some(&mut self.chunks[slot / CHUNK_PAGES][slot % CHUNK_PAGES])
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
    fn release_frees_storage_but_keeps_capacity() {
        let mut r = Region::new();
        r.assign(RegionKind::Old, 16, 1);
        r.bump(10).unwrap();
        r.set_word(3, 7);
        for offset in 0..100 {
            r.rset.record(crate::remset::SlotAddr { region: RegionId(2), offset, epoch: 1 });
        }
        assert!(r.backing_bytes() > 0);
        r.release();
        assert_eq!(r.kind, RegionKind::Free);
        assert_eq!(r.top(), 0);
        assert_eq!(r.capacity_words(), 16, "the capacity stays committed");
        assert_eq!(r.backing_bytes(), 0, "the pages are freed");
        assert_eq!(r.rset.memory_bytes(), 0, "the remembered set's table is freed");
        r.assign(RegionKind::Eden, 16, 2);
        assert_eq!(r.word(3), 0, "a reassigned region reads zero");
    }

    #[test]
    fn a_filled_dead_range_reads_as_one_filler_and_frees_its_pages() {
        let mut r = Region::new();
        r.assign(RegionKind::Dynamic(3), 64, 1);
        r.bump(64).unwrap();
        for offset in 0..64 {
            r.set_word(offset, offset as u64 + 1);
        }
        r.fill_dead(6, 40);
        assert!(ObjectHeader::is_filler_word(r.word(6)));
        assert_eq!(ObjectHeader::filler_size_words(r.word(6)), 40);
        assert!((7..46).all(|o| r.word(o) == 0), "the rest of the range reads zero");
        assert!((0..6).chain(46..64).all(|o| r.word(o) == o as u64 + 1), "neighbours kept");
        assert_eq!(r.filled_dead_bytes, 320);

        r.release_zero_pages();
        // Pages 2..=10 (words 8..44) lay wholly inside the range.
        assert_eq!(r.stored, 16 - 9);
        assert!(ObjectHeader::is_filler_word(r.word(6)));
        assert!((0..6).chain(46..64).all(|o| r.word(o) == o as u64 + 1), "repacked intact");
        r.set_word(20, 5);
        assert_eq!((r.word(20), r.stored), (5, 8), "a later write stores its page again");
        r.release();
        assert_eq!(r.filled_dead_bytes, 0);
    }

    #[test]
    fn zero_writes_create_no_pages() {
        let mut r = Region::new();
        r.assign(RegionKind::Eden, 64, 1);
        for offset in 0..64 {
            r.set_word(offset, 0);
        }
        assert_eq!(r.backing_bytes(), 0);
        r.set_word(9, 1);
        assert_eq!(r.stored, 1, "one page holds word 9");
        r.set_word(11, 2);
        assert_eq!(r.stored, 1, "word 11 shares word 9's page");
        r.set_word(12, 3);
        assert_eq!(r.stored, 2, "word 12 starts the next page");
        assert_eq!(r.page_map.len(), 16, "one map entry per four words");
        assert_eq!(r.chunks.len(), 1, "one chunk holds both pages");
        assert_eq!((r.word(8), r.word(9), r.word(11), r.word(12), r.word(13)), (0, 1, 2, 3, 0));
    }

    #[test]
    fn pages_fill_fixed_size_chunks() {
        let mut r = Region::new();
        r.assign(RegionKind::Old, 1024, 1);
        for page in 0..=CHUNK_PAGES {
            r.set_word((page * PAGE_WORDS) as u32, page as u64 + 1);
        }
        assert_eq!(r.stored, CHUNK_PAGES + 1);
        assert_eq!(r.chunks.len(), 2, "the 65th page opens a second chunk");
        for page in 0..=CHUNK_PAGES {
            assert_eq!(r.word((page * PAGE_WORDS) as u32), page as u64 + 1);
        }
    }

    #[test]
    fn the_largest_region_stores_every_page() {
        let mut r = Region::new();
        r.assign(RegionKind::Humongous, MAX_REGION_WORDS, 1);
        for page in (0..MAX_PAGES).rev() {
            r.set_word((page * PAGE_WORDS + 3) as u32, page as u64 + 1);
        }
        assert_eq!(r.stored, MAX_PAGES);
        for page in 0..MAX_PAGES {
            let at = (page * PAGE_WORDS) as u32;
            assert_eq!((r.word(at), r.word(at + 3)), (0, page as u64 + 1), "page {page}");
        }
        // One page more than a u16 map can address.
        let mut big = Region::new();
        big.assign(RegionKind::Humongous, MAX_REGION_WORDS + PAGE_WORDS, 1);
        for page in 0..MAX_PAGES {
            big.set_word((page * PAGE_WORDS) as u32, 1);
        }
        let last = (MAX_PAGES * PAGE_WORDS) as u32;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| big.set_word(last, 1)))
            .expect_err("the 65536th page does not fit the map");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("stores at most 65535 non-zero pages"), "{msg}");
    }

    #[test]
    fn copy_from_skips_pages_with_no_storage() {
        let mut a = Region::new();
        let mut b = Region::new();
        a.assign(RegionKind::Eden, 64, 1);
        b.assign(RegionKind::Old, 64, 1);
        a.set_word(3, 5);
        b.copy_from(&a, 3, 10, 40);
        assert_eq!(b.word(10), 5);
        assert_eq!(b.stored, 1, "only the page holding word 10 exists");
        // Copying zeros over written words clears them.
        b.copy_from(&a, 20, 8, 8);
        assert_eq!(b.word(10), 0);
    }

    #[test]
    fn dirty_word_past_top_is_found() {
        let mut r = Region::new();
        r.assign(RegionKind::Eden, 32, 1);
        r.bump(12).unwrap();
        r.set_word(11, 1);
        assert_eq!(r.first_dirty_word_past_top(), None);
        r.set_word(13, 1);
        assert_eq!(r.first_dirty_word_past_top(), Some(13));
        r.unbump(4);
        assert_eq!(r.first_dirty_word_past_top(), Some(11));
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
