//! Parallel GC worker pool: atomic mark bitmap, work-stealing marking,
//! and the read-only remembered-set prescan.
//!
//! Pauses parallelize on three invariants that keep the parallel result
//! byte-identical to the single-threaded reference:
//!
//! - **Exactly-once claiming.** [`MarkBitmap`] gives every object one
//!   atomic mark bit (`fetch_or`); whichever worker wins the claim owns
//!   the object's accounting, so per-worker partial results are disjoint
//!   and their merge is a plain sum — commutative, hence independent of
//!   the racy claim order.
//! - **Read-only fan-out, sequential apply.** The remembered-set prescan
//!   ([`prescan_remsets`]) validates slots against the quiescent heap
//!   with no writes at all; the (order-sensitive) forwarding writes stay
//!   on the coordinator, consuming the prescan's sorted verdicts.
//! - **Work stealing over static partitions.** Workers claim work from
//!   shared cursors ([`rolp_heap::RegionClaimer`]-style) and steal from
//!   each other's deques, so one dense region cannot serialize the
//!   pause.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use rolp_heap::remset::SlotAddr;
use rolp_heap::{Heap, ObjectRef, RegionId, RegionKind};

use crate::mark::{mark_liveness, MarkResult};

/// One atomic mark bit per heap word (an object is marked at its header
/// word), claimable exactly once.
pub struct MarkBitmap {
    words_per_region: usize,
    bits: Box<[AtomicU64]>,
}

impl MarkBitmap {
    /// A cleared bitmap sized for `heap`.
    pub fn for_heap(heap: &Heap) -> Self {
        Self::new(heap.num_regions(), heap.region_words())
    }

    /// A cleared bitmap for `num_regions` regions of `words_per_region`
    /// words.
    pub fn new(num_regions: usize, words_per_region: usize) -> Self {
        let bits = num_regions * words_per_region;
        MarkBitmap {
            words_per_region,
            bits: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn locate(&self, obj: ObjectRef) -> (usize, u64) {
        let bit = obj.region().0 as usize * self.words_per_region + obj.offset() as usize;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Atomically claims `obj`'s mark bit; true if this caller won.
    #[inline]
    pub fn try_claim(&self, obj: ObjectRef) -> bool {
        let (word, mask) = self.locate(obj);
        self.bits[word].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// True if `obj` has been claimed.
    pub fn is_marked(&self, obj: ObjectRef) -> bool {
        let (word, mask) = self.locate(obj);
        self.bits[word].load(Ordering::Relaxed) & mask != 0
    }
}

/// A worker's private share of the mark results. Objects are claimed
/// exactly once, so partials are disjoint and merging is summation.
#[derive(Default)]
struct MarkPartial {
    live_objects: u64,
    live_bytes: u64,
    marked: Vec<ObjectRef>,
    context_live: HashMap<u32, u64>,
    region_live: HashMap<u32, u64>,
}

/// Marks the heap from the root handles using `workers` work-stealing OS
/// threads, updating every region's `live_bytes`.
///
/// `workers <= 1` falls through to the sequential
/// [`crate::mark::mark_liveness`], the deterministic reference; the
/// parallel path produces an identical [`MarkResult`] because all merge
/// operations commute.
pub fn mark_liveness_parallel(heap: &mut Heap, workers: usize) -> MarkResult {
    if workers <= 1 {
        return mark_liveness(heap);
    }

    // Reset liveness of every assigned region (as the sequential pass
    // does), while we still hold the heap mutably.
    let ids: Vec<_> = heap.regions().map(|(id, _)| id).collect();
    for id in ids {
        let r = heap.region_mut(id);
        if !matches!(r.kind, RegionKind::Free) {
            r.live_bytes = 0;
            r.liveness_valid = true;
        }
    }

    let bitmap = MarkBitmap::for_heap(heap);
    let deques: Vec<Mutex<VecDeque<ObjectRef>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Seed the deques round-robin with the (deduplicated) roots.
    for (i, root) in heap.handles.roots().enumerate() {
        if bitmap.try_claim(root) {
            deques[i % workers].lock().unwrap().push_back(root);
        }
    }

    let idle = AtomicUsize::new(0);
    let shared: &Heap = heap;
    let partials: Vec<MarkPartial> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let (bitmap, deques, idle) = (&bitmap, &deques, &idle);
                s.spawn(move || mark_worker(shared, bitmap, deques, idle, me, workers))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mark worker panicked")).collect()
    });

    let mut result = MarkResult::default();
    let mut region_live: HashMap<u32, u64> = HashMap::new();
    for partial in partials {
        result.live_objects += partial.live_objects;
        result.live_bytes += partial.live_bytes;
        result.marked.extend(partial.marked);
        for (ctx, n) in partial.context_live {
            *result.context_live.entry(ctx).or_insert(0) += n;
        }
        for (region, bytes) in partial.region_live {
            *region_live.entry(region).or_insert(0) += bytes;
        }
    }
    for (region, bytes) in region_live {
        heap.region_mut(RegionId(region)).live_bytes += bytes;
    }
    result
}

fn mark_worker(
    heap: &Heap,
    bitmap: &MarkBitmap,
    deques: &[Mutex<VecDeque<ObjectRef>>],
    idle: &AtomicUsize,
    me: usize,
    workers: usize,
) -> MarkPartial {
    let mut partial = MarkPartial::default();
    loop {
        // Own deque first (LIFO for locality), then steal (FIFO). One
        // statement per lock: a guard held across a second `lock()`
        // would deadlock two workers stealing from each other.
        let mut next = deques[me].lock().unwrap().pop_back();
        if next.is_none() {
            for d in 1..workers {
                next = deques[(me + d) % workers].lock().unwrap().pop_front();
                if next.is_some() {
                    break;
                }
            }
        }
        match next {
            Some(obj) => {
                // This worker won `obj`'s claim: all of its accounting
                // lands in this partial, exactly once.
                debug_assert!(!heap.header(obj).is_forwarded(), "marking over a forwarded object");
                let size_bytes = heap.size_words(obj) as u64 * 8;
                partial.live_objects += 1;
                partial.live_bytes += size_bytes;
                partial.marked.push(obj);
                if let Some(ctx) = heap.header(obj).allocation_context() {
                    if ctx != 0 {
                        *partial.context_live.entry(ctx).or_insert(0) += 1;
                    }
                }
                *partial.region_live.entry(obj.region().0).or_insert(0) += size_bytes;
                let mut own = deques[me].lock().unwrap();
                for i in 0..heap.ref_words(obj) {
                    let v = heap.get_ref(obj, i);
                    if !v.is_null() && bitmap.try_claim(v) {
                        own.push_back(v);
                    }
                }
            }
            None => {
                // Termination: a worker is counted idle only while it is
                // inside this loop, and work is only produced by
                // non-idle workers — so `idle == workers` means every
                // deque is empty and stays empty.
                idle.fetch_add(1, Ordering::SeqCst);
                loop {
                    if deques.iter().any(|d| !d.lock().unwrap().is_empty()) {
                        idle.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                    if idle.load(Ordering::SeqCst) == workers {
                        return partial;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Fans `work` out over the indices of `items` on a shared-cursor worker
/// pool, returning the results in input order.
///
/// This is the pool idiom the remembered-set prescan uses: workers claim
/// indices from one atomic cursor, each result lands in its index's slot,
/// and the output order matches `items` regardless of how the claim race
/// resolves. `workers <= 1` (or a single item) runs inline on the caller
/// — the deterministic reference the parallel path must match.
pub fn fan_out_indexed<T, R, F>(items: &[T], workers: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            let (cursor, results, work) = (&cursor, &results, &work);
            s.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                *results[idx].lock().unwrap() = Some(work(idx, item));
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every index claimed exactly once"))
        .collect()
}

/// A remembered-set slot that survived prescan validation: it still holds
/// a reference into the collection set and must be forwarded.
#[derive(Debug, Clone, Copy)]
pub struct ValidSlot {
    /// The validated slot.
    pub slot: SlotAddr,
    /// The collection-set reference the slot held at prescan time.
    pub value: ObjectRef,
}

/// Result of [`prescan_remsets`].
#[derive(Debug, Default)]
pub struct RemsetPrescan {
    /// Valid slots per collection-set region, parallel to the input
    /// `cset` order, each list sorted by `(region, offset, epoch)`.
    pub valid: Vec<Vec<ValidSlot>>,
    /// Total slots examined (valid or stale) — the pause-accounting
    /// figure the cost model charges.
    pub slots_examined: u64,
}

/// Validates the collection set's remembered-set slots in parallel,
/// read-only, against the quiescent (world-stopped) heap.
///
/// Safe to run before any forwarding because validation only reads state
/// the evacuator's remset pass never changes: cset membership, holder
/// region epochs/kinds/tops, and slot words of *non*-cset holders (the
/// evacuator rewrites those only after this prescan). The verdicts are
/// sorted, so the output is independent of how workers split the regions.
pub fn prescan_remsets(
    heap: &Heap,
    cset: &[RegionId],
    in_cset: &[bool],
    workers: usize,
) -> RemsetPrescan {
    let slots_examined = AtomicU64::new(0);
    let validate_region = |&r: &RegionId| -> Vec<ValidSlot> {
        let mut valid: Vec<ValidSlot> = Vec::new();
        let mut examined = 0u64;
        for slot in heap.region(r).rset.iter() {
            examined += 1;
            if in_cset[slot.region.0 as usize] {
                continue; // covered by transitive scanning
            }
            let holder = heap.region(slot.region);
            if holder.assigned_epoch != slot.epoch
                || matches!(holder.kind, RegionKind::Free)
                || (slot.offset as usize) >= holder.top()
            {
                continue; // stale: recycled holder or truncated slot
            }
            let value = ObjectRef::from_raw(holder.word(slot.offset));
            if value.is_null() || !in_cset[value.region().0 as usize] {
                continue; // overwritten since recording
            }
            valid.push(ValidSlot { slot: *slot, value });
        }
        // The remembered set hashes its slots; sort so neither the
        // hasher nor the worker split leaks into evacuation order.
        valid.sort_unstable_by_key(|v| (v.slot.region.0, v.slot.offset, v.slot.epoch));
        slots_examined.fetch_add(examined, Ordering::Relaxed);
        valid
    };

    let valid: Vec<Vec<ValidSlot>> = fan_out_indexed(cset, workers, |_, r| validate_region(r));

    RemsetPrescan { valid, slots_examined: slots_examined.into_inner() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_heap::{ClassId, HeapConfig, ObjectHeader, SpaceKind};

    fn heap() -> Heap {
        let mut h = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 64 * 1024 });
        h.classes.register("t.A");
        h
    }

    fn alloc(h: &mut Heap, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
        let hash = h.next_identity_hash();
        h.alloc_in(space, ClassId(0), refs, data, ObjectHeader::new(hash)).unwrap()
    }

    #[test]
    fn bitmap_claims_exactly_once() {
        let bm = MarkBitmap::new(4, 128);
        let a = ObjectRef::new(RegionId(1), 64);
        let b = ObjectRef::new(RegionId(1), 65);
        assert!(!bm.is_marked(a));
        assert!(bm.try_claim(a));
        assert!(!bm.try_claim(a), "second claim loses");
        assert!(bm.is_marked(a));
        assert!(!bm.is_marked(b), "adjacent bit untouched");
        assert!(bm.try_claim(b));
    }

    #[test]
    fn bitmap_concurrent_claims_are_exclusive() {
        let bm = std::sync::Arc::new(MarkBitmap::new(8, 128));
        let wins = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (bm, wins) = (std::sync::Arc::clone(&bm), std::sync::Arc::clone(&wins));
                s.spawn(move || {
                    for region in 0..8u32 {
                        for offset in 0..128u32 {
                            if bm.try_claim(ObjectRef::new(RegionId(region), offset)) {
                                wins.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 8 * 128, "each bit claimed exactly once");
    }

    fn build_graph(h: &mut Heap) -> (ObjectRef, ObjectRef) {
        // A chain and a fan-out crossing regions, plus garbage.
        let root = alloc(h, SpaceKind::Eden, 4, 0);
        let mut prev = root;
        for i in 0..40 {
            let space = if i % 3 == 0 { SpaceKind::Old } else { SpaceKind::Eden };
            let next = alloc(h, space, 2, i % 7);
            h.set_ref(prev, 0, next);
            prev = next;
        }
        let shared = alloc(h, SpaceKind::Old, 0, 3);
        h.set_ref(root, 1, shared);
        h.set_ref(prev, 1, shared);
        // A cycle.
        h.set_ref(prev, 0, root);
        let dead = alloc(h, SpaceKind::Eden, 0, 5);
        h.handles.create(root);
        (root, dead)
    }

    #[test]
    fn parallel_mark_matches_sequential_reference() {
        let mut h1 = heap();
        let (_, dead1) = build_graph(&mut h1);
        let mut h2 = heap();
        let (_, _) = build_graph(&mut h2);

        let seq = mark_liveness(&mut h1);
        let par = mark_liveness_parallel(&mut h2, 4);

        assert_eq!(par.live_objects, seq.live_objects);
        assert_eq!(par.live_bytes, seq.live_bytes);
        assert_eq!(par.marked, seq.marked);
        assert_eq!(par.context_live, seq.context_live);
        assert!(!par.marked.contains(&dead1));
        // Per-region liveness matches too.
        for (id, r1) in h1.regions() {
            assert_eq!(h2.region(id).live_bytes, r1.live_bytes, "region {id:?}");
        }
    }

    #[test]
    fn parallel_mark_with_one_worker_is_the_sequential_path() {
        let mut h = heap();
        build_graph(&mut h);
        let r = mark_liveness_parallel(&mut h, 1);
        assert!(r.live_objects > 0);
    }

    #[test]
    fn fan_out_preserves_input_order_at_any_worker_count() {
        let items: Vec<u32> = (0..37).collect();
        let f = |i: usize, &v: &u32| (i as u32) * 1000 + v * 2;
        let seq = fan_out_indexed(&items, 1, f);
        for workers in [2, 4, 16, 64] {
            assert_eq!(fan_out_indexed(&items, workers, f), seq);
        }
        assert!(fan_out_indexed(&Vec::<u32>::new(), 4, f).is_empty());
    }

    #[test]
    fn prescan_is_worker_count_independent() {
        let mut h = heap();
        // Objects in eden referenced from old regions (remset entries).
        let eden: Vec<ObjectRef> = (0..12).map(|i| alloc(&mut h, SpaceKind::Eden, 0, i)).collect();
        for &e in &eden {
            let holder = alloc(&mut h, SpaceKind::Old, 1, 0);
            h.set_ref(holder, 0, e); // write barrier records the slot
            h.handles.create(holder);
        }
        let cset = h.regions_of_kind(RegionKind::Eden);
        let mut in_cset = vec![false; h.num_regions()];
        for r in &cset {
            in_cset[r.0 as usize] = true;
        }
        let p1 = prescan_remsets(&h, &cset, &in_cset, 1);
        let p4 = prescan_remsets(&h, &cset, &in_cset, 4);
        assert_eq!(p1.slots_examined, p4.slots_examined);
        assert!(p1.slots_examined >= 12);
        assert_eq!(p1.valid.len(), p4.valid.len());
        for (a, b) in p1.valid.iter().zip(&p4.valid) {
            let key = |v: &ValidSlot| (v.slot.region.0, v.slot.offset, v.slot.epoch, v.value);
            assert_eq!(
                a.iter().map(key).collect::<Vec<_>>(),
                b.iter().map(key).collect::<Vec<_>>()
            );
        }
    }
}
