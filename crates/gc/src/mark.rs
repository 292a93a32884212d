//! Heap tracing (marking).
//!
//! A full transitive-closure mark from the root handles, producing
//! per-region live-byte counts, followed by a scrub of every unmarked
//! object's reference fields. G1-like collectors run this as their
//! concurrent marking phase (its cost queued on the environment's
//! marking account, plus a short remark pause); the full compaction and
//! the CMS sweep consume its results directly.
//!
//! The scrub is what HotSpot's G1 gets from its mark bitmap: after
//! marking, a dead object no longer roots anything. A remembered-set
//! slot held by a dead object reads `NULL`, so young and mixed
//! collections stop copying garbage that only dead tenured objects
//! reference, and a collector may release any region marking found dead
//! without leaving dead objects elsewhere pointing into it (DESIGN §4).

use std::collections::{HashMap, HashSet};

use rolp_heap::remset::SlotAddr;
use rolp_heap::{Heap, ObjectRef, RegionKind};
use rolp_telemetry::CounterId;
use rolp_vm::VmEnv;

/// Result of a marking pass.
#[derive(Debug, Clone, Default)]
pub struct MarkResult {
    /// Reachable objects.
    pub live_objects: u64,
    /// Reachable bytes.
    pub live_bytes: u64,
    /// The set of reachable objects (by current location).
    pub marked: HashSet<ObjectRef>,
    /// Live objects per allocation context (objects whose headers carry a
    /// valid, non-biased context). Feeds the leak-detection use-case the
    /// paper sketches in §2.2: a context whose live population only grows
    /// is a leak suspect.
    pub context_live: HashMap<u32, u64>,
    /// Unreachable objects the scrub walked.
    pub dead_objects: u64,
    /// Their bytes. Collectors price the walk over them per mark-bitmap
    /// byte, one per 64 heap bytes (see `queue_marking`).
    pub dead_bytes: u64,
    /// Non-`NULL` reference fields the scrub cleared in dead objects.
    pub refs_scrubbed: u64,
}

/// Marks the heap from the root handles, updating every region's
/// `live_bytes`, then clears every reference field of every unmarked
/// object, so that no dead object roots garbage (see the module docs).
///
/// # Panics
///
/// Panics (debug) if a forwarded header is encountered — marking must only
/// run on a heap at rest, with its allocation buffers retired so that the
/// scrub's region walk can parse every region.
pub fn mark_liveness(heap: &mut Heap) -> MarkResult {
    // Reset liveness of every assigned region.
    let ids: Vec<_> = heap.regions().map(|(id, _)| id).collect();
    for id in ids {
        let r = heap.region_mut(id);
        if !matches!(r.kind, RegionKind::Free) {
            r.live_bytes = 0;
            r.liveness_valid = true;
        }
    }

    let mut result = MarkResult::default();
    let mut stack: Vec<ObjectRef> = heap.handles.roots().collect();

    while let Some(obj) = stack.pop() {
        if !result.marked.insert(obj) {
            continue;
        }
        debug_assert!(!heap.header(obj).is_forwarded(), "marking over a forwarded object");
        let size_bytes = heap.size_words(obj) as u64 * 8;
        result.live_objects += 1;
        result.live_bytes += size_bytes;
        if let Some(ctx) = heap.header(obj).allocation_context() {
            if ctx != 0 {
                *result.context_live.entry(ctx).or_insert(0) += 1;
            }
        }
        let region = obj.region();
        heap.region_mut(region).live_bytes += size_bytes;
        for i in 0..heap.ref_words(obj) {
            let v = heap.get_ref(obj, i);
            if !v.is_null() && !result.marked.contains(&v) {
                stack.push(v);
            }
        }
    }
    scrub_dead(heap, &mut result);
    result
}

/// Queues a marking pass's concurrent work on `env`'s marking account
/// ([`VmEnv::queue_concurrent_mark`]) and counts the references it
/// scrubbed. The trace is roughly bandwidth-bound like copying
/// (`copy_ns(live) / 2`). The scrub finds dead objects the way G1 does,
/// by skipping unmarked ranges of the mark bitmap: it reads one bitmap
/// byte per 64 dead heap bytes at the trace rate
/// (`copy_ns(dead / 64) / 2`). Returns the nanoseconds queued.
pub(crate) fn queue_marking(env: &mut VmEnv, mark: &MarkResult) -> u64 {
    let ns = env.cost.copy_ns(mark.live_bytes) / 2 + env.cost.copy_ns(mark.dead_bytes / 64) / 2;
    env.queue_concurrent_mark(ns);
    env.telemetry.bump(CounterId::RefsScrubbed, mark.refs_scrubbed);
    ns
}

/// Walks every assigned region and stores `NULL` into each reference
/// field of each object the mark did not reach. A `NULL` store records no
/// write barrier, and remembered-set slots the cleared fields left behind
/// read `NULL`, which evacuation skips. Filler words are skipped by the
/// object walk, and a humongous object is walked once, from its head
/// region.
///
/// In a dynamic region each run of adjacent dead objects then becomes one
/// filler, and the pages it leaves all zero are released: a dynamic region
/// keeps its garbage until its cohort outlives its generation (DESIGN §4),
/// and the host need not hold that garbage meanwhile. Remembered-set slots
/// inside a filled run are dropped, as a released holder's are, so none
/// reads the zeroed words. The filled bytes stay counted as dead, so the
/// scrub's price does not change.
fn scrub_dead(heap: &mut Heap, result: &mut MarkResult) {
    let ids: Vec<_> = heap
        .regions()
        .filter(|(_, r)| !matches!(r.kind, RegionKind::Free | RegionKind::HumongousCont))
        .map(|(id, _)| id)
        .collect();
    let mut dead: Vec<ObjectRef> = Vec::new();
    // Runs to fill, `(region, first word, end word)`, in heap order.
    let mut runs: Vec<(u32, u32, u32)> = Vec::new();
    for id in ids {
        dead.clear();
        let first_run = runs.len();
        let fill = matches!(heap.region(id).kind, RegionKind::Dynamic(_));
        result.dead_bytes += heap.region(id).filled_dead_bytes;
        for obj in heap.objects_in_region(id) {
            if !result.marked.contains(&obj) {
                let words = heap.size_words(obj);
                result.dead_objects += 1;
                result.dead_bytes += words as u64 * 8;
                if heap.ref_words(obj) > 0 {
                    dead.push(obj);
                }
                match runs[first_run..].last_mut() {
                    Some((_, _, end)) if *end == obj.offset() => *end += words,
                    _ if fill => runs.push((id.0, obj.offset(), obj.offset() + words)),
                    _ => {}
                }
            }
        }
        for &obj in &dead {
            for i in 0..heap.ref_words(obj) {
                if !heap.get_ref(obj, i).is_null() {
                    heap.set_ref(obj, i, ObjectRef::NULL);
                    result.refs_scrubbed += 1;
                }
            }
        }
        if runs.len() > first_run {
            let r = heap.region_mut(id);
            for &(_, start, end) in &runs[first_run..] {
                r.fill_dead(start, (end - start) as usize);
            }
            r.release_zero_pages();
        }
    }
    if runs.is_empty() {
        return;
    }
    let in_run = |s: &SlotAddr| {
        let at = runs.partition_point(|&(r, start, _)| (r, start) <= (s.region.0, s.offset));
        at > 0 && runs[at - 1].0 == s.region.0 && s.offset < runs[at - 1].2
    };
    let ids: Vec<_> = heap.regions().map(|(id, _)| id).collect();
    for id in ids {
        heap.region_mut(id).rset.drop_stale(|s| !in_run(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_heap::verify::verify_heap;
    use rolp_heap::{ClassId, HeapConfig, ObjectHeader, SpaceKind};

    fn heap() -> Heap {
        let mut h = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 32 * 1024 });
        h.classes.register("t.A");
        h
    }

    fn alloc(h: &mut Heap, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
        let hash = h.next_identity_hash();
        h.alloc_in(space, ClassId(0), refs, data, ObjectHeader::new(hash)).unwrap()
    }

    #[test]
    fn marks_transitive_closure_from_roots() {
        let mut h = heap();
        let a = alloc(&mut h, SpaceKind::Eden, 1, 0);
        let b = alloc(&mut h, SpaceKind::Old, 1, 4);
        let c = alloc(&mut h, SpaceKind::Old, 0, 2);
        let dead = alloc(&mut h, SpaceKind::Eden, 0, 8);
        h.set_ref(a, 0, b);
        h.set_ref(b, 0, c);
        h.handles.create(a);

        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 3);
        assert!(r.marked.contains(&a) && r.marked.contains(&b) && r.marked.contains(&c));
        assert!(!r.marked.contains(&dead));
        let expected = (h.size_words(a) + h.size_words(b) + h.size_words(c)) as u64 * 8;
        assert_eq!(r.live_bytes, expected);
    }

    #[test]
    fn region_live_bytes_are_rebuilt() {
        let mut h = heap();
        let a = alloc(&mut h, SpaceKind::Eden, 0, 2);
        let _dead = alloc(&mut h, SpaceKind::Eden, 0, 2);
        h.handles.create(a);
        mark_liveness(&mut h);
        let region = h.region(a.region());
        assert_eq!(region.live_bytes, h.size_words(a) as u64 * 8);
        assert!(region.garbage_bytes() > 0);
    }

    #[test]
    fn cycles_terminate() {
        let mut h = heap();
        let a = alloc(&mut h, SpaceKind::Eden, 1, 0);
        let b = alloc(&mut h, SpaceKind::Eden, 1, 0);
        h.set_ref(a, 0, b);
        h.set_ref(b, 0, a);
        h.handles.create(a);
        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 2);
    }

    #[test]
    fn no_unmarked_object_holds_a_reference_after_marking() {
        let mut h = heap();
        let live = alloc(&mut h, SpaceKind::Eden, 1, 0);
        let kept = alloc(&mut h, SpaceKind::Old, 0, 2);
        let dead_old = alloc(&mut h, SpaceKind::Old, 2, 0);
        let dead_young = alloc(&mut h, SpaceKind::Eden, 1, 4);
        let dead_leaf = alloc(&mut h, SpaceKind::Eden, 0, 4);
        h.set_ref(live, 0, kept);
        // A dead tenured holder of a live and of a dead young object, and
        // a dead cycle through it.
        h.set_ref(dead_old, 0, live);
        h.set_ref(dead_old, 1, dead_young);
        h.set_ref(dead_young, 0, dead_old);
        h.handles.create(live);

        let r = mark_liveness(&mut h);
        assert_eq!(r.dead_objects, 3);
        let dead_words =
            h.size_words(dead_old) + h.size_words(dead_young) + h.size_words(dead_leaf);
        assert_eq!(r.dead_bytes, dead_words as u64 * 8);
        assert_eq!(r.refs_scrubbed, 3);
        let ids: Vec<_> = h.regions().map(|(id, _)| id).collect();
        for id in ids.into_iter().filter(|&id| !matches!(h.region(id).kind, RegionKind::Free)) {
            for obj in h.objects_in_region(id).filter(|o| !r.marked.contains(o)) {
                for i in 0..h.ref_words(obj) {
                    assert!(h.get_ref(obj, i).is_null(), "{obj:?} field {i} still holds a ref");
                }
            }
        }
        assert_eq!(h.get_ref(live, 0), kept, "live objects keep their references");
    }

    #[test]
    fn a_dynamic_regions_dead_run_becomes_one_filler_and_keeps_its_price() {
        let mut h = heap();
        let target = alloc(&mut h, SpaceKind::Eden, 0, 2);
        let live = alloc(&mut h, SpaceKind::Dynamic(2), 0, 2);
        let dead = alloc(&mut h, SpaceKind::Dynamic(2), 1, 8);
        let dead_next = alloc(&mut h, SpaceKind::Dynamic(2), 0, 8);
        let live_next = alloc(&mut h, SpaceKind::Dynamic(2), 0, 2);
        // The dead holder's store left a slot in the eden region's set.
        h.set_ref(dead, 0, target);
        for o in [target, live, live_next] {
            h.handles.create(o);
        }
        let region = live.region();
        let run_words = h.size_words(dead) + h.size_words(dead_next);

        let first = mark_liveness(&mut h);
        assert_eq!(first.dead_bytes, run_words as u64 * 8);
        assert_eq!(first.refs_scrubbed, 1);
        let walked: Vec<ObjectRef> = h.objects_in_region(region).collect();
        assert_eq!(walked, [live, live_next], "the run is one filler the walk skips");
        let words = dead.offset()..dead.offset() + run_words;
        assert!(words.skip(1).all(|o| h.region(region).word(o) == 0), "the run reads zero");
        let rset = &h.region(target.region()).rset;
        assert_eq!((rset.len(), rset.dropped()), (0, 1), "the slot is dropped, still charged");
        assert_eq!(verify_heap(&h, true), []);

        let second = mark_liveness(&mut h);
        assert_eq!(second.dead_bytes, first.dead_bytes, "filled bytes still count as dead");
        assert_eq!(second.refs_scrubbed, 0);
    }

    #[test]
    fn dead_runs_outside_dynamic_regions_are_left_as_objects() {
        let mut h = heap();
        let live = alloc(&mut h, SpaceKind::Old, 0, 2);
        let dead = alloc(&mut h, SpaceKind::Old, 0, 8);
        h.handles.create(live);
        mark_liveness(&mut h);
        let walked: Vec<ObjectRef> = h.objects_in_region(live.region()).collect();
        assert_eq!(walked, [live, dead]);
        assert_eq!(h.region(live.region()).filled_dead_bytes, 0);
    }

    #[test]
    fn empty_roots_mark_nothing() {
        let mut h = heap();
        let _a = alloc(&mut h, SpaceKind::Eden, 0, 0);
        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 0);
        assert_eq!(r.live_bytes, 0);
    }
}
