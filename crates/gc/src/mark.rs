//! Heap tracing (marking).
//!
//! A full transitive-closure mark from the root handles, producing
//! per-region live-byte counts. G1-like collectors run this as their
//! concurrent marking phase (its cost queued on the environment's
//! marking account, plus a short remark pause); the full compaction and
//! the CMS sweep consume its results directly.

use std::collections::{HashMap, HashSet};

use rolp_heap::{Heap, ObjectRef, RegionKind};

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
}

/// Marks the heap from the root handles, updating every region's
/// `live_bytes`.
///
/// # Panics
///
/// Panics (debug) if a forwarded header is encountered — marking must only
/// run on a heap at rest.
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
    result
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn empty_roots_mark_nothing() {
        let mut h = heap();
        let _a = alloc(&mut h, SpaceKind::Eden, 0, 0);
        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 0);
        assert_eq!(r.live_bytes, 0);
    }
}
