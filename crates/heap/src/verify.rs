//! Heap invariant verification (test and debug support).
//!
//! A verifier pass over the whole heap that checks structural invariants
//! collectors rely on. It is deliberately slow and exhaustive; tests and
//! the property suites call it after mutation/collection sequences.

use std::collections::HashSet;

use crate::heap::{Heap, OBJECT_HEADER_WORDS};
use crate::object::ObjectRef;
use crate::region::{RegionId, RegionKind};
use crate::remset::SlotAddr;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An object's size word is smaller than the minimum object size or
    /// walks past the region frontier.
    CorruptLayout { obj: ObjectRef, detail: String },
    /// A reference field points outside any allocated object.
    DanglingRef { from: ObjectRef, field: u16, to: ObjectRef },
    /// A reachable object is still forwarded after a completed collection.
    StaleForwarding { obj: ObjectRef },
    /// A root handle points outside any allocated object.
    BadRoot { to: ObjectRef },
    /// A cross-region reference has no remembered-set entry stamped with
    /// its holder region's current epoch.
    MissingRemsetEntry { from: ObjectRef, field: u16, to: ObjectRef },
    /// A free region's remembered set has entries or still owns storage.
    RetainedRemset { region: RegionId },
    /// A free region's page map or pages still own storage.
    RetainedBacking { region: RegionId },
    /// `region`'s remembered set stores a slot whose `holder` region is
    /// free or has been reassigned since the slot was recorded: it should
    /// have been dropped when the holder was released. Reported once per
    /// region, for its lowest such slot.
    StaleRemsetSlot { region: RegionId, holder: RegionId },
    /// A non-zero word at or past the region's allocation frontier.
    /// Allocation does not write data words, so fresh bump space must
    /// read zero.
    DirtyFrontier { region: RegionId, offset: u32 },
}

/// Verifies the whole heap; returns all violations found.
///
/// A free region must own an empty remembered set and no pages: both are
/// freed with the region, so host memory tracks live data. An assigned
/// region's remembered set must store no slot whose holder was released.
/// Every word at or past a region's frontier must read zero.
///
/// `check_remsets` additionally validates remembered-set completeness
/// (every live cross-region reference must be covered by an entry); this is
/// only meaningful directly after a collection that rebuilt liveness.
pub fn verify_heap(heap: &Heap, check_remsets: bool) -> Vec<VerifyError> {
    let mut errors = Vec::new();

    // Live (un-retired) TLAB gaps read zero and hold no objects yet; the
    // walk skips them the same way it skips retirement fillers, so
    // verification is valid between safepoints too.
    let tlab_gaps: std::collections::HashMap<(RegionId, u32), u32> = heap
        .live_tlab_gaps()
        .into_iter()
        .map(|(region, cursor, limit)| ((region, cursor), limit))
        .collect();

    // Pass 1: walk every region and record valid object start offsets.
    let mut valid: HashSet<ObjectRef> = HashSet::new();
    for (id, region) in heap.regions() {
        if matches!(region.kind, RegionKind::Free) {
            if region.rset.memory_bytes() > 0 {
                errors.push(VerifyError::RetainedRemset { region: id });
            }
            if region.backing_bytes() > 0 {
                errors.push(VerifyError::RetainedBacking { region: id });
            }
        } else {
            let stale = region.rset.iter().filter(|s| !heap.region(s.region).holds_epoch(s.epoch));
            if let Some(slot) = stale.min_by_key(|s| (s.region, s.offset, s.epoch)) {
                errors.push(VerifyError::StaleRemsetSlot { region: id, holder: slot.region });
            }
        }
        if let Some(offset) = region.first_dirty_word_past_top() {
            errors.push(VerifyError::DirtyFrontier { region: id, offset });
        }
        if matches!(region.kind, RegionKind::Free | RegionKind::HumongousCont) {
            continue;
        }
        let mut cursor = 0u32;
        while (cursor as usize) < region.top() {
            if let Some(&limit) = tlab_gaps.get(&(id, cursor)) {
                cursor = limit;
                continue;
            }
            // TLAB retirement fillers are dead space, not objects.
            let word = region.word(cursor);
            if crate::header::ObjectHeader::is_filler_word(word) {
                let skip = crate::header::ObjectHeader::filler_size_words(word) as u32;
                if skip == 0 || cursor as usize + skip as usize > region.top() {
                    errors.push(VerifyError::CorruptLayout {
                        obj: ObjectRef::new(id, cursor),
                        detail: format!("filler of {skip} words at top {}", region.top()),
                    });
                    break;
                }
                cursor += skip;
                continue;
            }
            let obj = ObjectRef::new(id, cursor);
            let size = heap.size_words(obj);
            if size < OBJECT_HEADER_WORDS || cursor as usize + size as usize > region.top() {
                errors.push(VerifyError::CorruptLayout {
                    obj,
                    detail: format!("size {size} at top {}", region.top()),
                });
                break;
            }
            valid.insert(obj);
            cursor += size;
        }
    }

    // Pass 2: check refs, forwarding, and remset coverage.
    for &obj in &valid {
        let header = heap.header(obj);
        if header.is_forwarded() {
            // Forwarded headers are only legal mid-collection; verify runs
            // only at rest.
            errors.push(VerifyError::StaleForwarding { obj });
            continue;
        }
        for i in 0..heap.ref_words(obj) {
            let to = heap.get_ref(obj, i);
            if to.is_null() {
                continue;
            }
            if !valid.contains(&to) {
                errors.push(VerifyError::DanglingRef { from: obj, field: i, to });
                continue;
            }
            if check_remsets && to.region() != obj.region() {
                let slot = SlotAddr {
                    region: obj.region(),
                    offset: obj.offset() + OBJECT_HEADER_WORDS + i as u32,
                    epoch: heap.region(obj.region()).assigned_epoch,
                };
                if !heap.region(to.region()).rset.contains(&slot) {
                    errors.push(VerifyError::MissingRemsetEntry { from: obj, field: i, to });
                }
            }
        }
    }

    // Pass 3: roots must point at valid objects.
    for root in heap.handles.roots() {
        if !valid.contains(&root) {
            errors.push(VerifyError::BadRoot { to: root });
        }
    }

    errors
}

/// Panics with a readable report if the heap has violations.
pub fn assert_heap_valid(heap: &Heap, check_remsets: bool) {
    let errors = verify_heap(heap, check_remsets);
    assert!(
        errors.is_empty(),
        "heap verification failed with {} error(s); first: {:?}",
        errors.len(),
        errors.first()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassId;
    use crate::header::ObjectHeader;
    use crate::heap::{HeapConfig, SpaceKind};

    fn heap() -> Heap {
        let mut h = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 16 * 1024 });
        h.classes.register("t.A");
        h
    }

    #[test]
    fn clean_heap_verifies() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 1, ObjectHeader::new(1)).unwrap();
        let b = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 1, ObjectHeader::new(2)).unwrap();
        h.set_ref(a, 0, b);
        h.handles.create(a);
        assert_eq!(verify_heap(&h, true), vec![]);
    }

    #[test]
    fn detects_dangling_reference() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(1)).unwrap();
        // Point into the middle of nowhere (a non-object offset).
        let bogus = ObjectRef::new(a.region(), 999_999);
        // Bypass set_ref's barrier since the target region id is invalid;
        // write the raw word directly.
        let off = a.offset() + OBJECT_HEADER_WORDS;
        let region = a.region();
        h.region_mut(region).set_word(off, bogus.raw());
        let errs = verify_heap(&h, false);
        assert!(matches!(errs.as_slice(), [VerifyError::DanglingRef { .. }]));
    }

    #[test]
    fn detects_stale_forwarding() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 0, 0, ObjectHeader::new(1)).unwrap();
        let _a2 = h.copy_object(a, SpaceKind::Old).unwrap();
        let errs = verify_heap(&h, false);
        assert!(errs.iter().any(|e| matches!(e, VerifyError::StaleForwarding { .. })));
    }

    #[test]
    fn detects_missing_remset_entry() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(1)).unwrap();
        let b = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 0, ObjectHeader::new(2)).unwrap();
        h.set_ref(a, 0, b);
        // Forge: wipe the remset that the barrier just filled.
        let region = b.region();
        h.region_mut(region).rset.clear();
        let errs = verify_heap(&h, true);
        assert!(errs.iter().any(|e| matches!(e, VerifyError::MissingRemsetEntry { .. })));
    }

    /// A slot left by a recycled holder at the same offset, but stamped
    /// with the holder's old epoch, does not cover a live reference.
    #[test]
    fn stale_same_offset_slot_does_not_mask_a_missing_entry() {
        let mut h = heap();
        let b = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 0, ObjectHeader::new(1)).unwrap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(2)).unwrap();
        h.set_ref(a, 0, b);
        // Recycle a's region and allocate again at the same offset.
        h.retire_current(SpaceKind::Eden);
        h.release_region(a.region());
        let a2 = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(3)).unwrap();
        assert_eq!(a2, a, "same region, same offset");
        // A store that skipped the barrier: only the old epoch's slot names
        // this offset.
        let off = a2.offset() + OBJECT_HEADER_WORDS;
        h.region_mut(a2.region()).set_word(off, b.raw());
        h.handles.create(a2);
        let errs = verify_heap(&h, true);
        assert!(
            errs.iter().any(|e| matches!(e, VerifyError::MissingRemsetEntry { .. })),
            "the stale slot hid the missing entry: {errs:?}"
        );
    }

    #[test]
    fn detects_stale_remset_slot() {
        let mut h = heap();
        let b = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 0, ObjectHeader::new(1)).unwrap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(2)).unwrap();
        h.set_ref(a, 0, b);
        h.handles.create(b);
        let (region, holder) = (b.region(), a.region());
        let epoch = h.region(holder).assigned_epoch;
        h.retire_current(SpaceKind::Eden);
        h.release_region(holder);
        assert_eq!(verify_heap(&h, true), vec![VerifyError::StaleRemsetSlot { region, holder }]);
        h.purge_remsets();
        assert_eq!(verify_heap(&h, true), vec![]);
        let rset = &h.region(region).rset;
        assert_eq!((rset.len(), rset.dropped()), (0, 1));
        // Once the holder is reassigned, its old epoch's slot is stale too.
        let c = h.alloc_in(SpaceKind::Eden, ClassId(0), 0, 0, ObjectHeader::new(3)).unwrap();
        assert_eq!(c.region(), holder);
        assert!(h.region(holder).assigned_epoch > epoch);
        let offset = a.offset() + OBJECT_HEADER_WORDS;
        h.region_mut(region).rset.record(SlotAddr { region: holder, offset, epoch });
        assert_eq!(verify_heap(&h, true), vec![VerifyError::StaleRemsetSlot { region, holder }]);
    }

    #[test]
    fn fillers_between_objects_verify_clean() {
        use crate::heap::TlabAlloc;
        let mut h = heap();
        // Two threads carve from the same eden region (chunks shrunk below
        // the region size); retiring thread 0's partially used buffer
        // stamps a filler between the live objects.
        h.set_tlab_bytes(256);
        let a = match h.tlab_alloc(0, SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(1)) {
            TlabAlloc::Refilled(o) => o,
            other => panic!("expected refill, got {other:?}"),
        };
        let b = match h.tlab_alloc(1, SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(2)) {
            TlabAlloc::Refilled(o) => o,
            other => panic!("expected refill, got {other:?}"),
        };
        h.set_ref(a, 0, b);
        h.handles.create(a);
        h.retire_all_tlabs();
        assert!(h.stats().tlab_fillers >= 1, "a filler was stamped");
        assert_eq!(verify_heap(&h, true), vec![]);
    }

    #[test]
    fn released_region_frees_its_remembered_set() {
        let mut h = heap();
        let target = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 0, ObjectHeader::new(1)).unwrap();
        // Cross-region refs from eden into the old region fill its set.
        for i in 0..32 {
            let src = h.alloc_in(SpaceKind::Eden, ClassId(0), 1, 0, ObjectHeader::new(i)).unwrap();
            assert_ne!(src.region(), target.region());
            h.set_ref(src, 0, target);
            // Drop the reference again so the release leaves no dangling
            // slot behind; the (now stale) entries stay in the set.
            h.set_ref(src, 0, ObjectRef::NULL);
        }
        let region = target.region();
        assert!(h.region(region).rset.len() >= 32);
        h.release_region(region);
        assert_eq!(h.region(region).rset.memory_bytes(), 0);
        assert_eq!(verify_heap(&h, true), vec![]);
    }

    #[test]
    fn detects_retained_remset() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 0, ObjectHeader::new(1)).unwrap();
        let region = a.region();
        h.release_region(region);
        // Forge: a free region that records, or keeps a cleared table.
        let slot = SlotAddr { region: RegionId(0), offset: 0, epoch: 0 };
        h.region_mut(region).rset.record(slot);
        assert_eq!(verify_heap(&h, false), vec![VerifyError::RetainedRemset { region }]);
        h.region_mut(region).rset.clear();
        assert_eq!(verify_heap(&h, false), vec![VerifyError::RetainedRemset { region }]);
    }

    #[test]
    fn detects_retained_backing() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Old, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
        let region = a.region();
        assert!(h.backing_bytes() > 0);
        h.release_region(region);
        assert_eq!(h.backing_bytes(), 0);
        assert_eq!(verify_heap(&h, false), vec![]);
        // Forge: a free region whose page was written and zeroed again
        // still owns storage.
        h.region_mut(region).set_word(2, 9);
        h.region_mut(region).set_word(2, 0);
        assert_eq!(verify_heap(&h, false), vec![VerifyError::RetainedBacking { region }]);
    }

    #[test]
    fn detects_dirty_frontier() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
        let (region, offset) = (a.region(), h.region(a.region()).top() as u32 + 3);
        // Forge: a stale word past the frontier, which the next allocation
        // would expose as data.
        h.region_mut(region).set_word(offset, 42);
        assert_eq!(verify_heap(&h, false), vec![VerifyError::DirtyFrontier { region, offset }]);
    }

    #[test]
    fn detects_bad_root() {
        let mut h = heap();
        let a = h.alloc_in(SpaceKind::Eden, ClassId(0), 0, 0, ObjectHeader::new(1)).unwrap();
        h.handles.create(ObjectRef::new(a.region(), 555));
        let errs = verify_heap(&h, false);
        assert!(errs.iter().any(|e| matches!(e, VerifyError::BadRoot { .. })));
    }
}
