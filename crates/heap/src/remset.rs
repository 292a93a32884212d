//! Remembered sets.
//!
//! Evacuating a region requires finding every reference into it from
//! outside the collection set without scanning the whole heap. As in G1,
//! each region keeps a *remembered set* of heap slots that held an
//! incoming cross-region reference at write-barrier time. Entries may be
//! stale (the slot has since been overwritten or its holder died); the
//! evacuator re-validates each slot before using it. Once a collection has
//! released regions, the sets drop the slots those regions held
//! ([`Heap::purge_remsets`](crate::Heap::purge_remsets)).

use std::collections::HashSet;

use crate::object::ObjectRef;
use crate::region::RegionId;

/// A heap slot: a word location `(region, word offset)` holding a
/// reference field, stamped with the holding region's assignment epoch.
///
/// The epoch makes stale entries detectable: if the region was released
/// and recycled since the entry was recorded, its epoch differs and the
/// evacuator must not dereference (let alone write through) the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotAddr {
    /// Region holding the slot.
    pub region: RegionId,
    /// Word offset of the slot within the region.
    pub offset: u32,
    /// `Region::assigned_epoch` of the holding region at record time.
    pub epoch: u64,
}

/// The remembered set of one region: slots that pointed into it.
///
/// Slots whose holder region has been released since they were recorded
/// are dropped by [`RememberedSet::drop_stale`]; the set counts them, so a
/// collection of this region still charges every slot recorded since the
/// last [`RememberedSet::clear`].
#[derive(Debug, Clone, Default)]
pub struct RememberedSet {
    slots: HashSet<SlotAddr>,
    /// Slots dropped since the last clear because their holder was released.
    dropped: u64,
}

impl RememberedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `slot` held a reference into this region.
    pub fn record(&mut self, slot: SlotAddr) {
        self.slots.insert(slot);
    }

    /// Drops all entries and the dropped count, keeping the table's
    /// storage for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.dropped = 0;
    }

    /// Drops every slot for which `holder_live` is false and adds them to
    /// [`RememberedSet::dropped`]. The table shrinks once it is at least
    /// four times larger than what it keeps.
    pub fn drop_stale(&mut self, holder_live: impl Fn(&SlotAddr) -> bool) {
        let before = self.slots.len();
        self.slots.retain(holder_live);
        self.dropped += (before - self.slots.len()) as u64;
        if self.slots.capacity() >= 4 * self.slots.len() {
            self.slots.shrink_to(2 * self.slots.len());
        }
    }

    /// Slots dropped since the last clear. Each of them was stored once,
    /// and none can be recorded again: a holder never gets its released
    /// epoch back.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of stored slots (possibly stale).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when exactly `slot` is stored.
    pub fn contains(&self, slot: &SlotAddr) -> bool {
        self.slots.contains(slot)
    }

    /// Iterates all stored slots.
    pub fn iter(&self) -> impl Iterator<Item = &SlotAddr> {
        self.slots.iter()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<SlotAddr>()) as u64
    }
}

/// Decides whether a reference store needs a remembered-set entry: the
/// source and destination live in different regions and the value is not
/// null.
pub fn needs_barrier(src_region: RegionId, value: ObjectRef) -> bool {
    !value.is_null() && value.region() != src_region
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_idempotent() {
        let mut rs = RememberedSet::new();
        let s = SlotAddr { region: RegionId(1), offset: 42, epoch: 1 };
        rs.record(s);
        rs.record(s);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_storage() {
        let mut rs = RememberedSet::new();
        assert_eq!(rs.memory_bytes(), 0, "a new set owns no table");
        rs.record(SlotAddr { region: RegionId(1), offset: 1, epoch: 1 });
        rs.record(SlotAddr { region: RegionId(2), offset: 2, epoch: 1 });
        let bytes = rs.memory_bytes();
        assert!(bytes > 0);
        rs.clear();
        assert!(rs.is_empty());
        assert_eq!(rs.memory_bytes(), bytes);
    }

    #[test]
    fn drop_stale_counts_and_shrinks() {
        let mut rs = RememberedSet::new();
        for offset in 0..1000 {
            rs.record(SlotAddr { region: RegionId(offset % 2), offset, epoch: 1 });
        }
        let bytes = rs.memory_bytes();
        rs.drop_stale(|s| s.region == RegionId(0) && s.offset < 100);
        assert_eq!((rs.len(), rs.dropped()), (50, 950));
        assert!(rs.memory_bytes() * 4 <= bytes, "the table shrank");
        rs.drop_stale(|_| false);
        assert_eq!((rs.len(), rs.dropped(), rs.memory_bytes()), (0, 1000, 0));
        rs.clear();
        assert_eq!(rs.dropped(), 0, "clear resets the count");
    }

    #[test]
    fn barrier_filter() {
        let here = RegionId(3);
        assert!(!needs_barrier(here, ObjectRef::NULL));
        assert!(!needs_barrier(here, ObjectRef::new(RegionId(3), 8)));
        assert!(needs_barrier(here, ObjectRef::new(RegionId(4), 8)));
    }
}
