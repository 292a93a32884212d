//! Stop-the-world evacuation and full compaction.
//!
//! This is the copying machinery every stop-the-world collector here
//! shares. [`evacuate`] moves the live objects of a *collection set* of
//! regions to destination spaces chosen by a policy closure, driving:
//!
//! - root processing through the handle table,
//! - remembered-set scanning with epoch validation (stale slots in
//!   recycled regions are discarded, never written through; once a pause
//!   releases its regions, the sets drop the slots those regions held),
//! - transitive copying with forwarding pointers in object headers,
//! - age increments for survivors and per-survivor profiler callbacks,
//! - pause-time accounting from the cost model (copying is
//!   memory-bandwidth-bound, the paper's §2.1 premise).
//!
//! [`full_compact`] is the slow-path mark-compact used as G1's evacuation-
//! failure fallback and CMS's fragmentation escape hatch. It tolerates a
//! heap left half-evacuated by a failed [`evacuate`] (forwarding pointers
//! are resolved up front) and compacts with a rolling region release so it
//! can run with as little as one free region.

use std::collections::HashMap;

use rolp_heap::remset::SlotAddr;
use rolp_heap::{Heap, ObjectRef, RegionId, RegionKind, SpaceKind};
use rolp_metrics::{PauseKind, SimTime};
use rolp_telemetry::{Bucket, CounterId, HistId};
use rolp_vm::{CostModel, VmEnv};

use crate::mark::mark_liveness;
use crate::observer::GcHooks;

/// Statistics of one evacuation (or compaction) pause.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvacStats {
    /// Bytes copied.
    pub bytes_copied: u64,
    /// Objects copied (survivors).
    pub survivors: u64,
    /// Root handles examined.
    pub roots_scanned: u64,
    /// Remembered-set slots examined (valid or stale), counting the slots
    /// a set dropped since it was last cleared.
    pub remset_slots: u64,
    /// Regions in the collection set.
    pub regions_in_cset: u64,
    /// Collection-set regions released (all of them unless the evacuation
    /// failed).
    pub regions_released: u64,
    /// Collection-set regions that contained no survivor at all (the
    /// "die-together" regions NG2C aims for).
    pub regions_fully_dead: u64,
    /// Bytes copied per destination generation: index 0 for the young
    /// spaces (eden/survivor), `g` for dynamic generation `g`, and 15 for
    /// the old generation (paper Fig. 9's per-generation copy volumes).
    pub gen_bytes: [u64; 16],
}

/// The `gen_bytes` slot a destination space tallies into.
pub fn gen_index(space: SpaceKind) -> usize {
    match space {
        SpaceKind::Eden | SpaceKind::Survivor => 0,
        SpaceKind::Dynamic(g) => (g as usize).clamp(1, 14),
        SpaceKind::Old => 15,
    }
}

/// Outcome of [`evacuate`].
#[derive(Debug, Clone, Copy)]
pub struct EvacOutcome {
    /// Work performed.
    pub stats: EvacStats,
    /// True if the heap ran out of regions mid-copy; the caller must run
    /// [`full_compact`] to restore consistency.
    pub failed: bool,
    /// Pause duration charged.
    pub pause: SimTime,
}

/// Flight-recorder bookkeeping for one stop-the-world pause: emits the
/// pause event with the collector-supplied cause.
pub(crate) fn trace_pause(
    env: &mut VmEnv,
    start: SimTime,
    pause: SimTime,
    kind: PauseKind,
    stats: &EvacStats,
) {
    if !env.trace.is_enabled() {
        return;
    }
    let cause = env.trace.take_gc_cause();
    env.trace.emit_global(
        start,
        rolp_trace::EventKind::GcPause {
            kind: kind.label(),
            cause,
            duration_ns: pause.as_nanos(),
            bytes_copied: stats.bytes_copied,
            survivors: stats.survivors,
            regions_in_cset: stats.regions_in_cset,
            regions_released: stats.regions_released,
            regions_fully_dead: stats.regions_fully_dead,
            gen_bytes: stats.gen_bytes,
        },
    );
}

/// Computes the pause duration for an evacuation from its work counts.
pub fn evac_pause_ns(cost: &CostModel, stats: &EvacStats, survivor_tracking: bool) -> u64 {
    let workers = cost.gc_workers.max(1);
    let per_worker = |n: u64, each: u64| n.saturating_mul(each) / workers;
    let survivor_each =
        cost.survivor_overhead_ns + if survivor_tracking { cost.profile_survivor_ns } else { 0 };
    cost.safepoint_ns
        + per_worker(stats.roots_scanned, cost.root_scan_ns)
        + per_worker(stats.remset_slots, cost.remset_scan_ns)
        + per_worker(stats.regions_in_cset, cost.region_overhead_ns)
        + cost.copy_ns(stats.bytes_copied)
        + per_worker(stats.survivors, survivor_each)
}

/// Attributes the components of an evacuation's work to telemetry
/// buckets, term for term with [`evac_pause_ns`]: remembered-set
/// scanning → `GcRemset`, the survivor-tracking increment → the
/// collector half of `GcProfiling`, the safepoint → `GcOther`, and
/// everything else (roots, region bookkeeping, copying, survivor aging)
/// → `GcEvac`. The four parts sum exactly to `evac_pause_ns`.
fn attribute_evac_work(env: &VmEnv, stats: &EvacStats, survivor_tracking: bool) {
    let cost = &env.cost;
    let workers = cost.gc_workers.max(1);
    let per_worker = |n: u64, each: u64| n.saturating_mul(each) / workers;
    let survivor_each =
        cost.survivor_overhead_ns + if survivor_tracking { cost.profile_survivor_ns } else { 0 };
    let remset = per_worker(stats.remset_slots, cost.remset_scan_ns);
    let survivor_total = per_worker(stats.survivors, survivor_each);
    let survivor_base = per_worker(stats.survivors, cost.survivor_overhead_ns);
    let profiling = if survivor_tracking { survivor_total - survivor_base } else { 0 };
    let evac = per_worker(stats.roots_scanned, cost.root_scan_ns)
        + per_worker(stats.regions_in_cset, cost.region_overhead_ns)
        + cost.copy_ns(stats.bytes_copied)
        + survivor_total
        - profiling;
    let t = &env.telemetry;
    t.add(Bucket::GcOther, cost.safepoint_ns);
    t.add(Bucket::GcRemset, remset);
    t.add(Bucket::GcProfiling, profiling);
    t.add(Bucket::GcEvac, evac);
}

/// Records one stop-the-world pause into the live metrics plane.
pub(crate) fn telemetry_pause(env: &VmEnv, pause: SimTime) {
    env.telemetry.bump(CounterId::GcPauses, 1);
    env.telemetry.record(HistId::GcPauseNs, pause.as_nanos());
}

/// Charges one TLAB refill stall. The time lands in the GC bucket
/// ([`Bucket::GcOther`]), not application time: the mutator is stalled on
/// heap machinery, and latency decomposition must blame the collector for
/// it (see `rolp-serve`'s sum-to-wall-time invariant).
pub(crate) fn charge_refill(env: &mut VmEnv) {
    {
        let _span = env.telemetry.span(Bucket::GcOther);
        env.charge(env.cost.tlab_refill_ns);
    }
    env.telemetry.bump(CounterId::TlabRefills, 1);
}

/// A remembered-set slot that passed validation: it still holds a
/// reference into the collection set and must be forwarded.
#[derive(Debug, Clone, Copy)]
struct ValidSlot {
    slot: SlotAddr,
    /// The collection-set reference the slot held at validation time.
    value: ObjectRef,
}

/// Result of [`prescan_remsets`].
#[derive(Debug, Default)]
struct RemsetPrescan {
    /// Valid slots per collection-set region, in `cset` order, each list
    /// sorted by `(region, offset, epoch)`.
    valid: Vec<Vec<ValidSlot>>,
    /// Total slots examined (valid or stale), including the slots each set
    /// dropped since it was last cleared — the pause-accounting figure the
    /// cost model charges.
    slots_examined: u64,
}

/// Validates the collection set's remembered-set slots against the heap
/// before any object is forwarded. Skipped: slots whose holder is itself
/// in the collection set (transitive scanning covers them), stale slots
/// (recycled holder region, or an offset past its top), and slots since
/// overwritten with a reference outside the collection set. Slots a set
/// dropped after their holder was released count as examined stale
/// slots, so the charge equals that of a set that kept them.
fn prescan_remsets(heap: &Heap, cset: &[RegionId], in_cset: &[bool]) -> RemsetPrescan {
    let mut prescan = RemsetPrescan::default();
    for &r in cset {
        let rset = &heap.region(r).rset;
        prescan.slots_examined += rset.dropped();
        let mut valid: Vec<ValidSlot> = Vec::new();
        for slot in rset.iter() {
            prescan.slots_examined += 1;
            if in_cset[slot.region.0 as usize] {
                continue;
            }
            let holder = heap.region(slot.region);
            if !holder.holds_epoch(slot.epoch) || (slot.offset as usize) >= holder.top() {
                continue;
            }
            let value = ObjectRef::from_raw(holder.word(slot.offset));
            if value.is_null() || !in_cset[value.region().0 as usize] {
                continue;
            }
            valid.push(ValidSlot { slot: *slot, value });
        }
        // The remembered set hashes its slots; sort so the hasher does
        // not leak into evacuation order.
        valid.sort_unstable_by_key(|v| (v.slot.region.0, v.slot.offset, v.slot.epoch));
        prescan.valid.push(valid);
    }
    prescan
}

struct Evacuator<'a> {
    heap: &'a mut Heap,
    dest: &'a mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &'a mut dyn GcHooks,
    tracking: bool,
    in_cset: Vec<bool>,
    stats: EvacStats,
    scan: Vec<ObjectRef>,
    failed: bool,
}

impl Evacuator<'_> {
    fn in_cset(&self, r: RegionId) -> bool {
        self.in_cset[r.0 as usize]
    }

    /// Copies `obj` out of the collection set (idempotent via forwarding).
    /// Returns `None` on region exhaustion.
    fn forward(&mut self, obj: ObjectRef) -> Option<ObjectRef> {
        let header = self.heap.header(obj);
        if header.is_forwarded() {
            return Some(header.forwardee());
        }
        let from_kind = self.heap.region(obj.region()).kind;
        // As in HotSpot, only young-generation copies age an object.
        let new_age = if from_kind.is_young() {
            header.age().saturating_add(1).min(rolp_heap::header::MAX_AGE)
        } else {
            header.age()
        };
        let size_words = self.heap.size_words(obj);
        let space = (self.dest)(from_kind, new_age, size_words, header.allocation_context());
        let size_bytes = size_words as u64 * 8;
        match self.heap.copy_object(obj, space) {
            Ok(new) => {
                let fixed = self.heap.header(new).with_age(new_age);
                self.heap.set_header(new, fixed);
                self.stats.survivors += 1;
                self.stats.bytes_copied += size_bytes;
                self.stats.gen_bytes[gen_index(space)] += size_bytes;
                if self.tracking {
                    self.hooks.on_survivor(header, from_kind, 0);
                }
                self.scan.push(new);
                Some(new)
            }
            Err(_) => {
                self.failed = true;
                None
            }
        }
    }

    fn process_roots(&mut self) {
        let roots: Vec<_> = self.heap.handles.entries().collect();
        for (h, obj) in roots {
            self.stats.roots_scanned += 1;
            if self.in_cset(obj.region()) {
                if let Some(new) = self.forward(obj) {
                    self.heap.handles.set(h, new);
                } else {
                    return; // exhausted; full_compact will finish the job
                }
            }
        }
    }

    /// Forwards the slots a [`prescan_remsets`] pass validated, in its
    /// sorted order.
    fn process_remsets(&mut self, cset: &[RegionId], prescan: RemsetPrescan) {
        self.stats.remset_slots += prescan.slots_examined;
        for (&r, valid) in cset.iter().zip(&prescan.valid) {
            self.heap.region_mut(r).rset.clear();
            for v in valid {
                // `forward` is idempotent, so a slot aliased into several
                // collection-set remembered sets converges to the same
                // rewrite, and the re-record below dedups in the set.
                match self.forward(v.value) {
                    Some(new) => {
                        let slot = v.slot;
                        self.heap.region_mut(slot.region).set_word(slot.offset, new.raw());
                        // The slot still holds a cross-region reference;
                        // re-record it against the new target region.
                        if new.region() != slot.region {
                            let epoch = self.heap.region(slot.region).assigned_epoch;
                            let addr = SlotAddr { region: slot.region, offset: slot.offset, epoch };
                            self.heap.region_mut(new.region()).rset.record(addr);
                        }
                    }
                    None => return,
                }
            }
        }
    }

    fn drain_scan(&mut self) {
        while let Some(obj) = self.scan.pop() {
            for i in 0..self.heap.ref_words(obj) {
                let v = self.heap.get_ref(obj, i);
                if v.is_null() {
                    continue;
                }
                let target = if self.in_cset(v.region()) {
                    match self.forward(v) {
                        Some(new) => new,
                        None => return,
                    }
                } else {
                    v
                };
                // set_ref re-records the remembered-set entry for the
                // object's *new* location.
                self.heap.set_ref(obj, i, target);
            }
            if self.failed {
                return;
            }
        }
    }
}

/// Evacuates the live objects of `cset`, releasing its regions on success.
///
/// `dest` maps (source region kind, post-increment age, object size in
/// words, allocation context when the object was profiled) to the
/// destination space. The pause is computed from the cost model, charged
/// to the clock, and recorded with `kind`.
pub fn evacuate(
    env: &mut VmEnv,
    cset: &[RegionId],
    dest: &mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &mut dyn GcHooks,
    kind: PauseKind,
) -> EvacOutcome {
    evacuate_mode(env, cset, dest, hooks, kind, false)
}

/// Like [`evacuate`], but the copying work is charged to *mutator* time
/// (the collector runs concurrently); only a short handshake pause is
/// recorded. This is how the ZGC/C4-class collector trades throughput for
/// latency (paper §2.2).
pub fn evacuate_concurrent(
    env: &mut VmEnv,
    cset: &[RegionId],
    dest: &mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &mut dyn GcHooks,
) -> EvacOutcome {
    evacuate_mode(env, cset, dest, hooks, PauseKind::ConcurrentHandshake, true)
}

fn evacuate_mode(
    env: &mut VmEnv,
    cset: &[RegionId],
    dest: &mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &mut dyn GcHooks,
    kind: PauseKind,
    concurrent: bool,
) -> EvacOutcome {
    let start = env.clock.now();
    env.heap.retire_all_current();

    let mut in_cset = vec![false; env.heap.num_regions()];
    for id in cset {
        in_cset[id.0 as usize] = true;
    }
    // Validate every remembered-set slot before anything is forwarded:
    // a slot aliased into several collection-set remembered sets must
    // get the same verdict whichever region's rewrite comes first.
    let prescan = prescan_remsets(&env.heap, cset, &in_cset);
    let tracking = hooks.survivor_tracking_enabled();
    let mut ev = Evacuator {
        heap: &mut env.heap,
        dest,
        hooks,
        tracking,
        in_cset,
        stats: EvacStats { regions_in_cset: cset.len() as u64, ..Default::default() },
        scan: Vec::new(),
        failed: false,
    };

    ev.process_roots();
    if !ev.failed {
        ev.process_remsets(cset, prescan);
    }
    if !ev.failed {
        ev.drain_scan();
    }

    let mut stats = ev.stats;
    let failed = ev.failed;

    // The double-copy watermark: sources and copies coexist here.
    env.sample_memory();

    if !failed {
        for &r in cset {
            let region = env.heap.region(r);
            // A region nobody copied out of died wholesale ("epochal"
            // reclamation): it is released for free.
            let had_survivor =
                env.heap.objects_in_region(r).any(|o| env.heap.header(o).is_forwarded());
            if !had_survivor && region.used_bytes() > 0 {
                stats.regions_fully_dead += 1;
            }
            env.heap.release_region(r);
            stats.regions_released += 1;
        }
        env.heap.purge_remsets();
    }

    let work = SimTime::from_nanos(evac_pause_ns(&env.cost, &stats, tracking));
    // The work decomposition is the same whether it runs inside the
    // pause or concurrently (stolen from the mutator).
    attribute_evac_work(env, &stats, tracking);
    let pause = if concurrent {
        // Copying proceeds alongside the mutator; the application only
        // stops for three short relocation handshakes.
        env.clock.advance(work.as_nanos());
        let pause = SimTime::from_nanos(3 * env.cost.safepoint_ns);
        env.telemetry.add(Bucket::GcOther, pause.as_nanos());
        pause
    } else {
        work
    };
    env.clock.advance_paused(pause);
    env.pauses.record(start, pause, kind);
    telemetry_pause(env, pause);
    trace_pause(env, start, pause, kind, &stats);
    env.sample_memory();

    EvacOutcome { stats, failed, pause }
}

/// Rewrites every reference (fields and roots) that points at a forwarded
/// object to its forwardee. Restores consistency after a failed
/// evacuation.
fn resolve_all_forwarding(heap: &mut Heap) {
    let regions: Vec<RegionId> = heap
        .regions()
        .filter(|(_, r)| !matches!(r.kind, RegionKind::Free))
        .map(|(id, _)| id)
        .collect();
    for id in &regions {
        let objects: Vec<ObjectRef> = heap.objects_in_region(*id).collect();
        for obj in objects {
            if heap.header(obj).is_forwarded() {
                continue; // garbage original
            }
            for i in 0..heap.ref_words(obj) {
                let v = heap.get_ref(obj, i);
                if v.is_null() {
                    continue;
                }
                let resolved = heap.resolve(v);
                if resolved != v {
                    heap.set_ref(obj, i, resolved);
                }
            }
        }
    }
    let roots: Vec<_> = heap.handles.entries().collect();
    for (h, obj) in roots {
        let resolved = heap.resolve(obj);
        if resolved != obj {
            heap.handles.set(h, resolved);
        }
    }
}

/// Clears and rebuilds every remembered set from the actual heap graph.
/// Needed after full compaction (every object moved).
pub fn rebuild_remsets(heap: &mut Heap) {
    let regions: Vec<RegionId> = heap.regions().map(|(id, _)| id).collect();
    for id in &regions {
        heap.region_mut(*id).rset.clear();
    }
    let live_regions: Vec<RegionId> = heap
        .regions()
        .filter(|(_, r)| !matches!(r.kind, RegionKind::Free))
        .map(|(id, _)| id)
        .collect();
    for id in live_regions {
        let objects: Vec<ObjectRef> = heap.objects_in_region(id).collect();
        for obj in objects {
            if heap.header(obj).is_forwarded() {
                continue;
            }
            for i in 0..heap.ref_words(obj) {
                let v = heap.get_ref(obj, i);
                if !v.is_null() && v.region() != id {
                    let epoch = heap.region(id).assigned_epoch;
                    let slot = SlotAddr {
                        region: id,
                        offset: obj.offset() + rolp_heap::heap::OBJECT_HEADER_WORDS + i as u32,
                        epoch,
                    };
                    heap.region_mut(v.region()).rset.record(slot);
                }
            }
        }
    }
}

/// Full stop-the-world mark-compact.
///
/// Young survivors are tenured (as in HotSpot full GCs); old regions
/// compact into old; dynamic generations compact within their generation;
/// live humongous regions stay put. Works with one free region via rolling
/// release, using a relocation map instead of in-heap forwarding so source
/// regions can be recycled immediately.
///
/// # Panics
///
/// Panics with an out-of-memory diagnostic if even compaction cannot make
/// room (live data exceeds the heap).
pub fn full_compact(env: &mut VmEnv, hooks: &mut dyn GcHooks) -> EvacStats {
    let start = env.clock.now();

    // A full compaction is a stop-the-world safepoint in its own right:
    // retire allocation buffers so every region is parsable, even when
    // called directly rather than through a collector's pause entry.
    env.heap.retire_all_tlabs();

    // Phase 0: a failed evacuation may have left forwarding pointers.
    resolve_all_forwarding(&mut env.heap);

    // Phase 1: mark.
    let mark = mark_liveness(&mut env.heap);

    // Phase 2: compact, most-garbage regions first (releases fastest).
    env.heap.retire_all_current();
    let mut sources: Vec<RegionId> = env
        .heap
        .regions()
        .filter(|(_, r)| {
            r.kind.is_allocatable() && !matches!(r.kind, RegionKind::Free | RegionKind::Humongous)
        })
        .map(|(id, _)| id)
        .collect();
    sources.sort_by_key(|&id| std::cmp::Reverse(env.heap.region(id).garbage_bytes()));

    let tracking = hooks.survivor_tracking_enabled();
    let mut stats = EvacStats { regions_in_cset: sources.len() as u64, ..Default::default() };
    let mut relocation: HashMap<ObjectRef, ObjectRef> = HashMap::new();

    for src in sources {
        let from_kind = env.heap.region(src).kind;
        let to_space = match from_kind {
            RegionKind::Eden | RegionKind::Survivor | RegionKind::Old => SpaceKind::Old,
            RegionKind::Dynamic(g) => SpaceKind::Dynamic(g),
            _ => unreachable!("filtered above"),
        };
        let objects: Vec<ObjectRef> = env.heap.objects_in_region(src).collect();
        let mut had_live = false;
        for obj in objects {
            if !mark.marked.contains(&obj) {
                continue;
            }
            had_live = true;
            let header = env.heap.header(obj);
            let new_age = if from_kind.is_young() {
                header.age().saturating_add(1).min(rolp_heap::header::MAX_AGE)
            } else {
                header.age()
            };
            let size_bytes = env.heap.size_words(obj) as u64 * 8;
            let new = env
                .heap
                .copy_object(obj, to_space)
                .unwrap_or_else(|_| panic!("OutOfMemoryError: full GC cannot compact"));
            let fixed = env.heap.header(new).with_age(new_age);
            env.heap.set_header(new, fixed);
            relocation.insert(obj, new);
            stats.survivors += 1;
            stats.bytes_copied += size_bytes;
            stats.gen_bytes[gen_index(to_space)] += size_bytes;
            if tracking {
                hooks.on_survivor(header, from_kind, 0);
            }
        }
        if !had_live && env.heap.region(src).used_bytes() > 0 {
            stats.regions_fully_dead += 1;
        }
        env.heap.release_region(src);
        stats.regions_released += 1;
    }

    // Dead humongous regions are reclaimed in place.
    for id in env.heap.regions_of_kind(RegionKind::Humongous) {
        if env.heap.region(id).live_bytes == 0 {
            env.heap.release_region(id);
            stats.regions_released += 1;
            stats.regions_fully_dead += 1;
        }
    }

    // Phase 3: fix every reference and root through the relocation map.
    let live_regions: Vec<RegionId> = env
        .heap
        .regions()
        .filter(|(_, r)| !matches!(r.kind, RegionKind::Free))
        .map(|(id, _)| id)
        .collect();
    for id in live_regions {
        let objects: Vec<ObjectRef> = env.heap.objects_in_region(id).collect();
        for obj in objects {
            for i in 0..env.heap.ref_words(obj) {
                let v = env.heap.get_ref(obj, i);
                if let Some(&new) = relocation.get(&v) {
                    env.heap.set_ref(obj, i, new);
                }
            }
        }
    }
    let roots: Vec<_> = env.heap.handles.entries().collect();
    stats.roots_scanned = roots.len() as u64;
    for (h, obj) in roots {
        if let Some(&new) = relocation.get(&obj) {
            env.heap.handles.set(h, new);
        }
    }

    // Phase 4: remembered sets are void after a whole-heap move.
    rebuild_remsets(&mut env.heap);

    // Pause: marking + copying + two full fix-up scans, bandwidth-bound.
    let used = env.heap.used_bytes();
    let mark_ns = env.cost.copy_ns(mark.live_bytes) / 2; // mark traversal
    let compact_ns = env.cost.copy_ns(stats.bytes_copied) // compaction copy
        + env.cost.copy_ns(used) / 2 // reference fix-up scans
        + stats.survivors * env.cost.survivor_overhead_ns / env.cost.gc_workers.max(1);
    let pause_ns = env.cost.safepoint_ns + mark_ns + compact_ns;
    env.telemetry.add(Bucket::GcOther, env.cost.safepoint_ns);
    env.telemetry.add(Bucket::GcMark, mark_ns);
    env.telemetry.add(Bucket::GcEvac, compact_ns);
    let pause = SimTime::from_nanos(pause_ns);
    env.clock.advance_paused(pause);
    env.pauses.record(start, pause, PauseKind::Full);
    telemetry_pause(env, pause);
    trace_pause(env, start, pause, PauseKind::Full, &stats);
    env.sample_memory();

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_heap::heap::OBJECT_HEADER_WORDS;
    use rolp_heap::{ClassId, HeapConfig, ObjectHeader};

    fn alloc(h: &mut Heap, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
        let hash = h.next_identity_hash();
        h.alloc_in(space, ClassId(0), refs, data, ObjectHeader::new(hash)).unwrap()
    }

    fn slot_of(h: &Heap, holder: ObjectRef) -> SlotAddr {
        let region = holder.region();
        SlotAddr {
            region,
            offset: holder.offset() + OBJECT_HEADER_WORDS,
            epoch: h.region(region).assigned_epoch,
        }
    }

    #[test]
    fn prescan_keeps_only_live_slots_into_the_cset_in_sorted_order() {
        let mut h = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 64 * 1024 });
        h.classes.register("t.A");
        // Six 43-word eden objects span three eden regions: the cset.
        let eden: Vec<ObjectRef> = (0..6).map(|_| alloc(&mut h, SpaceKind::Eden, 1, 40)).collect();
        let cset = h.regions_of_kind(RegionKind::Eden);
        assert!(cset.len() >= 2 && eden[0].region() != eden[5].region());
        let mut in_cset = vec![false; h.num_regions()];
        for r in &cset {
            in_cset[r.0 as usize] = true;
        }

        // Valid: old holders (over several old regions) pointing into eden.
        let mut expected: Vec<(SlotAddr, ObjectRef)> = Vec::new();
        for i in 0..60 {
            let holder = alloc(&mut h, SpaceKind::Old, 1, 0);
            let target = eden[i % eden.len()];
            h.set_ref(holder, 0, target);
            expected.push((slot_of(&h, holder), target));
        }
        // Overwritten since recording: with null, and with an old object.
        let tenured = alloc(&mut h, SpaceKind::Old, 0, 0);
        for replacement in [ObjectRef::NULL, tenured] {
            let holder = alloc(&mut h, SpaceKind::Old, 1, 0);
            h.set_ref(holder, 0, eden[0]);
            h.set_ref(holder, 0, replacement);
        }
        // Holder in the cset (transitive scanning covers it).
        h.set_ref(eden[0], 0, eden[5]);
        // Stale holder epoch, and a slot past the holder's top.
        let (valid_slot, _) = expected[0];
        let holder_top = h.region(valid_slot.region).top() as u32;
        let stale = SlotAddr { epoch: valid_slot.epoch + 1, ..valid_slot };
        let past_top = SlotAddr { offset: holder_top + 1, ..valid_slot };
        for slot in [stale, past_top] {
            h.region_mut(eden[0].region()).rset.record(slot);
        }

        let recorded: u64 = cset.iter().map(|&r| h.region(r).rset.len() as u64).sum();
        assert_eq!(recorded, 60 + 2 + 1 + 2);
        let prescan = prescan_remsets(&h, &cset, &in_cset);
        assert_eq!(prescan.slots_examined, recorded, "every slot is counted");
        assert_eq!(prescan.valid.len(), cset.len());
        let key = |s: &SlotAddr| (s.region.0, s.offset, s.epoch);
        for (&r, valid) in cset.iter().zip(&prescan.valid) {
            let mut want: Vec<_> = expected.iter().filter(|(_, v)| v.region() == r).collect();
            want.sort_by_key(|(s, _)| key(s));
            let got: Vec<_> = valid.iter().map(|v| (key(&v.slot), v.value)).collect();
            let want: Vec<_> = want.iter().map(|(s, v)| (key(s), *v)).collect();
            assert_eq!(got, want, "region {r:?}");
        }
    }
}
