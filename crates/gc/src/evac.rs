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
//! - survivor regions kept in place, their live objects forwarded to
//!   themselves instead of copied (see [`KeepInPlace`]),
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
use rolp_heap::{Heap, ObjectHeader, ObjectRef, RegionId, RegionKind, SpaceKind};
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
    /// Objects copied or kept in place (survivors).
    pub survivors: u64,
    /// Root handles examined.
    pub roots_scanned: u64,
    /// Remembered-set slots examined (valid or stale), counting the slots
    /// a set dropped since it was last cleared.
    pub remset_slots: u64,
    /// Regions in the collection set.
    pub regions_in_cset: u64,
    /// Collection-set regions released (all but the kept ones unless the
    /// evacuation failed).
    pub regions_released: u64,
    /// Collection-set regions kept in place and relabeled (see
    /// [`KeepInPlace`]).
    pub regions_kept: u64,
    /// Object headers read to choose the regions to keep, priced at one
    /// word each at copy bandwidth.
    pub headers_read: u64,
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
        + cost.copy_ns(stats.headers_read * 8)
        + per_worker(stats.survivors, survivor_each)
}

/// Attributes the components of an evacuation's work to telemetry
/// buckets, term for term with [`evac_pause_ns`]: remembered-set
/// scanning → `GcRemset`, the survivor-tracking increment → the
/// collector half of `GcProfiling`, the safepoint → `GcOther`, and
/// everything else (roots, region bookkeeping, copying, survivor aging
/// and the header pass that chose the regions to keep) → `GcEvac`. The
/// four parts sum exactly to `evac_pause_ns`.
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
        + cost.copy_ns(stats.headers_read * 8)
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
fn prescan_remsets(heap: &Heap, cset: &[RegionId], regions: &[RegionState]) -> RemsetPrescan {
    let in_cset = |r: RegionId| regions[r.0 as usize].in_cset;
    let mut prescan = RemsetPrescan::default();
    for &r in cset {
        let rset = &heap.region(r).rset;
        prescan.slots_examined += rset.dropped();
        let mut valid: Vec<ValidSlot> = Vec::new();
        for slot in rset.iter() {
            prescan.slots_examined += 1;
            if in_cset(slot.region) {
                continue;
            }
            let holder = heap.region(slot.region);
            if !holder.holds_epoch(slot.epoch) || (slot.offset as usize) >= holder.top() {
                continue;
            }
            let value = ObjectRef::from_raw(holder.word(slot.offset));
            if value.is_null() || !in_cset(value.region()) {
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

/// Survivor regions an evacuation keeps in place instead of copying.
///
/// A kept region stays in the collection set and is traced as usual, but
/// [`evacuate_keeping`] forwards each of its live objects to itself: the
/// object is aged and reported as a survivor, and no byte is copied. Once
/// the evacuation succeeds, the region's dead runs become fillers, its
/// live objects get their headers back, and the region is relabeled to
/// the kind given here. A kept region without a survivor is released like
/// any other. HotSpot G1 does the same for a young region whose evacuation
/// failed: it forwards the live objects to themselves and makes the
/// region old.
#[derive(Debug, Clone, Default)]
pub struct KeepInPlace {
    /// Collection-set regions to keep, each with the kind it becomes.
    pub regions: Vec<(RegionId, RegionKind)>,
    /// Object headers read to choose them ([`EvacStats::headers_read`]).
    pub headers_read: u64,
}

/// What one evacuation knows about a region, indexed by region id.
#[derive(Debug, Clone, Copy, Default)]
struct RegionState {
    in_cset: bool,
    /// Kept in place, and the kind it becomes (see [`KeepInPlace`]).
    keep: Option<RegionKind>,
    /// An object was forwarded out of the region, or kept in it.
    had_survivor: bool,
}

struct Evacuator<'a> {
    heap: &'a mut Heap,
    dest: &'a mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &'a mut dyn GcHooks,
    tracking: bool,
    regions: Vec<RegionState>,
    /// Objects kept in place, each with the header it gets back: the
    /// forwarding pointer to itself took the header's place.
    preserved: Vec<(ObjectRef, ObjectHeader)>,
    stats: EvacStats,
    scan: Vec<ObjectRef>,
    failed: bool,
}

impl Evacuator<'_> {
    fn in_cset(&self, r: RegionId) -> bool {
        self.regions[r.0 as usize].in_cset
    }

    /// Copies `obj` out of the collection set, or forwards it to itself
    /// in a kept region (idempotent via forwarding). Returns `None` on
    /// region exhaustion.
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
        let state = &mut self.regions[obj.region().0 as usize];
        let new = if state.keep.is_some() {
            state.had_survivor = true;
            self.heap.set_header(obj, ObjectHeader::forward_to(obj));
            self.preserved.push((obj, header.with_age(new_age)));
            obj
        } else {
            let size_words = self.heap.size_words(obj);
            let space = (self.dest)(from_kind, new_age, size_words, header.allocation_context());
            let Ok(new) = self.heap.copy_object(obj, space) else {
                self.failed = true;
                return None;
            };
            self.regions[obj.region().0 as usize].had_survivor = true;
            let fixed = self.heap.header(new).with_age(new_age);
            self.heap.set_header(new, fixed);
            let size_bytes = size_words as u64 * 8;
            self.stats.bytes_copied += size_bytes;
            self.stats.gen_bytes[gen_index(space)] += size_bytes;
            new
        };
        self.stats.survivors += 1;
        if self.tracking {
            self.hooks.on_survivor(header, from_kind, 0);
        }
        self.scan.push(new);
        Some(new)
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
    evacuate_mode(env, cset, &KeepInPlace::default(), dest, hooks, kind, false)
}

/// Like [`evacuate`], but keeps the regions of `keep` in place (see
/// [`KeepInPlace`]); each must be in `cset`.
pub fn evacuate_keeping(
    env: &mut VmEnv,
    cset: &[RegionId],
    keep: &KeepInPlace,
    dest: &mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &mut dyn GcHooks,
    kind: PauseKind,
) -> EvacOutcome {
    evacuate_mode(env, cset, keep, dest, hooks, kind, false)
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
    let keep = KeepInPlace::default();
    evacuate_mode(env, cset, &keep, dest, hooks, PauseKind::ConcurrentHandshake, true)
}

/// Turns each run of adjacent dead objects in a kept region into one
/// filler and releases the pages left all zero, as marking's scrub does
/// for a dynamic region. An object is live if the evacuation forwarded it
/// to itself. Returns the live bytes.
fn fill_dead_runs(heap: &mut Heap, r: RegionId) -> u64 {
    let mut live = 0;
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for obj in heap.objects_in_region(r) {
        let words = heap.size_words(obj);
        if heap.header(obj).is_forwarded() {
            live += words as u64 * 8;
            continue;
        }
        match runs.last_mut() {
            Some((_, end)) if *end == obj.offset() => *end += words,
            _ => runs.push((obj.offset(), obj.offset() + words)),
        }
    }
    let region = heap.region_mut(r);
    for (start, end) in runs {
        region.fill_dead(start, (end - start) as usize);
    }
    region.release_zero_pages();
    live
}

fn evacuate_mode(
    env: &mut VmEnv,
    cset: &[RegionId],
    keep: &KeepInPlace,
    dest: &mut dyn FnMut(RegionKind, u8, u32, Option<u32>) -> SpaceKind,
    hooks: &mut dyn GcHooks,
    kind: PauseKind,
    concurrent: bool,
) -> EvacOutcome {
    let start = env.clock.now();
    env.heap.retire_all_current();

    let mut regions = vec![RegionState::default(); env.heap.num_regions()];
    for id in cset {
        regions[id.0 as usize].in_cset = true;
    }
    for &(id, to) in &keep.regions {
        debug_assert!(regions[id.0 as usize].in_cset, "kept region {id:?} outside the cset");
        regions[id.0 as usize].keep = Some(to);
    }
    // Validate every remembered-set slot before anything is forwarded:
    // a slot aliased into several collection-set remembered sets must
    // get the same verdict whichever region's rewrite comes first.
    let prescan = prescan_remsets(&env.heap, cset, &regions);
    let tracking = hooks.survivor_tracking_enabled();
    let mut ev = Evacuator {
        heap: &mut env.heap,
        dest,
        hooks,
        tracking,
        regions,
        preserved: Vec::new(),
        stats: EvacStats {
            regions_in_cset: cset.len() as u64,
            headers_read: keep.headers_read,
            ..Default::default()
        },
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
    let Evacuator { mut stats, failed, regions, preserved, .. } = ev;

    // The double-copy watermark: sources and copies coexist here.
    env.sample_memory();

    let mut kept: Vec<(RegionId, RegionKind, u64)> = Vec::new();
    if !failed {
        for &r in cset {
            let state = regions[r.0 as usize];
            if let Some(to) = state.keep.filter(|_| state.had_survivor) {
                kept.push((r, to, fill_dead_runs(&mut env.heap, r)));
                continue;
            }
            // A region nobody copied out of died wholesale ("epochal"
            // reclamation): it is released for free.
            if !state.had_survivor && env.heap.region(r).used_bytes() > 0 {
                stats.regions_fully_dead += 1;
            }
            env.heap.release_region(r);
            stats.regions_released += 1;
        }
    }
    // Kept objects get their headers back, after a failed evacuation
    // too: `full_compact` must find no object forwarded to itself.
    for (obj, header) in preserved {
        env.heap.set_header(obj, header);
    }
    for &(r, to, live) in &kept {
        env.heap.relabel_region(r, to, live);
    }
    if !failed {
        stats.regions_kept = kept.len() as u64;
        env.telemetry.bump(CounterId::RegionsKeptInPlace, stats.regions_kept);
        env.heap.purge_remsets();
    }

    let work = SimTime::from_nanos(evac_pause_ns(&env.cost, &stats, tracking));
    // The work decomposition is the same whether it runs inside the
    // pause or concurrently (stolen from the mutator). Concurrent
    // relocation advances the clock by its whole work rather than going
    // through the marking account: that account pays into `gc_mark`
    // alone, and this work spans four buckets.
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

    // Phase 1: mark (and scrub; the pause's fix-up scans below already
    // price a walk of the whole heap).
    let mark = mark_liveness(&mut env.heap);
    env.telemetry.bump(CounterId::RefsScrubbed, mark.refs_scrubbed);

    // Phase 2: compact, least-live regions first. Wholly dead regions
    // are released before the first copy needs a region, so a heap with
    // every region assigned still compacts whenever its live data fits.
    env.heap.retire_all_current();
    let mut sources: Vec<RegionId> = env
        .heap
        .regions()
        .filter(|(_, r)| {
            r.kind.is_allocatable() && !matches!(r.kind, RegionKind::Free | RegionKind::Humongous)
        })
        .map(|(id, _)| id)
        .collect();
    sources.sort_by_key(|&id| env.heap.region(id).live_bytes);

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
    use rolp_vm::{CostModel, JitConfig, ProgramBuilder};

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
        let mut regions = vec![RegionState::default(); h.num_regions()];
        for r in &cset {
            regions[r.0 as usize].in_cset = true;
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
        let prescan = prescan_remsets(&h, &cset, &regions);
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

    #[test]
    fn full_compact_frees_dead_regions_before_copying_into_a_full_heap() {
        // Eight 128-word regions, every one assigned. Region 0 holds a
        // live 10-word object and 110 words of garbage: the most garbage
        // of any region. Regions 1-6 each hold one dead 60-word object;
        // region 7 holds a second live object beside 50 dead words.
        let heap = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 8 * 1024 });
        let mut env = VmEnv::new(
            heap,
            CostModel::default(),
            ProgramBuilder::new().build(),
            JitConfig::default(),
            1,
        );
        let h = &mut env.heap;
        h.classes.register("t.A");
        let head = alloc(h, SpaceKind::Old, 1, 7);
        h.set_data(head, 0, 0xA11CE);
        for _ in 0..2 {
            alloc(h, SpaceKind::Old, 0, 53);
        }
        for _ in 0..6 {
            h.retire_current(SpaceKind::Old);
            alloc(h, SpaceKind::Old, 0, 58);
        }
        h.retire_current(SpaceKind::Old);
        let tail = alloc(h, SpaceKind::Old, 0, 8);
        h.set_data(tail, 0, 0xB0B);
        alloc(h, SpaceKind::Old, 0, 48);
        h.set_ref(head, 0, tail);
        let root = h.handles.create(head);
        assert_eq!(h.free_regions(), 0, "every region is assigned");
        assert_ne!(head.region(), tail.region());

        let stats = full_compact(&mut env, &mut crate::NullHooks);

        assert_eq!(stats.survivors, 2);
        assert_eq!(stats.regions_fully_dead, 6);
        let h = &env.heap;
        let head = h.handles.get(root);
        let tail = h.get_ref(head, 0);
        assert_eq!(h.get_data(head, 0), 0xA11CE);
        assert_eq!(h.get_data(tail, 0), 0xB0B);
        assert_eq!(h.free_regions(), 7, "both live objects share one region");
        let errors = rolp_heap::verify::verify_heap(h, true);
        assert!(errors.is_empty(), "heap invalid after compaction: {:?}", errors.first());
    }
}
