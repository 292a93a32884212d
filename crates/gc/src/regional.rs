//! The regional generational collector: G1 and NG2C.
//!
//! One engine covers both collectors the paper builds on:
//!
//! - **G1 mode** (`pretenuring = false`): region-based young collections
//!   (eden + survivors evacuated, age-based tenuring with survivor-space
//!   overflow), marking when tenured occupancy crosses a threshold, a
//!   cleanup that frees every region marking found empty, then mixed
//!   collections over old regions chosen once by GC efficiency —
//!   Garbage-First [Detlefs et al. 2004] as the paper's baseline.
//! - **NG2C mode** (`pretenuring = true`): the same engine plus 16
//!   generations (young, 14 dynamic, old; paper §7.1). Allocations carry a
//!   target generation — from hand annotations (the NG2C baseline) or from
//!   ROLP's advice (the paper's contribution) — and go straight to that
//!   dynamic generation, skipping every young-generation copy. Dynamic
//!   regions whose objects died together are reclaimed without copying,
//!   and a `Dynamic(g)` region joins the mixed candidates only once it
//!   has been through more than `g` collections, so its cohort is not
//!   copied while it is still dying. Survivor regions whose objects a
//!   newly published table decided are kept in place and relabeled at
//!   the next collection, not copied into their generation.
//!
//! The mechanical claim of the paper emerges here, not from a formula:
//! pretenured long-lived objects are never copied through the survivor
//! spaces, so young pauses shrink with the bytes they no longer copy.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rolp_heap::{AllocFailure, ObjectRef, RegionId, RegionKind, SpaceKind, TlabAlloc};
use rolp_metrics::{PauseKind, SimTime};
use rolp_vm::{AllocRequest, CollectorApi, DecisionStore, DecisionTable, VmEnv};

use crate::evac::{charge_refill, evacuate_keeping, full_compact, EvacStats, KeepInPlace};
use crate::mark::{mark_liveness, queue_marking};
use crate::observer::{GcCycleInfo, GcHooks};

/// Tunables of the regional collector.
#[derive(Debug, Clone)]
pub struct RegionalConfig {
    /// Young-generation (eden) target as a fraction of total regions.
    pub eden_fraction: f64,
    /// Survivor-space cap as a fraction of total regions; overflow
    /// promotes to old.
    pub survivor_fraction: f64,
    /// Age at which survivors are tenured (HotSpot max 15).
    pub tenuring_threshold: u8,
    /// Tenured occupancy (fraction of total regions) that starts a marking
    /// cycle followed by mixed collections.
    pub mark_trigger: f64,
    /// A tenured region joins the mixed candidates if its live fraction
    /// is at most this (G1's `G1MixedGCLiveThresholdPercent`).
    pub mixed_live_threshold: f64,
    /// Mixed collections the candidates of one marking are spread over
    /// (G1's `G1MixedGCCountTarget`); 0 runs no mixed collections.
    pub mixed_cycles: usize,
    /// Regions kept free as evacuation reserve.
    pub reserve_regions: usize,
    /// NG2C mode: honor per-allocation generation targets.
    pub pretenuring: bool,
}

impl Default for RegionalConfig {
    fn default() -> Self {
        RegionalConfig {
            eden_fraction: 0.25,
            survivor_fraction: 0.10,
            tenuring_threshold: 15,
            mark_trigger: 0.45,
            mixed_live_threshold: 0.85,
            mixed_cycles: 4,
            reserve_regions: 4,
            pretenuring: false,
        }
    }
}

/// Percentage of the heap's regions one mixed collection may take from
/// the candidates (G1's `G1OldCSetRegionThresholdPercent`).
const MIXED_MAX_REGION_PERCENT: usize = 10;

/// Mixed collections stop once the remaining candidates hold less garbage
/// than this percentage of the heap (G1's `G1HeapWastePercent`): what is
/// left is accepted as waste until the next marking.
const HEAP_WASTE_PERCENT: u64 = 5;

/// Collections whose start the collector remembers to age regions: one
/// more than the oldest dynamic generation, so every `Dynamic(g)` region
/// can be told to have outlived `g` collections.
const AGE_HORIZON: usize = 15;

/// Per-collector statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionalStats {
    /// Young collections.
    pub young_gcs: u64,
    /// Mixed collections.
    pub mixed_gcs: u64,
    /// Full compactions (evacuation-failure fallback).
    pub full_gcs: u64,
    /// Marking cycles.
    pub markings: u64,
    /// Objects allocated directly into dynamic generations / old
    /// (pretenured).
    pub pretenured: u64,
    /// Tenured regions reclaimed with zero survivors ("died together"),
    /// at cleanup or in a collection set.
    pub regions_died_together: u64,
}

/// The G1/NG2C collector.
pub struct RegionalCollector {
    config: RegionalConfig,
    hooks: Rc<RefCell<dyn GcHooks>>,
    decisions: Option<Rc<DecisionStore>>,
    cycles: u64,
    /// Mixed candidates chosen at the last remark, best GC efficiency
    /// first, each with the garbage marking found in it. Mixed
    /// collections take from the front; what the waste stop leaves stays
    /// here until the next marking or full collection.
    candidates: VecDeque<(RegionId, u64)>,
    /// Candidates one mixed collection takes.
    mixed_batch: usize,
    /// The heap's assignment epoch at the start of each of the last
    /// [`AGE_HORIZON`] collections, oldest first. A region has been
    /// through every collection that started at or after its
    /// `assigned_epoch`.
    collection_epochs: VecDeque<u64>,
    /// Dynamic regions the last marking read while their cohort was
    /// still young (see [`Self::young_cohort`]); they hold no
    /// fragmentation reading until the next marking.
    young_cohorts: Vec<RegionId>,
    /// Version of the decision table the survivor headers were last read
    /// against (see [`Self::survivors_to_keep`]).
    kept_version: u64,
    stats: RegionalStats,
    name: &'static str,
}

impl RegionalCollector {
    /// A plain G1 collector (no pretenuring).
    pub fn g1(hooks: Rc<RefCell<dyn GcHooks>>) -> Self {
        let config = RegionalConfig { pretenuring: false, ..Default::default() };
        RegionalCollector::with_config(config, hooks, "G1")
    }

    /// An NG2C collector (16 generations, pretenuring honored).
    pub fn ng2c(hooks: Rc<RefCell<dyn GcHooks>>) -> Self {
        let config = RegionalConfig { pretenuring: true, ..Default::default() };
        RegionalCollector::with_config(config, hooks, "NG2C")
    }

    /// A collector with explicit tunables.
    pub fn with_config(
        config: RegionalConfig,
        hooks: Rc<RefCell<dyn GcHooks>>,
        name: &'static str,
    ) -> Self {
        RegionalCollector {
            config,
            hooks,
            decisions: None,
            cycles: 0,
            candidates: VecDeque::new(),
            mixed_batch: 0,
            collection_epochs: VecDeque::with_capacity(AGE_HORIZON),
            young_cohorts: Vec::new(),
            kept_version: 0,
            stats: RegionalStats::default(),
            name,
        }
    }

    /// Collector statistics.
    pub fn stats(&self) -> RegionalStats {
        self.stats
    }

    /// Attaches the profiler's published [`DecisionStore`]. In NG2C mode
    /// each collection then reads the current snapshot (the same table
    /// the allocation fast path indexes) and routes decided young
    /// survivors to their advised generation.
    pub fn set_decision_store(&mut self, store: Rc<DecisionStore>) {
        self.decisions = Some(store);
    }

    /// The space an allocation request targets, without touching stats —
    /// shared by the TLAB fast path and the slow path so both resolve a
    /// request identically.
    fn space_for(&self, req: &AllocRequest) -> SpaceKind {
        if !self.config.pretenuring {
            return SpaceKind::Eden;
        }
        // Priority: hand annotation, then the advice the mutator already
        // resolved from the decision snapshot, then a hooks query (the
        // path direct-driven collectors without a VmEnv store use). When
        // this collector has its own store the mutator consulted the same
        // snapshot — honor its verdict, including a canary-sampled `None`
        // that deliberately keeps an imported-row allocation young.
        let gen = req.manual_gen.or(req.advised_gen).or_else(|| {
            if self.decisions.is_some() {
                None
            } else {
                req.context.and_then(|c| self.hooks.borrow().advise(c))
            }
        });
        match gen {
            None | Some(0) => SpaceKind::Eden,
            Some(15) => SpaceKind::Old,
            Some(g) => SpaceKind::Dynamic(g.min(14)),
        }
    }

    fn choose_space(&mut self, req: &AllocRequest) -> SpaceKind {
        let space = self.space_for(req);
        if !matches!(space, SpaceKind::Eden) {
            self.stats.pretenured += 1;
        }
        space
    }

    fn eden_target(&self, env: &VmEnv) -> usize {
        ((env.heap.num_regions() as f64 * self.config.eden_fraction) as usize).max(1)
    }

    fn tenured_regions(&self, env: &VmEnv) -> usize {
        let h = &env.heap;
        let mut n = h.num_of_kind(RegionKind::Old) + h.num_of_kind(RegionKind::Humongous);
        for g in 1..=14 {
            n += h.num_of_kind(RegionKind::Dynamic(g));
        }
        n
    }

    fn should_collect(&self, env: &VmEnv) -> bool {
        env.heap.num_of_kind(RegionKind::Eden) >= self.eden_target(env)
            || env.heap.free_regions() <= self.config.reserve_regions
    }

    /// Concurrent marking, G1's cycle shape. Liveness is snapshotted at
    /// once and the remark pause follows it at once, so the mixed
    /// schedule sees the same liveness at the same collection as a
    /// stop-the-world trace would. Only the trace's cost, roughly
    /// bandwidth-bound like copying (`copy_ns(live) / 2`), and the
    /// dead-object scrub's (one mark-bitmap byte per 64 dead heap bytes
    /// at the trace rate) run beside the mutator: they are queued on the
    /// environment's marking account ([`VmEnv::queue_concurrent_mark`]),
    /// which later mutator work pays at half speed and idle time pays for
    /// free (DESIGN §4). The remark is not deferred until the work is
    /// paid: the heap keeps filling meanwhile, and in small heaps that
    /// ends in full GCs.
    ///
    /// The remark ends with G1's Cleanup: every tenured or humongous
    /// region marking found without a live byte is freed on the spot,
    /// without copying, and the mixed candidates are chosen once from
    /// what is left ([`Self::choose_candidates`]).
    fn run_marking(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        let mark = mark_liveness(&mut env.heap);
        self.hooks.borrow_mut().on_liveness(&mark.context_live);
        queue_marking(env, &mark);
        let remark_start = env.clock.now();
        let remark = SimTime::from_nanos(
            env.cost.safepoint_ns
                + env.heap.handles.live() as u64 * env.cost.root_scan_ns
                    / env.cost.gc_workers.max(1),
        );
        env.clock.advance_paused(remark);
        env.telemetry.add(rolp_telemetry::Bucket::GcMark, remark.as_nanos());
        env.pauses.record(remark_start, remark, PauseKind::ConcurrentHandshake);
        crate::evac::telemetry_pause(env, remark);
        env.trace.set_gc_cause("remark");
        crate::evac::trace_pause(
            env,
            remark_start,
            remark,
            PauseKind::ConcurrentHandshake,
            &EvacStats::default(),
        );

        // Cleanup. Marking scrubbed every dead object, so nothing
        // elsewhere points into a region without live bytes.
        let dead: Vec<(RegionId, bool)> = env
            .heap
            .regions()
            .filter(|(_, r)| {
                matches!(r.kind, RegionKind::Old | RegionKind::Dynamic(_) | RegionKind::Humongous)
                    && r.live_bytes == 0
            })
            .map(|(id, r)| (id, r.kind != RegionKind::Humongous && r.used_bytes() > 0))
            .collect();
        for (id, died_together) in dead {
            env.heap.release_region(id);
            self.stats.regions_died_together += died_together as u64;
        }
        env.heap.purge_remsets();
        self.choose_candidates(env);
        self.stats.markings += 1;
    }

    /// Records the start of a collection for [`Self::young_cohort`].
    fn start_collection(&mut self, env: &VmEnv) {
        if self.collection_epochs.len() == AGE_HORIZON {
            self.collection_epochs.pop_front();
        }
        self.collection_epochs.push_back(env.heap.epoch());
    }

    /// True for a `Dynamic(g)` region that has been through at most `g`
    /// collections. Its generation is the decided lifetime of its cohort
    /// (the 85th-percentile death age, DESIGN §6 item 1), so most of its
    /// objects are predicted to be still alive and dying: copying them now
    /// would copy objects that are about to die, and the region is left to
    /// Cleanup until a later marking finds it older.
    fn young_cohort(&self, r: &rolp_heap::Region) -> bool {
        let RegionKind::Dynamic(g) = r.kind else {
            return false;
        };
        let age = self.collection_epochs.iter().rev().take_while(|&&e| e >= r.assigned_epoch);
        age.count() <= g as usize
    }

    /// Builds the mixed candidates once per marking, as G1 does after
    /// Cleanup: tenured regions at most `mixed_live_threshold` live,
    /// ranked by GC efficiency, the garbage a region frees over the pause
    /// time it costs (copying its live bytes plus the per-region
    /// overhead). Each mixed collection then takes
    /// `ceil(len / mixed_cycles)` of them, at most
    /// [`MIXED_MAX_REGION_PERCENT`] of the heap's regions. A dynamic
    /// region whose cohort is still young ([`Self::young_cohort`]) is no
    /// candidate; it is considered again at the next marking.
    fn choose_candidates(&mut self, env: &VmEnv) {
        self.candidates.clear();
        self.young_cohorts = env
            .heap
            .regions()
            .filter(|(_, r)| r.used_bytes() > 0 && self.young_cohort(r))
            .map(|(id, _)| id)
            .collect();
        if self.config.mixed_cycles == 0 {
            return;
        }
        let cost = &env.cost;
        let region_ns = cost.region_overhead_ns as f64 / cost.gc_workers.max(1) as f64;
        let mut ranked: Vec<(f64, RegionId, u64)> = env
            .heap
            .regions()
            .filter(|(_, r)| {
                matches!(r.kind, RegionKind::Old | RegionKind::Dynamic(_))
                    && r.used_bytes() > 0
                    && r.live_bytes as f64
                        <= self.config.mixed_live_threshold * r.used_bytes() as f64
                    && !self.young_cohort(r)
            })
            .map(|(id, r)| {
                let garbage = r.garbage_bytes();
                let efficiency = garbage as f64 / (cost.copy_ns(r.live_bytes) as f64 + region_ns);
                (efficiency, id, garbage)
            })
            .collect();
        // Stable: equally efficient regions keep ascending id order.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        self.candidates = ranked.into_iter().map(|(_, id, garbage)| (id, garbage)).collect();
        let cap = (env.heap.num_regions() * MIXED_MAX_REGION_PERCENT / 100).max(1);
        self.mixed_batch = self.candidates.len().div_ceil(self.config.mixed_cycles).min(cap);
    }

    /// True while a mixed collection is due: the remaining candidates
    /// still hold at least [`HEAP_WASTE_PERCENT`] of the heap in garbage.
    fn mixed_pending(&self, env: &VmEnv) -> bool {
        let reclaimable: u64 = self.candidates.iter().map(|&(_, garbage)| garbage).sum();
        let heap_bytes = (env.heap.num_regions() * env.heap.region_bytes()) as u64;
        reclaimable > 0 && reclaimable * 100 >= heap_bytes * HEAP_WASTE_PERCENT
    }

    /// Runs one young or mixed collection. Returns true on success; false
    /// means evacuation failed and a full compaction was performed.
    fn collect(&mut self, env: &mut VmEnv) -> bool {
        env.heap.retire_all_tlabs();
        self.start_collection(env);
        let mut cset: Vec<RegionId> = env.heap.regions_of_kind(RegionKind::Eden);
        cset.extend(env.heap.regions_of_kind(RegionKind::Survivor));

        let mut kind = PauseKind::Young;
        if self.mixed_pending(env) {
            let n = self.mixed_batch.min(self.candidates.len());
            cset.extend(self.candidates.drain(..n).map(|(id, _)| id));
            kind = PauseKind::Mixed;
        }

        let survivor_budget = (env.heap.num_regions() as f64 * self.config.survivor_fraction)
            as u64
            * env.heap.region_bytes() as u64;
        let tenuring = self.config.tenuring_threshold;
        let mut survivor_bytes = 0u64;
        // Promotion placement (NG2C mode, DESIGN §6 item 10). A young
        // survivor whose allocation context has a published decision `g`
        // in 1–15 goes to that generation (old for 15) at this evacuation:
        // objects allocated before the decision was published join their
        // cohort instead of ageing through the survivor space, and do not
        // count against its budget. Canary-flagged rows keep the age rule,
        // so the blend decay still sees young samples; undecided and
        // generation-0 contexts age as in G1. A survivor that reaches the
        // tenuring age or overflows the survivor space goes to its advised
        // dynamic generation if it has one, otherwise to old. The snapshot
        // is loaded once per collection.
        let table = self.decisions.as_ref().filter(|_| self.config.pretenuring).map(|s| s.load());
        let keep = match table.as_deref() {
            Some(t) if t.version() != self.kept_version => {
                self.kept_version = t.version();
                Self::survivors_to_keep(env, t)
            }
            _ => KeepInPlace::default(),
        };
        let mut dest =
            |from: RegionKind, age: u8, size_words: u32, ctx: Option<u32>| -> SpaceKind {
                match from {
                    RegionKind::Eden | RegionKind::Survivor => {
                        let advised = ctx
                            .zip(table.as_deref())
                            .and_then(|(c, t)| t.advise(c).map(|g| (g, t.is_canary(c))));
                        if !matches!(advised, Some((1..=15, false))) {
                            survivor_bytes += size_words as u64 * 8;
                            if age < tenuring && survivor_bytes <= survivor_budget {
                                return SpaceKind::Survivor;
                            }
                        }
                        match advised {
                            Some((g @ 1..=14, _)) => SpaceKind::Dynamic(g),
                            _ => SpaceKind::Old,
                        }
                    }
                    RegionKind::Dynamic(g) => SpaceKind::Dynamic(g),
                    _ => SpaceKind::Old,
                }
            };

        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let outcome = evacuate_keeping(env, &cset, &keep, &mut dest, &mut *hooks_ref, kind);
        drop(hooks_ref);

        self.cycles += 1;
        match kind {
            PauseKind::Mixed => self.stats.mixed_gcs += 1,
            _ => self.stats.young_gcs += 1,
        }
        self.stats.regions_died_together += outcome.stats.regions_fully_dead;

        if outcome.failed {
            env.trace.set_gc_cause("evac-failure");
            self.full_collect(env);
            return false;
        }

        self.finish_cycle(env, kind, &outcome.stats, outcome.pause);

        // Kick off marking when tenured occupancy crosses the trigger and
        // no mixed collection is due.
        let tenured_frac = self.tenured_regions(env) as f64 / env.heap.num_regions() as f64;
        if tenured_frac > self.config.mark_trigger && !self.mixed_pending(env) {
            self.run_marking(env);
        }
        true
    }

    /// The survivor regions the first collection after a new decision
    /// table keeps in place (DESIGN §6 item 10): those whose objects all
    /// carry a published decision of generation 1–15 that is not
    /// canary-flagged. The `dest` rule would copy every live object of such
    /// a region into a tenured generation; keeping the region instead
    /// relabels it to the oldest generation among its objects (old for
    /// 15). Later collections find no such region: decided survivors are
    /// promoted as they are copied, so only a new table can decide a
    /// survivor that was not. The pass reads one header per object up to
    /// the first one that disqualifies its region.
    fn survivors_to_keep(env: &VmEnv, table: &DecisionTable) -> KeepInPlace {
        let mut keep = KeepInPlace::default();
        for id in env.heap.regions_of_kind(RegionKind::Survivor) {
            let oldest = env.heap.objects_in_region(id).try_fold(0, |oldest, obj| {
                keep.headers_read += 1;
                let c = env.heap.header(obj).allocation_context()?;
                let g = table.advise(c).filter(|g| (1..=15).contains(g) && !table.is_canary(c))?;
                Some(oldest.max(g))
            });
            match oldest {
                None | Some(0) => {}
                Some(15) => keep.regions.push((id, RegionKind::Old)),
                Some(g) => keep.regions.push((id, RegionKind::Dynamic(g.min(14)))),
            }
        }
        keep
    }

    fn full_collect(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        self.start_collection(env);
        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let start_pauses = env.pauses.count();
        let stats = full_compact(env, &mut *hooks_ref);
        drop(hooks_ref);
        self.cycles += 1;
        self.stats.full_gcs += 1;
        self.candidates.clear();
        self.young_cohorts.clear();
        let pause =
            env.pauses.events().get(start_pauses).map(|e| e.duration).unwrap_or(SimTime::ZERO);
        self.finish_cycle(env, PauseKind::Full, &stats, pause);
    }

    fn finish_cycle(
        &mut self,
        env: &mut VmEnv,
        kind: PauseKind,
        stats: &EvacStats,
        pause: SimTime,
    ) {
        let mut scheduled = vec![false; env.heap.num_regions()];
        for id in
            self.candidates.iter().map(|&(id, _)| id).chain(self.young_cohorts.iter().copied())
        {
            scheduled[id.0 as usize] = true;
        }
        let info = GcCycleInfo {
            cycle: self.cycles,
            kind,
            bytes_copied: stats.bytes_copied,
            survivors: stats.survivors,
            duration: pause,
            tenured_fragmentation: Self::tenured_fragmentation(env, &scheduled),
            dynamic_gen_garbage: Self::dynamic_gen_garbage(env, &scheduled),
        };
        let hooks = Rc::clone(&self.hooks);
        hooks.borrow_mut().on_gc_end(env, &info);
    }

    /// True fragmentation is garbage *co-located with live data* that no
    /// collection will reclaim: a fully dead region is not fragmented (it
    /// is freed at cleanup), a freshly assigned region's liveness is
    /// unknown, garbage in a region the mixed schedule still holds or
    /// the waste stop dropped is reclaimed or accepted until the next
    /// marking, and a young cohort's liveness was read while it was still
    /// dying (`scheduled` holds both). Counting any of them would make
    /// the §6 demotion fire on healthy epochal behaviour, or with the
    /// phase of the mixed schedule, and drag correct estimates back
    /// towards the young generation.
    fn is_fragmented(id: RegionId, r: &rolp_heap::Region, scheduled: &[bool]) -> bool {
        r.liveness_valid && r.live_bytes > 0 && r.used_bytes() > 0 && !scheduled[id.0 as usize]
    }

    fn tenured_fragmentation(env: &VmEnv, scheduled: &[bool]) -> f64 {
        let mut used = 0u64;
        let mut garbage = 0u64;
        for (id, r) in env.heap.regions() {
            if matches!(r.kind, RegionKind::Old | RegionKind::Dynamic(_))
                && Self::is_fragmented(id, r, scheduled)
            {
                used += r.used_bytes();
                garbage += r.garbage_bytes();
            }
        }
        if used == 0 {
            0.0
        } else {
            garbage as f64 / used as f64
        }
    }

    fn dynamic_gen_garbage(env: &VmEnv, scheduled: &[bool]) -> [f64; 16] {
        let mut used = [0u64; 16];
        let mut garbage = [0u64; 16];
        for (id, r) in env.heap.regions() {
            if let RegionKind::Dynamic(g) = r.kind {
                if Self::is_fragmented(id, r, scheduled) {
                    used[g as usize] += r.used_bytes();
                    garbage[g as usize] += r.garbage_bytes();
                }
            }
        }
        let mut out = [0.0; 16];
        for g in 0..16 {
            if used[g] > 0 {
                out[g] = garbage[g] as f64 / used[g] as f64;
            }
        }
        out
    }
}

impl CollectorApi for RegionalCollector {
    fn fast_alloc(
        &mut self,
        env: &mut VmEnv,
        req: &AllocRequest,
        thread: u32,
    ) -> Option<ObjectRef> {
        let space = self.space_for(req);
        // Preserve the collection schedule: when the GC trigger would fire
        // for this allocation, decline so the slow path runs the identical
        // collect-then-allocate sequence at the identical allocation index.
        if matches!(space, SpaceKind::Eden) && self.should_collect(env) {
            return None;
        }
        match env.heap.tlab_alloc(
            thread,
            space,
            req.class,
            req.ref_words,
            req.data_words,
            req.header,
        ) {
            TlabAlloc::Hit(obj) => {
                if !matches!(space, SpaceKind::Eden) {
                    self.stats.pretenured += 1;
                }
                Some(obj)
            }
            TlabAlloc::Refilled(obj) => {
                charge_refill(env);
                if !matches!(space, SpaceKind::Eden) {
                    self.stats.pretenured += 1;
                }
                Some(obj)
            }
            TlabAlloc::Miss => None,
        }
    }

    fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef {
        let space = self.choose_space(&req);

        if matches!(space, SpaceKind::Eden) && self.should_collect(env) {
            env.trace.set_gc_cause("eden-full");
            self.collect(env);
        }

        for attempt in 0..3 {
            match env.heap.alloc_in(space, req.class, req.ref_words, req.data_words, req.header) {
                Ok(obj) => return obj,
                Err(AllocFailure::TooLarge) => {
                    panic!("OutOfMemoryError: object larger than the heap")
                }
                Err(AllocFailure::NeedsGc) => match attempt {
                    0 => {
                        env.trace.set_gc_cause("alloc-failure");
                        self.collect(env);
                    }
                    1 => {
                        env.trace.set_gc_cause("heap-full");
                        self.full_collect(env);
                    }
                    _ => break,
                },
            }
        }
        panic!(
            "OutOfMemoryError: {} could not free enough regions (heap {} bytes)",
            self.name,
            env.heap.max_heap_bytes()
        );
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn gc_cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rolp_heap::verify::verify_heap;
    use rolp_heap::{ClassId, Heap, HeapConfig, ObjectHeader};
    use rolp_telemetry::CounterId;
    use rolp_vm::{CostModel, JitConfig, ProgramBuilder};

    use super::*;
    use crate::observer::NullHooks;

    /// A 1 MiB heap of 256 regions of 4 KiB, with one class.
    fn test_env() -> VmEnv {
        let mut heap = Heap::new(HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 });
        heap.classes.register("t.Obj");
        VmEnv::new(
            heap,
            CostModel::default(),
            ProgramBuilder::new().build(),
            JitConfig::default(),
            1,
        )
    }

    fn hooks() -> Rc<RefCell<dyn GcHooks>> {
        Rc::new(RefCell::new(NullHooks))
    }

    /// Fills `regions` fresh regions of `space` with 480-byte objects,
    /// eight to a region, and roots the first `live(i)` objects of the
    /// `i`-th region. Returns the regions in fill order.
    fn fill(
        env: &mut VmEnv,
        space: SpaceKind,
        regions: usize,
        live: impl Fn(usize) -> usize,
    ) -> Vec<RegionId> {
        let mut filled: Vec<RegionId> = Vec::new();
        let mut in_region = 0;
        loop {
            let obj = env.heap.alloc_in(space, ClassId(0), 0, 58, ObjectHeader::new(1)).unwrap();
            if filled.last() != Some(&obj.region()) {
                if filled.len() == regions {
                    // Spilled into one region too many: leave it empty.
                    env.heap.release_region(obj.region());
                    return filled;
                }
                filled.push(obj.region());
                in_region = 0;
            }
            if in_region < live(filled.len() - 1) {
                env.heap.handles.create(obj);
            }
            in_region += 1;
        }
    }

    /// One context per case: decided at 3, 14 and 15; a canary row
    /// decided at 5; decided at generation 0; undecided.
    const CONTEXTS: [u32; 6] = [1 << 16, 2 << 16, 3 << 16, 4 << 16, 5 << 16, 6 << 16];

    /// A store holding one published table (version 1) over [`CONTEXTS`].
    fn decided_store() -> Rc<DecisionStore> {
        let rows: BTreeMap<u32, u8> = [
            (CONTEXTS[0], 3),
            (CONTEXTS[1], 14),
            (CONTEXTS[2], 15),
            (CONTEXTS[3], 5),
            (CONTEXTS[4], 0),
        ]
        .into_iter()
        .collect();
        let empty = DecisionTable::empty_with_geometry(64, 16);
        let table = DecisionTable::next_from_blended(&empty, &rows, [], |k| k == CONTEXTS[3]);
        Rc::new(DecisionStore::with_initial(table))
    }

    /// Allocates an object of context `ctx` in `space` with `refs`
    /// reference fields and four data words, the first holding `tag`.
    fn alloc_ctx(env: &mut VmEnv, space: SpaceKind, ctx: u32, refs: u16, tag: u64) -> ObjectRef {
        let header = ObjectHeader::new(1).with_allocation_context(ctx);
        let obj = env.heap.alloc_in(space, ClassId(0), refs, 4, header).unwrap();
        env.heap.set_data(obj, 0, tag);
        obj
    }

    /// Allocates one live eden object per context, runs one young
    /// collection and returns where each survivor landed.
    fn placements(mut collector: RegionalCollector) -> Vec<RegionKind> {
        let mut env = test_env();
        collector.set_decision_store(decided_store());
        let handles: Vec<_> = CONTEXTS
            .iter()
            .map(|&ctx| {
                let obj = alloc_ctx(&mut env, SpaceKind::Eden, ctx, 0, 0);
                env.heap.handles.create(obj)
            })
            .collect();
        assert!(collector.collect(&mut env), "the young collection succeeds");
        handles
            .into_iter()
            .map(|h| {
                let obj = env.heap.handles.get(h);
                assert_eq!(env.heap.header(obj).age(), 1, "one young copy ages once");
                env.heap.region(obj.region()).kind
            })
            .collect()
    }

    /// One survivor region holding a live object decided at 3 and a live
    /// object of context `other`, collected once by `collector` under the
    /// published table. Returns where both objects landed, whether they
    /// moved, and the environment.
    fn survivor_pair(
        mut collector: RegionalCollector,
        other: u32,
    ) -> ([RegionKind; 2], bool, VmEnv) {
        let mut env = test_env();
        collector.set_decision_store(decided_store());
        let objs =
            [CONTEXTS[0], other].map(|ctx| alloc_ctx(&mut env, SpaceKind::Survivor, ctx, 0, 7));
        assert_eq!(objs[0].region(), objs[1].region());
        let handles = objs.map(|o| env.heap.handles.create(o));
        assert!(collector.collect(&mut env), "the young collection succeeds");
        let now = handles.map(|h| env.heap.handles.get(h));
        assert_eq!(now.map(|o| env.heap.get_data(o, 0)), [7, 7]);
        let moved = now != objs;
        (now.map(|o| env.heap.region(o.region()).kind), moved, env)
    }

    #[test]
    fn marking_queues_its_trace_and_stops_the_clock_only_for_pauses() {
        let mut env = test_env();
        // Half the regions hold live tenured data, past the 45% trigger.
        let half = env.heap.num_regions() / 2;
        while env.heap.num_of_kind(RegionKind::Old) < half {
            let obj =
                env.heap.alloc_in(SpaceKind::Old, ClassId(0), 0, 60, ObjectHeader::new(1)).unwrap();
            env.heap.handles.create(obj);
        }
        let obj =
            env.heap.alloc_in(SpaceKind::Eden, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
        env.heap.handles.create(obj);

        let mut collector = RegionalCollector::g1(Rc::new(RefCell::new(NullHooks)));
        assert!(collector.collect(&mut env), "the young collection succeeds");
        assert_eq!(collector.stats().markings, 1, "the collection triggered marking");

        let kinds: Vec<PauseKind> = env.pauses.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [PauseKind::Young, PauseKind::ConcurrentHandshake], "young + remark");
        let paused: u64 = env.pauses.events().iter().map(|e| e.duration.as_nanos()).sum();
        assert_eq!(env.clock.now().as_nanos(), paused, "the clock advanced by the pauses only");
        let live: u64 = env.heap.handles.roots().map(|o| env.heap.size_words(o) as u64 * 8).sum();
        let owed = env.telemetry.gauge(rolp_telemetry::GaugeId::ConcurrentMarkOwedNs);
        assert_eq!(owed, env.cost.copy_ns(live) / 2, "trace queued");
    }

    #[test]
    fn a_dead_tenured_holder_does_not_keep_its_young_target_alive_after_marking() {
        let mut env = test_env();
        // Dead before the marking: an unrooted old object whose only
        // field is the sole reference to an eden object. The store is
        // recorded in the eden region's remembered set.
        let holder =
            env.heap.alloc_in(SpaceKind::Old, ClassId(0), 1, 4, ObjectHeader::new(1)).unwrap();
        let target =
            env.heap.alloc_in(SpaceKind::Eden, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
        env.heap.set_ref(holder, 0, target);

        // No mixed collections follow the marking, so the holder's region
        // stays out of the collection set and only its remembered-set
        // slot could root the target.
        // A rooted neighbour keeps the holder's region from being freed
        // at cleanup, which would drop the slot without the scrub.
        let neighbour =
            env.heap.alloc_in(SpaceKind::Old, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
        assert_eq!(neighbour.region(), holder.region());
        env.heap.handles.create(neighbour);
        let config = RegionalConfig { mixed_cycles: 0, ..Default::default() };
        let mut collector = RegionalCollector::with_config(config, hooks(), "G1");
        collector.run_marking(&mut env);
        let copied = env.heap.stats().objects_copied;
        assert!(collector.collect(&mut env), "the young collection succeeds");
        assert_eq!(collector.stats().young_gcs, 1);
        assert_eq!(env.heap.stats().objects_copied - copied, 0, "the dead holder rooted garbage");
    }

    #[test]
    fn decided_young_survivors_go_to_their_generation_at_the_first_evacuation() {
        assert_eq!(
            placements(RegionalCollector::ng2c(hooks())),
            [
                RegionKind::Dynamic(3),
                RegionKind::Dynamic(14),
                RegionKind::Old,
                RegionKind::Survivor, // canary row: keeps the age rule
                RegionKind::Survivor, // generation 0
                RegionKind::Survivor, // undecided
            ]
        );
        assert_eq!(
            placements(RegionalCollector::g1(hooks())),
            [RegionKind::Survivor; 6],
            "G1 ignores decisions"
        );

        // A survivor region is kept in place only if every object in it
        // is decided at 1-15 and not canary-flagged.
        let (kinds, moved, _) = survivor_pair(RegionalCollector::ng2c(hooks()), CONTEXTS[1]);
        assert_eq!(kinds, [RegionKind::Dynamic(14); 2], "kept, as its oldest generation");
        assert!(!moved);
        for other in [CONTEXTS[3], CONTEXTS[4], CONTEXTS[5]] {
            let (kinds, moved, env) = survivor_pair(RegionalCollector::ng2c(hooks()), other);
            assert_eq!(kinds, [RegionKind::Dynamic(3), RegionKind::Survivor], "copied");
            assert!(moved);
            assert_eq!(env.telemetry.publish(0).counter(CounterId::RegionsKeptInPlace), 0);
        }
    }

    #[test]
    fn g1_never_keeps_a_region() {
        let (kinds, moved, env) = survivor_pair(RegionalCollector::g1(hooks()), CONTEXTS[1]);
        assert_eq!(kinds, [RegionKind::Survivor; 2]);
        assert!(moved, "G1 copies every survivor");
        assert_eq!(env.telemetry.publish(0).counter(CounterId::RegionsKeptInPlace), 0);
    }

    #[test]
    fn a_fully_decided_survivor_region_is_kept_and_relabeled_to_its_oldest_generation() {
        let mut env = test_env();
        let mut collector = RegionalCollector::ng2c(hooks());
        collector.set_decision_store(decided_store());
        // One survivor region: live objects decided at 3 and 14, and a
        // run of two dead ones between them.
        let live_a = alloc_ctx(&mut env, SpaceKind::Survivor, CONTEXTS[0], 1, 0xA);
        let dead: Vec<ObjectRef> =
            (0..2).map(|_| alloc_ctx(&mut env, SpaceKind::Survivor, CONTEXTS[1], 1, 0)).collect();
        let live_b = alloc_ctx(&mut env, SpaceKind::Survivor, CONTEXTS[1], 1, 0xB);
        let region = live_a.region();
        assert!(dead.iter().chain([&live_b]).all(|o| o.region() == region));
        // A dead object still points at a live one: the filler drops it.
        env.heap.set_ref(dead[0], 0, live_b);
        env.heap.set_ref(live_a, 0, live_b);
        let root = env.heap.handles.create(live_a);
        let dead_words = dead.iter().map(|&o| env.heap.size_words(o) as u64).sum::<u64>();

        assert!(collector.collect(&mut env), "the young collection succeeds");
        assert_eq!(env.heap.stats().objects_copied, 0, "nothing was copied");
        assert_eq!(env.heap.stats().bytes_copied, 0);
        let r = env.heap.region(region);
        assert_eq!(r.kind, RegionKind::Dynamic(14), "relabeled to its oldest generation");
        assert_eq!(r.filled_dead_bytes, dead_words * 8, "the dead run is one filler");
        let objects: Vec<ObjectRef> = env.heap.objects_in_region(region).collect();
        assert_eq!(objects, [live_a, live_b]);
        assert_eq!(r.live_bytes, objects.iter().map(|&o| env.heap.size_words(o) as u64 * 8).sum());
        assert_eq!(env.heap.handles.get(root), live_a);
        for (obj, ctx, tag) in [(live_a, CONTEXTS[0], 0xA), (live_b, CONTEXTS[1], 0xB)] {
            let header = env.heap.header(obj);
            assert_eq!((header.age(), header.allocation_context()), (1, Some(ctx)));
            assert_eq!(env.heap.get_data(obj, 0), tag);
        }
        assert_eq!(env.telemetry.publish(0).counter(CounterId::RegionsKeptInPlace), 1);
        assert_eq!(verify_heap(&env.heap, true), []);

        // An eden object reachable only from a kept object survives the
        // next young collection through the remembered set.
        let young = alloc_ctx(&mut env, SpaceKind::Eden, CONTEXTS[5], 0, 0xC);
        env.heap.set_ref(live_b, 0, young);
        assert!(collector.collect(&mut env));
        let young = env.heap.get_ref(live_b, 0);
        assert_eq!(env.heap.region(young.region()).kind, RegionKind::Survivor);
        assert_eq!(env.heap.get_data(young, 0), 0xC);
        assert_eq!(env.heap.region(region).kind, RegionKind::Dynamic(14), "kept once");
        assert_eq!(verify_heap(&env.heap, true), []);
    }

    /// Hooks that record every survivor report.
    #[derive(Default)]
    struct SurvivorLog(Vec<(ObjectHeader, RegionKind)>);

    impl GcHooks for SurvivorLog {
        fn survivor_tracking_enabled(&self) -> bool {
            true
        }

        fn on_survivor(&mut self, header: ObjectHeader, from: RegionKind, _worker: u32) {
            self.0.push((header, from));
        }
    }

    #[test]
    fn a_kept_region_reports_the_same_survivors_as_copying_it() {
        let run = |keep: bool| {
            let mut env = test_env();
            let log = Rc::new(RefCell::new(SurvivorLog::default()));
            let mut collector = RegionalCollector::ng2c(log.clone());
            collector.set_decision_store(decided_store());
            if !keep {
                // The table was read already: no header pass, so the
                // region takes the copy path.
                collector.kept_version = 1;
            }
            // A cycle through a survivor region and eden, rooted twice;
            // the second survivor object is dead.
            let ctxs = [CONTEXTS[0], CONTEXTS[2], CONTEXTS[1], CONTEXTS[0]];
            let objs: Vec<ObjectRef> = ctxs
                .iter()
                .enumerate()
                .map(|(i, &c)| alloc_ctx(&mut env, SpaceKind::Survivor, c, 2, i as u64))
                .collect();
            let young = alloc_ctx(&mut env, SpaceKind::Eden, CONTEXTS[5], 1, 9);
            env.heap.set_ref(objs[3], 0, objs[0]);
            env.heap.set_ref(objs[0], 0, young);
            env.heap.set_ref(objs[0], 1, objs[2]);
            env.heap.set_ref(young, 0, objs[3]);
            env.heap.handles.create(objs[2]);
            env.heap.handles.create(young);
            assert!(collector.collect(&mut env));
            let kept = env.telemetry.publish(0).counter(CounterId::RegionsKeptInPlace);
            assert_eq!(kept, keep as u64);
            assert_eq!(env.heap.stats().objects_copied, if keep { 1 } else { 4 });
            assert_eq!(verify_heap(&env.heap, true), []);
            let reports = std::mem::take(&mut log.borrow_mut().0);
            reports
        };
        let kept = run(true);
        assert_eq!(kept.len(), 4, "three survivor objects and the eden one");
        assert_eq!(kept, run(false));
    }

    #[test]
    fn a_wholly_dead_dynamic_region_is_freed_at_remark_without_copying() {
        let mut env = test_env();
        let dead = fill(&mut env, SpaceKind::Dynamic(3), 1, |_| 0)[0];
        let kept = fill(&mut env, SpaceKind::Dynamic(3), 1, |_| 4)[0];
        let mut collector = RegionalCollector::ng2c(hooks());
        collector.run_marking(&mut env);

        assert_eq!(env.heap.region(dead).kind, RegionKind::Free, "freed at cleanup");
        assert_eq!(env.heap.region(kept).kind, RegionKind::Dynamic(3), "live data stays");
        assert_eq!(collector.stats().regions_died_together, 1);
        assert_eq!(env.heap.stats().objects_copied, 0, "nothing was copied");
        assert_eq!(env.pauses.events().len(), 1, "only the remark paused");
    }

    #[test]
    fn heap_is_valid_after_cleanup_frees_a_region_a_dead_object_pointed_into() {
        let mut env = test_env();
        let dead = fill(&mut env, SpaceKind::Dynamic(5), 1, |_| 0)[0];
        let target = env.heap.objects_in_region(dead).next().unwrap();
        // A dead holder in a region that stays: its live neighbour is
        // rooted.
        let live =
            env.heap.alloc_in(SpaceKind::Old, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
        env.heap.handles.create(live);
        let holder =
            env.heap.alloc_in(SpaceKind::Old, ClassId(0), 1, 0, ObjectHeader::new(1)).unwrap();
        env.heap.set_ref(holder, 0, target);
        let mut collector = RegionalCollector::ng2c(hooks());
        collector.run_marking(&mut env);

        assert_eq!(env.heap.region(dead).kind, RegionKind::Free, "freed at cleanup");
        assert_eq!(env.heap.region(holder.region()).kind, RegionKind::Old);
        assert_eq!(verify_heap(&env.heap, false), []);
    }

    #[test]
    fn mixed_candidates_are_chosen_once_by_efficiency_spread_and_stopped_under_waste() {
        let mut env = test_env();
        // 96 old regions, 0 to 7 of 8 objects live: 12 wholly dead for
        // cleanup, 12 above 85% live, and 72 candidates whose garbage is
        // 14.8% of the heap.
        let old = fill(&mut env, SpaceKind::Old, 96, |i| (i * 5) % 8);
        let mut collector = RegionalCollector::g1(hooks());
        collector.run_marking(&mut env);
        assert_eq!(collector.stats().regions_died_together, 12);

        let efficiency = |env: &VmEnv, id: RegionId| {
            let r = env.heap.region(id);
            let region_ns = env.cost.region_overhead_ns as f64 / env.cost.gc_workers as f64;
            r.garbage_bytes() as f64 / (env.cost.copy_ns(r.live_bytes) as f64 + region_ns)
        };
        let chosen: Vec<RegionId> = collector.candidates.iter().map(|&(id, _)| id).collect();
        let expected: Vec<RegionId> = old
            .iter()
            .copied()
            .filter(|&id| {
                let r = env.heap.region(id);
                r.kind == RegionKind::Old && r.live_bytes * 100 <= r.used_bytes() * 85
            })
            .collect();
        assert_eq!(chosen.len(), expected.len());
        assert!(
            expected.iter().all(|id| chosen.contains(id)),
            "every sparse region is a candidate"
        );
        assert!(
            chosen.windows(2).all(|w| efficiency(&env, w[0]) >= efficiency(&env, w[1])),
            "most efficient first"
        );
        assert_eq!(collector.mixed_batch, chosen.len().div_ceil(4), "spread over mixed_cycles");

        // Mixed collections take the list in order, one batch each, and
        // stop once what is left would free under 5% of the heap.
        let heap_bytes = 1u64 << 20;
        let mut taken = 0;
        loop {
            let reclaimable: u64 = collector.candidates.iter().map(|&(_, g)| g).sum();
            let before = collector.stats().mixed_gcs;
            assert!(collector.collect(&mut env));
            if reclaimable * 100 < heap_bytes * HEAP_WASTE_PERCENT {
                assert_eq!(collector.stats().mixed_gcs, before, "stopped under the waste floor");
                break;
            }
            assert_eq!(collector.stats().mixed_gcs, before + 1);
            let batch = collector.mixed_batch.min(chosen.len() - taken);
            for &id in &chosen[taken..taken + batch] {
                assert_eq!(env.heap.region(id).kind, RegionKind::Free, "collected in list order");
            }
            taken += batch;
        }
        assert_eq!(collector.stats().mixed_gcs, 2, "the waste stop came before mixed_cycles");
        assert!(!collector.candidates.is_empty(), "the waste stop leaves garbage behind");
        assert_eq!(collector.stats().markings, 1, "no marking while candidates were due");
    }

    /// Runs `n` young collections over an empty eden: each ages every
    /// region by one collection.
    fn age_by(collector: &mut RegionalCollector, env: &mut VmEnv, n: usize) {
        for _ in 0..n {
            assert!(collector.collect(env));
        }
    }

    fn is_candidate(collector: &RegionalCollector, id: RegionId) -> bool {
        collector.candidates.iter().any(|&(c, _)| c == id)
    }

    #[test]
    fn a_dynamic_region_is_a_mixed_candidate_only_once_its_cohort_outlived_its_generation() {
        let mut env = test_env();
        // Half live: well under the 85% threshold at any age.
        let cohort = fill(&mut env, SpaceKind::Dynamic(3), 1, |_| 4)[0];
        let mut collector = RegionalCollector::ng2c(hooks());
        age_by(&mut collector, &mut env, 3);
        collector.run_marking(&mut env);
        assert!(!is_candidate(&collector, cohort), "age 3 is within generation 3's lifetime");
        assert_eq!(collector.young_cohorts, [cohort]);

        age_by(&mut collector, &mut env, 1);
        assert_eq!(collector.stats().mixed_gcs, 0, "nothing was scheduled");
        collector.run_marking(&mut env);
        assert!(is_candidate(&collector, cohort), "age 4 has outlived generation 3");
        assert!(collector.young_cohorts.is_empty());
        assert_eq!(env.heap.stats().objects_copied, 0);
    }

    #[test]
    fn a_wholly_dead_young_cohort_is_freed_at_cleanup_while_its_live_sibling_waits() {
        let mut env = test_env();
        let dead = fill(&mut env, SpaceKind::Dynamic(3), 1, |_| 0)[0];
        let sibling = fill(&mut env, SpaceKind::Dynamic(3), 1, |_| 2)[0];
        let mut collector = RegionalCollector::ng2c(hooks());
        age_by(&mut collector, &mut env, 1);
        collector.run_marking(&mut env);

        assert_eq!(env.heap.region(dead).kind, RegionKind::Free, "freed at cleanup");
        assert_eq!(collector.stats().regions_died_together, 1);
        assert!(collector.candidates.is_empty(), "the 25%-live sibling is a young cohort");
        age_by(&mut collector, &mut env, 2);
        assert_eq!(collector.stats().mixed_gcs, 0);
        assert_eq!(env.heap.region(sibling).kind, RegionKind::Dynamic(3));
        assert_eq!(env.heap.stats().objects_copied, 0, "nothing was copied");
    }

    #[test]
    fn young_cohorts_leave_the_candidates_g1_chooses_over_old_regions_unchanged() {
        let old_only = |env: &mut VmEnv| fill(env, SpaceKind::Old, 96, |i| (i * 5) % 8);
        let mut g1_env = test_env();
        old_only(&mut g1_env);
        let mut g1 = RegionalCollector::g1(hooks());
        g1.run_marking(&mut g1_env);

        // The same old regions, then 20 half-live cohorts of generation 5
        // that no collection has aged yet.
        let mut env = test_env();
        old_only(&mut env);
        let cohorts = fill(&mut env, SpaceKind::Dynamic(5), 20, |_| 4);
        let mut ng2c = RegionalCollector::ng2c(hooks());
        ng2c.run_marking(&mut env);

        assert!(!g1.candidates.is_empty());
        assert_eq!(ng2c.candidates, g1.candidates, "same regions, same order, same garbage");
        assert_eq!(ng2c.mixed_batch, g1.mixed_batch);
        assert_eq!(ng2c.young_cohorts, cohorts);
    }

    /// Hooks that keep the last cycle's per-generation garbage reading.
    #[derive(Default)]
    struct GarbageReading(Option<[f64; 16]>);

    impl GcHooks for GarbageReading {
        fn on_gc_end(&mut self, _env: &mut VmEnv, info: &GcCycleInfo) {
            self.0 = Some(info.dynamic_gen_garbage);
        }
    }

    #[test]
    fn a_young_cohorts_garbage_is_no_fragmentation_reading_until_a_later_marking() {
        let mut env = test_env();
        // 7 of 8 objects live: above the 85% threshold, never a candidate.
        fill(&mut env, SpaceKind::Dynamic(2), 1, |_| 7);
        let reading = Rc::new(RefCell::new(GarbageReading::default()));
        let mut collector = RegionalCollector::ng2c(reading.clone());
        let gen2 = |r: &Rc<RefCell<GarbageReading>>| r.borrow().0.expect("a cycle ended")[2];

        collector.run_marking(&mut env);
        age_by(&mut collector, &mut env, 1);
        assert_eq!(gen2(&reading), 0.0, "read at age 0, while the cohort was dying");
        age_by(&mut collector, &mut env, 2);
        assert_eq!(gen2(&reading), 0.0, "no marking has read it since");

        collector.run_marking(&mut env);
        age_by(&mut collector, &mut env, 1);
        assert_eq!(gen2(&reading), 0.125, "read again past its generation's lifetime");
    }

    #[test]
    fn zero_mixed_cycles_frees_dead_regions_at_cleanup_but_runs_no_mixed_collection() {
        let mut env = test_env();
        fill(&mut env, SpaceKind::Old, 96, |i| (i * 5) % 8);
        let config = RegionalConfig { mixed_cycles: 0, ..Default::default() };
        let mut collector = RegionalCollector::with_config(config, hooks(), "G1");
        collector.run_marking(&mut env);
        for _ in 0..4 {
            assert!(collector.collect(&mut env));
        }
        assert_eq!(collector.stats().regions_died_together, 12, "cleanup still frees");
        assert_eq!(collector.stats().mixed_gcs, 0);
        assert_eq!(env.heap.num_of_kind(RegionKind::Old), 84);
    }
}
