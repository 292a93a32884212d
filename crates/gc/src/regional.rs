//! The regional generational collector: G1 and NG2C.
//!
//! One engine covers both collectors the paper builds on:
//!
//! - **G1 mode** (`pretenuring = false`): region-based young collections
//!   (eden + survivors evacuated, age-based tenuring with survivor-space
//!   overflow), marking when tenured occupancy crosses a threshold, then
//!   mixed collections over the most-garbage old regions — Garbage-First
//!   [Detlefs et al. 2004] as the paper's baseline.
//! - **NG2C mode** (`pretenuring = true`): the same engine plus 16
//!   generations (young, 14 dynamic, old; paper §7.1). Allocations carry a
//!   target generation — from hand annotations (the NG2C baseline) or from
//!   ROLP's advice (the paper's contribution) — and go straight to that
//!   dynamic generation, skipping every young-generation copy. Dynamic
//!   regions whose objects died together are reclaimed without copying.
//!
//! The mechanical claim of the paper emerges here, not from a formula:
//! pretenured long-lived objects are never copied through the survivor
//! spaces, so young pauses shrink with the bytes they no longer copy.

use std::cell::RefCell;
use std::rc::Rc;

use rolp_heap::{AllocFailure, ObjectRef, RegionId, RegionKind, SpaceKind, TlabAlloc};
use rolp_metrics::{PauseKind, SimTime};
use rolp_vm::{AllocRequest, CollectorApi, DecisionStore, VmEnv};

use crate::evac::{charge_refill, evacuate, full_compact, EvacStats};
use crate::mark::mark_liveness;
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
    /// A tenured region joins a mixed collection set if its live fraction
    /// is at most this (G1's `G1MixedGCLiveThresholdPercent`).
    pub mixed_live_threshold: f64,
    /// Maximum tenured regions per mixed collection.
    pub mixed_max_regions: usize,
    /// Mixed collections to run after each marking cycle.
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
            mixed_max_regions: 256,
            mixed_cycles: 4,
            reserve_regions: 4,
            pretenuring: false,
        }
    }
}

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
    /// Tenured regions reclaimed with zero survivors ("died together").
    pub regions_died_together: u64,
}

/// The G1/NG2C collector.
pub struct RegionalCollector {
    config: RegionalConfig,
    hooks: Rc<RefCell<dyn GcHooks>>,
    decisions: Option<Rc<DecisionStore>>,
    cycles: u64,
    mixed_remaining: usize,
    liveness_fresh: bool,
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
            mixed_remaining: 0,
            liveness_fresh: false,
            stats: RegionalStats::default(),
            name,
        }
    }

    /// Collector statistics.
    pub fn stats(&self) -> RegionalStats {
        self.stats
    }

    /// Attaches the profiler's published [`DecisionStore`]. Evacuation
    /// then routes promoted survivors straight to their advised dynamic
    /// generation by reading the current snapshot (the same table the
    /// allocation fast path indexes).
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

    /// "Concurrent" marking: liveness is recomputed with the cost charged
    /// to mutator time, plus a short remark pause — matching G1's
    /// concurrent cycle shape.
    fn run_marking(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        let mark = mark_liveness(&mut env.heap);
        self.hooks.borrow_mut().on_liveness(&mark.context_live);
        // Tracing is roughly bandwidth-bound like copying, but runs
        // concurrently with the application.
        let trace_ns = env.cost.copy_ns(mark.live_bytes) / 2;
        env.clock.advance(trace_ns);
        env.telemetry.add(rolp_telemetry::Bucket::GcMark, trace_ns);
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

        // Eagerly reclaim dead humongous regions (G1 does this at cleanup).
        for id in env.heap.regions_of_kind(RegionKind::Humongous) {
            if env.heap.region(id).live_bytes == 0 {
                env.heap.release_region(id);
            }
        }
        env.heap.purge_remsets();
        self.liveness_fresh = true;
        self.mixed_remaining = self.config.mixed_cycles;
        self.stats.markings += 1;
    }

    fn mixed_candidates(&self, env: &VmEnv) -> Vec<RegionId> {
        let mut cands: Vec<(u64, RegionId)> = env
            .heap
            .regions()
            .filter(|(_, r)| {
                let tenured = matches!(r.kind, RegionKind::Old | RegionKind::Dynamic(_));
                // Only regions whose liveness was established by a marking
                // *after* their assignment are candidates; a fresh region's
                // zero live-bytes means "unknown", not "dead".
                if !tenured || r.used_bytes() == 0 || !r.liveness_valid {
                    return false;
                }
                let live_frac = r.live_bytes as f64 / r.used_bytes() as f64;
                live_frac <= self.config.mixed_live_threshold
            })
            .map(|(id, r)| (r.garbage_bytes(), id))
            .collect();
        cands.sort_by_key(|&(g, _)| std::cmp::Reverse(g));
        let cap = self.config.mixed_max_regions.min(env.heap.num_regions() / 8).max(4);
        cands.truncate(cap);
        cands.into_iter().map(|(_, id)| id).collect()
    }

    /// Runs one young or mixed collection. Returns true on success; false
    /// means evacuation failed and a full compaction was performed.
    fn collect(&mut self, env: &mut VmEnv) -> bool {
        env.heap.retire_all_tlabs();
        let mut cset: Vec<RegionId> = env.heap.regions_of_kind(RegionKind::Eden);
        cset.extend(env.heap.regions_of_kind(RegionKind::Survivor));

        let mixed = self.mixed_remaining > 0 && self.liveness_fresh;
        let mut kind = PauseKind::Young;
        if mixed {
            let cands = self.mixed_candidates(env);
            if cands.is_empty() {
                self.mixed_remaining = 0;
            } else {
                cset.extend(cands);
                kind = PauseKind::Mixed;
                self.mixed_remaining -= 1;
            }
        }

        let survivor_budget = (env.heap.num_regions() as f64 * self.config.survivor_fraction)
            as u64
            * env.heap.region_bytes() as u64;
        let tenuring = self.config.tenuring_threshold;
        let mut survivor_bytes = 0u64;
        // Promotion placement: a survivor leaving the young spaces lands
        // in its advised dynamic generation when the current decision
        // snapshot has one for its allocation context (objects allocated
        // before the decision was published still regroup with their
        // cohort), otherwise in old — G1's behavior.
        let decisions = if self.config.pretenuring { self.decisions.as_deref() } else { None };
        let mut dest =
            |from: RegionKind, age: u8, size_words: u32, ctx: Option<u32>| -> SpaceKind {
                match from {
                    RegionKind::Eden | RegionKind::Survivor => {
                        survivor_bytes += size_words as u64 * 8;
                        if age >= tenuring || survivor_bytes > survivor_budget {
                            match ctx.zip(decisions).and_then(|(c, store)| store.load().advise(c)) {
                                Some(g @ 1..=14) => SpaceKind::Dynamic(g),
                                _ => SpaceKind::Old,
                            }
                        } else {
                            SpaceKind::Survivor
                        }
                    }
                    RegionKind::Dynamic(g) => SpaceKind::Dynamic(g),
                    _ => SpaceKind::Old,
                }
            };

        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let outcome = evacuate(env, &cset, &mut dest, &mut *hooks_ref, kind);
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

        // Kick off marking when tenured occupancy crosses the trigger.
        let tenured_frac = self.tenured_regions(env) as f64 / env.heap.num_regions() as f64;
        if tenured_frac > self.config.mark_trigger && self.mixed_remaining == 0 {
            self.run_marking(env);
        }
        true
    }

    fn full_collect(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let start_pauses = env.pauses.count();
        let stats = full_compact(env, &mut *hooks_ref);
        drop(hooks_ref);
        self.cycles += 1;
        self.stats.full_gcs += 1;
        self.liveness_fresh = true; // full GC recomputed liveness
        self.mixed_remaining = 0;
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
        let info = GcCycleInfo {
            cycle: self.cycles,
            kind,
            bytes_copied: stats.bytes_copied,
            survivors: stats.survivors,
            duration: pause,
            tenured_fragmentation: self.tenured_fragmentation(env),
            dynamic_gen_garbage: self.dynamic_gen_garbage(env),
        };
        let hooks = Rc::clone(&self.hooks);
        hooks.borrow_mut().on_gc_end(env, &info);
    }

    /// True fragmentation is garbage *co-located with live data*: a fully
    /// dead region is not fragmented (it is reclaimed for free at the next
    /// mixed cycle), and a freshly assigned region's liveness is unknown.
    /// Counting either would make the §6 demotion fire on healthy epochal
    /// behaviour and drag correct estimates back towards the young
    /// generation.
    fn is_fragmented_candidate(r: &rolp_heap::Region) -> bool {
        r.liveness_valid && r.live_bytes > 0 && r.used_bytes() > 0
    }

    fn tenured_fragmentation(&self, env: &VmEnv) -> f64 {
        let mut used = 0u64;
        let mut garbage = 0u64;
        for (_, r) in env.heap.regions() {
            if matches!(r.kind, RegionKind::Old | RegionKind::Dynamic(_))
                && Self::is_fragmented_candidate(r)
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

    fn dynamic_gen_garbage(&self, env: &VmEnv) -> [f64; 16] {
        let mut used = [0u64; 16];
        let mut garbage = [0u64; 16];
        for (_, r) in env.heap.regions() {
            if let RegionKind::Dynamic(g) = r.kind {
                if Self::is_fragmented_candidate(r) {
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
