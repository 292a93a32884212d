//! The CMS-like collector.
//!
//! Young generation: stop-the-world copying collections (ParNew-style)
//! with an age-based tenuring threshold. Old generation: *never compacted
//! concurrently* — a concurrent mark-sweep cycle (initial-mark and remark
//! pauses, marking and sweeping charged to mutator time) reclaims only
//! regions that are entirely dead. Partially dead old regions accumulate
//! as fragmentation until the heap runs out of regions, at which point a
//! stop-the-world full compaction produces the long tail pauses the paper
//! attributes to CMS (§8.4).

use std::cell::RefCell;
use std::rc::Rc;

use rolp_heap::{AllocFailure, ObjectRef, RegionId, RegionKind, SpaceKind, TlabAlloc};
use rolp_metrics::{PauseKind, SimTime};
use rolp_vm::{AllocRequest, CollectorApi, VmEnv};

use crate::evac::{charge_refill, evacuate, full_compact, trace_pause, EvacStats};
use crate::mark::mark_liveness;
use crate::observer::{GcCycleInfo, GcHooks};

/// Tunables of the CMS-like collector.
#[derive(Debug, Clone)]
pub struct CmsConfig {
    /// Young-generation target as a fraction of total regions.
    pub eden_fraction: f64,
    /// Survivor cap as a fraction of total regions.
    pub survivor_fraction: f64,
    /// Tenuring threshold (CMS default is lower than G1's; promotes
    /// earlier).
    pub tenuring_threshold: u8,
    /// Occupancy fraction starting a concurrent mark-sweep cycle
    /// (`CMSInitiatingOccupancyFraction`).
    pub initiating_occupancy: f64,
    /// Regions kept free as promotion reserve.
    pub reserve_regions: usize,
}

impl Default for CmsConfig {
    fn default() -> Self {
        CmsConfig {
            eden_fraction: 0.25,
            survivor_fraction: 0.08,
            tenuring_threshold: 6,
            initiating_occupancy: 0.60,
            reserve_regions: 4,
        }
    }
}

/// Per-collector statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CmsStats {
    /// Young collections.
    pub young_gcs: u64,
    /// Concurrent mark-sweep cycles.
    pub concurrent_cycles: u64,
    /// Old regions swept (reclaimed without copying).
    pub regions_swept: u64,
    /// Stop-the-world full compactions.
    pub full_gcs: u64,
}

/// The CMS-like collector.
pub struct CmsCollector {
    config: CmsConfig,
    hooks: Rc<RefCell<dyn GcHooks>>,
    cycles: u64,
    stats: CmsStats,
}

impl CmsCollector {
    /// Creates a CMS collector with default tunables.
    pub fn new(hooks: Rc<RefCell<dyn GcHooks>>) -> Self {
        CmsCollector::with_config(CmsConfig::default(), hooks)
    }

    /// Creates a CMS collector with explicit tunables.
    pub fn with_config(config: CmsConfig, hooks: Rc<RefCell<dyn GcHooks>>) -> Self {
        CmsCollector { config, hooks, cycles: 0, stats: CmsStats::default() }
    }

    /// Collector statistics.
    pub fn stats(&self) -> CmsStats {
        self.stats
    }

    fn eden_target(&self, env: &VmEnv) -> usize {
        ((env.heap.num_regions() as f64 * self.config.eden_fraction) as usize).max(1)
    }

    fn should_collect_young(&self, env: &VmEnv) -> bool {
        env.heap.num_of_kind(RegionKind::Eden) >= self.eden_target(env)
            || env.heap.free_regions() <= self.config.reserve_regions
    }

    fn occupancy(&self, env: &VmEnv) -> f64 {
        let total = env.heap.num_regions();
        (total - env.heap.free_regions()) as f64 / total as f64
    }

    fn collect_young(&mut self, env: &mut VmEnv) -> bool {
        env.heap.retire_all_tlabs();
        let mut cset: Vec<RegionId> = env.heap.regions_of_kind(RegionKind::Eden);
        cset.extend(env.heap.regions_of_kind(RegionKind::Survivor));

        let survivor_budget = (env.heap.num_regions() as f64 * self.config.survivor_fraction)
            as u64
            * env.heap.region_bytes() as u64;
        let tenuring = self.config.tenuring_threshold;
        let mut survivor_bytes = 0u64;
        let mut dest =
            |from: RegionKind, age: u8, size_words: u32, _ctx: Option<u32>| -> SpaceKind {
                match from {
                    RegionKind::Eden | RegionKind::Survivor => {
                        survivor_bytes += size_words as u64 * 8;
                        if age >= tenuring || survivor_bytes > survivor_budget {
                            SpaceKind::Old
                        } else {
                            SpaceKind::Survivor
                        }
                    }
                    _ => SpaceKind::Old,
                }
            };

        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let outcome = evacuate(env, &cset, &mut dest, &mut *hooks_ref, PauseKind::Young);
        drop(hooks_ref);

        self.cycles += 1;
        self.stats.young_gcs += 1;

        if outcome.failed {
            env.trace.set_gc_cause("evac-failure");
            self.full_collect(env);
            return false;
        }
        self.notify_end(
            env,
            PauseKind::Young,
            outcome.stats.bytes_copied,
            outcome.stats.survivors,
            outcome.pause,
        );

        // Concurrent old-generation cycle when occupancy crosses the
        // initiating threshold.
        if self.occupancy(env) > self.config.initiating_occupancy {
            self.concurrent_cycle(env);
        }
        true
    }

    /// Concurrent mark + sweep: marking charged to mutator time framed by
    /// two short pauses; sweeping releases only fully dead old regions —
    /// no compaction, so fragmentation stays.
    fn concurrent_cycle(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        // Initial mark pause.
        let t0 = env.clock.now();
        let initial = SimTime::from_nanos(env.cost.safepoint_ns);
        env.clock.advance_paused(initial);
        env.telemetry.add(rolp_telemetry::Bucket::GcMark, initial.as_nanos());
        env.pauses.record(t0, initial, PauseKind::ConcurrentHandshake);
        crate::evac::telemetry_pause(env, initial);
        env.trace.set_gc_cause("initial-mark");
        trace_pause(env, t0, initial, PauseKind::ConcurrentHandshake, &EvacStats::default());

        let mark = mark_liveness(&mut env.heap);
        self.hooks.borrow_mut().on_liveness(&mark.context_live);
        let trace_ns = env.cost.copy_ns(mark.live_bytes) / 2;
        env.clock.advance(trace_ns);
        env.telemetry.add(rolp_telemetry::Bucket::GcMark, trace_ns);

        // Remark pause (rescan roots).
        let t1 = env.clock.now();
        let remark = SimTime::from_nanos(
            env.cost.safepoint_ns
                + env.heap.handles.live() as u64 * env.cost.root_scan_ns
                    / env.cost.gc_workers.max(1),
        );
        env.clock.advance_paused(remark);
        env.telemetry.add(rolp_telemetry::Bucket::GcMark, remark.as_nanos());
        env.pauses.record(t1, remark, PauseKind::ConcurrentHandshake);
        crate::evac::telemetry_pause(env, remark);
        env.trace.set_gc_cause("remark");
        trace_pause(env, t1, remark, PauseKind::ConcurrentHandshake, &EvacStats::default());

        // Concurrent sweep: free wholly dead old and humongous regions.
        let mut swept = 0u64;
        for id in env
            .heap
            .regions()
            .filter(|(_, r)| {
                matches!(r.kind, RegionKind::Old | RegionKind::Humongous)
                    && r.used_bytes() > 0
                    && r.live_bytes == 0
                    && r.liveness_valid
            })
            .map(|(id, _)| id)
            .collect::<Vec<_>>()
        {
            env.heap.release_region(id);
            swept += 1;
        }
        env.heap.purge_remsets();
        env.heap.retire_current(SpaceKind::Old);
        self.stats.regions_swept += swept;
        self.stats.concurrent_cycles += 1;
        env.sample_memory();
    }

    fn full_collect(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let before = env.pauses.count();
        let stats = full_compact(env, &mut *hooks_ref);
        drop(hooks_ref);
        self.cycles += 1;
        self.stats.full_gcs += 1;
        let pause = env.pauses.events().get(before).map(|e| e.duration).unwrap_or(SimTime::ZERO);
        self.notify_end(env, PauseKind::Full, stats.bytes_copied, stats.survivors, pause);
    }

    fn notify_end(
        &mut self,
        env: &mut VmEnv,
        kind: PauseKind,
        bytes_copied: u64,
        survivors: u64,
        duration: SimTime,
    ) {
        let mut used = 0u64;
        let mut garbage = 0u64;
        for (_, r) in env.heap.regions() {
            if matches!(r.kind, RegionKind::Old) {
                used += r.used_bytes();
                garbage += r.garbage_bytes();
            }
        }
        let info = GcCycleInfo {
            cycle: self.cycles,
            kind,
            bytes_copied,
            survivors,
            duration,
            tenured_fragmentation: if used == 0 { 0.0 } else { garbage as f64 / used as f64 },
            dynamic_gen_garbage: [0.0; 16],
        };
        let hooks = Rc::clone(&self.hooks);
        hooks.borrow_mut().on_gc_end(env, &info);
    }
}

impl CollectorApi for CmsCollector {
    fn fast_alloc(
        &mut self,
        env: &mut VmEnv,
        req: &AllocRequest,
        thread: u32,
    ) -> Option<ObjectRef> {
        // Decline when the young trigger would fire so the slow path runs
        // the collection at the identical allocation index.
        if self.should_collect_young(env) {
            return None;
        }
        match env.heap.tlab_alloc(
            thread,
            SpaceKind::Eden,
            req.class,
            req.ref_words,
            req.data_words,
            req.header,
        ) {
            TlabAlloc::Hit(obj) => Some(obj),
            TlabAlloc::Refilled(obj) => {
                charge_refill(env);
                Some(obj)
            }
            TlabAlloc::Miss => None,
        }
    }

    fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef {
        if self.should_collect_young(env) {
            env.trace.set_gc_cause("eden-full");
            self.collect_young(env);
        }
        for attempt in 0..3 {
            match env.heap.alloc_in(
                SpaceKind::Eden,
                req.class,
                req.ref_words,
                req.data_words,
                req.header,
            ) {
                Ok(obj) => return obj,
                Err(AllocFailure::TooLarge) => {
                    panic!("OutOfMemoryError: object larger than the heap")
                }
                Err(AllocFailure::NeedsGc) => match attempt {
                    0 => {
                        env.trace.set_gc_cause("alloc-failure");
                        self.collect_young(env);
                    }
                    1 => {
                        env.trace.set_gc_cause("heap-full");
                        self.full_collect(env);
                    }
                    _ => break,
                },
            }
        }
        panic!("OutOfMemoryError: CMS could not free enough regions");
    }

    fn name(&self) -> &'static str {
        "CMS"
    }

    fn gc_cycles(&self) -> u64 {
        self.cycles
    }
}
