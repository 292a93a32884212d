//! The fully concurrent collector (ZGC/C4-class).
//!
//! All collection work — marking and relocation — runs alongside the
//! mutator: the simulated copying cost is charged to *mutator* time, and
//! the application only stops for short handshakes. In exchange, every
//! reference load and field store pays a barrier tax, and the heap needs
//! relocation headroom, so both throughput and memory are worse than G1's
//! (exactly the trade the paper describes in §2.2 and measures in §8.5 —
//! which is why Fig. 8 omits ZGC pauses: they never exceed 10 ms).

use std::cell::RefCell;
use std::rc::Rc;

use rolp_heap::{AllocFailure, ObjectRef, RegionId, RegionKind, SpaceKind, TlabAlloc};
use rolp_vm::{AllocRequest, CollectorApi, VmEnv};

use crate::evac::{charge_refill, evacuate_concurrent};
use crate::mark::mark_liveness;
use crate::observer::GcHooks;

/// Tunables of the concurrent collector.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Heap occupancy (fraction of regions) that starts a cycle. Low, to
    /// leave relocation headroom.
    pub trigger_occupancy: f64,
    /// A region is relocated if its live fraction is at most this.
    pub relocate_live_threshold: f64,
    /// Regions kept free as relocation reserve.
    pub reserve_regions: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            trigger_occupancy: 0.50,
            relocate_live_threshold: 0.80,
            reserve_regions: 6,
        }
    }
}

/// Per-collector statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcurrentStats {
    /// Completed concurrent cycles.
    pub cycles_run: u64,
    /// Regions relocated.
    pub regions_relocated: u64,
    /// Bytes copied concurrently.
    pub bytes_relocated: u64,
}

/// The ZGC/C4-like collector.
pub struct ConcurrentCollector {
    config: ConcurrentConfig,
    hooks: Rc<RefCell<dyn GcHooks>>,
    cycles: u64,
    stats: ConcurrentStats,
    /// (bytes allocated, busy ns) at the previous cycle, for the
    /// allocation-rate estimate behind the headroom model.
    last_sample: (u64, u64),
    load_barrier_ns: u64,
    store_barrier_ns: u64,
    work_tax_permille: u64,
}

impl ConcurrentCollector {
    /// Creates a concurrent collector with default tunables; barrier costs
    /// are taken from `cost`.
    pub fn new(hooks: Rc<RefCell<dyn GcHooks>>, cost: &rolp_vm::CostModel) -> Self {
        ConcurrentCollector {
            config: ConcurrentConfig::default(),
            hooks,
            cycles: 0,
            stats: ConcurrentStats::default(),
            last_sample: (0, 0),
            load_barrier_ns: cost.concurrent_load_barrier_ns,
            store_barrier_ns: cost.concurrent_store_barrier_ns,
            work_tax_permille: cost.concurrent_work_tax_permille,
        }
    }

    /// Collector statistics.
    pub fn stats(&self) -> ConcurrentStats {
        self.stats
    }

    fn occupancy(&self, env: &VmEnv) -> f64 {
        let total = env.heap.num_regions();
        (total - env.heap.free_regions()) as f64 / total as f64
    }

    fn cycle(&mut self, env: &mut VmEnv) {
        env.heap.retire_all_tlabs();
        let mark = mark_liveness(&mut env.heap);
        // Concurrent marking steals mutator cycles.
        let mark_ns = env.cost.copy_ns(mark.live_bytes) / 2;
        env.clock.advance(mark_ns);
        env.telemetry.add(rolp_telemetry::Bucket::GcMark, mark_ns);

        // Reclaim wholly dead regions outright, then relocate sparse ones.
        for id in env
            .heap
            .regions()
            .filter(|(_, r)| {
                !matches!(r.kind, RegionKind::Free)
                    && r.live_bytes == 0
                    && r.used_bytes() > 0
                    && r.liveness_valid
            })
            .map(|(id, _)| id)
            .collect::<Vec<_>>()
        {
            env.heap.release_region(id);
        }
        env.heap.purge_remsets();

        let cset: Vec<RegionId> = env
            .heap
            .regions()
            .filter(|(_, r)| {
                matches!(r.kind, RegionKind::Eden) && r.used_bytes() > 0 && r.liveness_valid && {
                    let live = r.live_bytes as f64 / r.used_bytes() as f64;
                    live <= self.config.relocate_live_threshold
                }
            })
            .map(|(id, _)| id)
            .collect();

        let mut dest = |_from: RegionKind, _age: u8, _size: u32, _ctx: Option<u32>| SpaceKind::Eden;
        env.trace.set_gc_cause("relocate");
        let hooks = Rc::clone(&self.hooks);
        let mut hooks_ref = hooks.borrow_mut();
        let outcome = evacuate_concurrent(env, &cset, &mut dest, &mut *hooks_ref);
        drop(hooks_ref);

        self.cycles += 1;
        self.stats.cycles_run += 1;
        self.stats.regions_relocated += outcome.stats.regions_released;
        self.stats.bytes_relocated += outcome.stats.bytes_copied;

        if outcome.failed {
            // Even the concurrent collector must fall back when headroom
            // runs out mid-relocation.
            env.trace.set_gc_cause("evac-failure");
            let hooks = Rc::clone(&self.hooks);
            let mut hooks_ref = hooks.borrow_mut();
            crate::evac::full_compact(env, &mut *hooks_ref);
        }

        // Allocation proceeds *during* a real concurrent cycle; the heap
        // must hold that headroom committed. Estimate the rate from the
        // last inter-cycle window and pre-commit cycle-duration's worth.
        let now_busy = env.clock.busy_time().as_nanos();
        let now_alloc = env.heap.stats().bytes_allocated;
        let (prev_alloc, prev_busy) = self.last_sample;
        if now_busy > prev_busy && now_alloc > prev_alloc {
            let rate = (now_alloc - prev_alloc) as f64 / (now_busy - prev_busy) as f64;
            let cycle_ns = env.cost.copy_ns(mark.live_bytes) / 2
                + env.cost.copy_ns(outcome.stats.bytes_copied);
            let headroom_bytes = (rate * cycle_ns as f64) as usize;
            let regions = headroom_bytes.div_ceil(env.heap.region_bytes().max(1));
            env.heap.commit_headroom(regions);
            env.sample_memory();
        }
        self.last_sample = (now_alloc, now_busy);
    }
}

impl CollectorApi for ConcurrentCollector {
    fn fast_alloc(
        &mut self,
        env: &mut VmEnv,
        req: &AllocRequest,
        thread: u32,
    ) -> Option<ObjectRef> {
        // Decline when the occupancy trigger would fire so the slow path
        // runs the cycle at the identical allocation index.
        if self.occupancy(env) > self.config.trigger_occupancy
            || env.heap.free_regions() <= self.config.reserve_regions
        {
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
        if self.occupancy(env) > self.config.trigger_occupancy
            || env.heap.free_regions() <= self.config.reserve_regions
        {
            env.trace.set_gc_cause("occupancy");
            self.cycle(env);
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
                        self.cycle(env);
                    }
                    1 => {
                        env.trace.set_gc_cause("heap-full");
                        env.heap.retire_all_tlabs();
                        let hooks = Rc::clone(&self.hooks);
                        let mut hooks_ref = hooks.borrow_mut();
                        crate::evac::full_compact(env, &mut *hooks_ref);
                    }
                    _ => break,
                },
            }
        }
        panic!("OutOfMemoryError: concurrent collector could not free enough regions");
    }

    fn name(&self) -> &'static str {
        "ZGC"
    }

    fn gc_cycles(&self) -> u64 {
        self.cycles
    }

    fn load_barrier_ns(&self) -> u64 {
        self.load_barrier_ns
    }

    fn store_barrier_ns(&self) -> u64 {
        self.store_barrier_ns
    }

    fn work_tax_permille(&self) -> u64 {
        self.work_tax_permille
    }
}
