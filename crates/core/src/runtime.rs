//! The assembled managed runtime.
//!
//! [`JvmRuntime`] wires heap + VM + collector + profiler into the five
//! configurations the paper evaluates (§8): CMS, G1, ZGC, NG2C (hand
//! annotations), and ROLP (NG2C driven by the runtime profiler). This is
//! the facade workloads, examples, and bench harnesses run against.

use std::cell::RefCell;
use std::rc::Rc;

use rolp_gc::{CmsCollector, ConcurrentCollector, NullHooks, RegionalCollector};
use rolp_heap::{Heap, HeapConfig};
use rolp_metrics::SimTime;
use rolp_vm::{
    CollectorApi, CostModel, JitConfig, MutatorCtx, NullProfiler, Program, ThreadId, Vm, VmEnv,
};

use crate::profiler::{ProfilingLevel, RolpConfig, RolpProfiler, RolpStats};

/// The five evaluated runtime configurations (paper §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// Concurrent mark-sweep baseline.
    Cms,
    /// The default collector baseline.
    G1,
    /// The fully concurrent collector (tiny pauses, throughput/memory
    /// tax).
    Zgc,
    /// Pretenuring collector with hand-placed annotations (the programmer-
    /// knowledge baseline).
    Ng2c,
    /// NG2C driven by ROLP — the paper's contribution.
    RolpNg2c,
}

impl CollectorKind {
    /// Display name matching the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            CollectorKind::Cms => "CMS",
            CollectorKind::G1 => "G1",
            CollectorKind::Zgc => "ZGC",
            CollectorKind::Ng2c => "NG2C",
            CollectorKind::RolpNg2c => "ROLP",
        }
    }

    /// All five, in the paper's presentation order.
    pub fn all() -> [CollectorKind; 5] {
        [
            CollectorKind::Cms,
            CollectorKind::G1,
            CollectorKind::Zgc,
            CollectorKind::Ng2c,
            CollectorKind::RolpNg2c,
        ]
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Which collector/profiler stack to assemble.
    pub collector: CollectorKind,
    /// Heap sizing.
    pub heap: HeapConfig,
    /// Cost model.
    pub cost: CostModel,
    /// JIT tunables (the call-profiling-install flag is overridden per
    /// collector/level).
    pub jit: JitConfig,
    /// ROLP tunables (used only by [`CollectorKind::RolpNg2c`]).
    pub rolp: RolpConfig,
    /// Regional-collector tunables (G1 / NG2C / ROLP configurations). The
    /// `pretenuring` flag is overridden per collector kind.
    pub regional: rolp_gc::RegionalConfig,
    /// Guest threads.
    pub threads: u32,
    /// Modeled GC workers: `Some(n)` overrides the cost model's worker
    /// count, which divides the parallelizable pause work; `None` keeps
    /// its default. The collector itself runs on the runtime's thread.
    pub gc_workers: Option<usize>,
    /// Seed for JIT identifier randomness.
    pub seed: u64,
    /// Divisor applied to side-table (OLD table) memory accounting. The
    /// table's 4 MB-per-block size is fixed by the 16-bit site-id space,
    /// so in scaled-down experiments it must be scaled too or it dwarfs
    /// the scaled heap (at full scale it is 0.07-0.26% of a 6 GB heap).
    pub side_table_scale: u64,
    /// Flight recorder: when set, every layer emits structured events
    /// into the [`rolp_trace::TraceRecorder`] (default off — the disabled
    /// recorder costs one branch per emit site and never allocates).
    pub trace_enabled: bool,
    /// Per-thread allocation-buffer (TLAB) size in bytes; `0` disables
    /// the bump-pointer fast path entirely (every allocation takes the
    /// collector slow path — the differential suite's reference arm).
    pub tlab_bytes: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            collector: CollectorKind::G1,
            heap: HeapConfig::default(),
            cost: CostModel::default(),
            jit: JitConfig::default(),
            rolp: RolpConfig::default(),
            regional: rolp_gc::RegionalConfig::default(),
            threads: 1,
            gc_workers: None,
            seed: 42,
            side_table_scale: 1,
            trace_enabled: false,
            tlab_bytes: rolp_heap::DEFAULT_TLAB_BYTES,
        }
    }
}

/// End-of-run summary.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Collector label.
    pub collector: &'static str,
    /// Total simulated run time.
    pub elapsed: SimTime,
    /// Total time stopped in GC pauses.
    pub total_paused: SimTime,
    /// Completed application operations.
    pub ops: u64,
    /// Operations per simulated second.
    pub ops_per_sec: f64,
    /// Operations per *busy* simulated second (idle/pacing time excluded):
    /// the machine's saturated capacity, where GC pauses, concurrent GC
    /// work, and barrier taxes all show up.
    pub ops_per_busy_sec: f64,
    /// Max used bytes (incl. side tables).
    pub max_used_bytes: u64,
    /// Max committed bytes (incl. side tables).
    pub max_committed_bytes: u64,
    /// GC cycles run.
    pub gc_cycles: u64,
    /// Number of recorded pauses.
    pub pauses: usize,
    /// ROLP statistics, when the profiler was active.
    pub rolp: Option<RolpStats>,
    /// Final published metrics snapshot: cumulative per-bucket time
    /// decomposition, event counters, and live histograms.
    pub telemetry: std::rc::Rc<rolp_telemetry::MetricsSnapshot>,
    /// Self-measured profiling overhead: mutator-attributed profiling
    /// time over busy mutator time (idle excluded). The paper's §8.2
    /// throughput claim holds when this stays in the low percent range.
    pub profiling_overhead: f64,
}

/// The assembled runtime.
pub struct JvmRuntime {
    /// The underlying VM (exposed for tests and advanced drivers).
    pub vm: Vm,
    /// The ROLP profiler instance, when the configuration uses one. It
    /// profiles into the exact [`crate::OldTable`] at every guest thread
    /// count: guest mutators share one OS thread, so nothing races the
    /// table.
    pub profiler: Option<Rc<RefCell<RolpProfiler>>>,
    kind: CollectorKind,
    side_table_scale: u64,
}

impl JvmRuntime {
    /// Assembles a runtime for `program`.
    pub fn new(mut config: RuntimeConfig, program: Program) -> Self {
        let heap = Heap::new(config.heap.clone());

        if let Some(workers) = config.gc_workers {
            config.cost.gc_workers = workers.max(1) as u64;
        }

        // Call-profiling code exists only under ROLP (and not at its
        // no-call level).
        config.jit.install_call_profiling = config.collector == CollectorKind::RolpNg2c
            && config.rolp.level != ProfilingLevel::NoCallProfiling;

        let mut env =
            VmEnv::new(heap, config.cost.clone(), program, config.jit.clone(), config.threads);
        env.heap.set_tlab_bytes(config.tlab_bytes);
        if config.trace_enabled {
            env.trace = rolp_trace::TraceRecorder::enabled(config.threads);
            env.jit.set_toggle_logging(true);
        }

        let (profiler_rc, vm) = match config.collector {
            CollectorKind::RolpNg2c => {
                let mut prof = RolpProfiler::new(config.rolp.clone());
                prof.set_trace_logging(config.trace_enabled);
                // One decision plane: the same snapshot store feeds the
                // mutator allocation fast path (via `env`) and the GC's
                // promotion placement (via the collector).
                let store = prof.decision_store();
                env.decisions = Some(store.clone());
                let rolp = Rc::new(RefCell::new(prof));
                let hooks: Rc<RefCell<dyn rolp_gc::GcHooks>> = rolp.clone();
                let mut regional = RegionalCollector::with_config(
                    rolp_gc::RegionalConfig { pretenuring: true, ..config.regional.clone() },
                    hooks,
                    "ROLP",
                );
                regional.set_decision_store(store);
                let collector: Box<dyn CollectorApi> = Box::new(regional);
                let profiler: Rc<RefCell<dyn rolp_vm::VmProfiler>> = rolp.clone();
                (Some(rolp), Vm::new(env, profiler, collector, config.seed))
            }
            CollectorKind::Ng2c => {
                let hooks: Rc<RefCell<dyn rolp_gc::GcHooks>> = Rc::new(RefCell::new(NullHooks));
                let collector: Box<dyn CollectorApi> = Box::new(RegionalCollector::with_config(
                    rolp_gc::RegionalConfig { pretenuring: true, ..config.regional.clone() },
                    hooks,
                    "NG2C",
                ));
                (None, Vm::new(env, null_profiler(), collector, config.seed))
            }
            CollectorKind::G1 => {
                let hooks: Rc<RefCell<dyn rolp_gc::GcHooks>> = Rc::new(RefCell::new(NullHooks));
                let collector: Box<dyn CollectorApi> = Box::new(RegionalCollector::with_config(
                    rolp_gc::RegionalConfig { pretenuring: false, ..config.regional.clone() },
                    hooks,
                    "G1",
                ));
                (None, Vm::new(env, null_profiler(), collector, config.seed))
            }
            CollectorKind::Cms => {
                let hooks: Rc<RefCell<dyn rolp_gc::GcHooks>> = Rc::new(RefCell::new(NullHooks));
                let collector: Box<dyn CollectorApi> = Box::new(CmsCollector::new(hooks));
                (None, Vm::new(env, null_profiler(), collector, config.seed))
            }
            CollectorKind::Zgc => {
                let hooks: Rc<RefCell<dyn rolp_gc::GcHooks>> = Rc::new(RefCell::new(NullHooks));
                let collector: Box<dyn CollectorApi> =
                    Box::new(ConcurrentCollector::new(hooks, &config.cost));
                (None, Vm::new(env, null_profiler(), collector, config.seed))
            }
        };

        JvmRuntime {
            vm,
            profiler: profiler_rc,
            kind: config.collector,
            side_table_scale: config.side_table_scale.max(1),
        }
    }

    /// The configured collector kind.
    pub fn kind(&self) -> CollectorKind {
        self.kind
    }

    /// A mutator context bound to `thread`.
    pub fn ctx(&mut self, thread: ThreadId) -> MutatorCtx<'_> {
        self.vm.ctx(thread)
    }

    /// Takes the flight-recorder event stream (merging any events still
    /// sitting in per-thread rings). Empty when tracing was off.
    pub fn take_trace(&mut self) -> Vec<rolp_trace::TraceEvent> {
        std::mem::take(&mut self.vm.env.trace).finish()
    }

    /// Keeps the OLD table's memory accounted in the memory watermarks.
    pub fn sample_side_tables(&mut self) {
        if let Some(p) = &self.profiler {
            let bytes = p.borrow().old.memory_bytes() / self.side_table_scale;
            self.vm.env.memory.set_side_tables(bytes);
        }
    }

    /// Copies the telemetry cells at the current simulated time into the
    /// next immutable [`rolp_telemetry::MetricsSnapshot`] and returns it.
    /// Drivers call this at their reporting cadence;
    /// [`JvmRuntime::report`] publishes a final one.
    pub fn publish_metrics(&mut self) -> std::rc::Rc<rolp_telemetry::MetricsSnapshot> {
        let env = &self.vm.env;
        env.telemetry.publish(env.clock.now().as_nanos())
    }

    /// Builds the end-of-run report (publishes a final metrics
    /// snapshot).
    pub fn report(&mut self) -> RunReport {
        // End-of-run safepoint for the allocation fast path: retire every
        // TLAB so frontiers are exact before the final memory sample.
        self.vm.env.heap.retire_all_tlabs();
        self.sample_side_tables();
        self.vm.env.sample_memory();
        let telemetry = self.publish_metrics();
        let env = &self.vm.env;
        let elapsed = env.clock.now();
        let rolp = self.profiler.as_ref().map(|p| p.borrow().stats(&env.program, &env.jit));
        let busy = env.clock.busy_time();
        RunReport {
            collector: self.vm.collector.name(),
            elapsed,
            total_paused: env.clock.total_paused(),
            ops: env.throughput.total_ops(),
            ops_per_sec: env.throughput.ops_per_sec(elapsed),
            ops_per_busy_sec: env.throughput.ops_per_sec(busy),
            max_used_bytes: env.memory.max_used(),
            max_committed_bytes: env.memory.max_committed(),
            gc_cycles: self.vm.collector.gc_cycles(),
            pauses: env.pauses.count(),
            rolp,
            profiling_overhead: telemetry.profiling_overhead(),
            telemetry,
        }
    }
}

fn null_profiler() -> Rc<RefCell<dyn rolp_vm::VmProfiler>> {
    Rc::new(RefCell::new(NullProfiler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_vm::ProgramBuilder;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.method("t.Main::run", 100, false);
        let _ = b.alloc_site(main, 0);
        b.build()
    }

    #[test]
    fn all_five_configurations_assemble() {
        for kind in CollectorKind::all() {
            let cfg = RuntimeConfig {
                collector: kind,
                heap: HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
                ..Default::default()
            };
            let mut rt = JvmRuntime::new(cfg, tiny_program());
            assert_eq!(rt.kind(), kind);
            let report = rt.report();
            assert_eq!(report.collector, kind.label());
            assert_eq!(report.rolp.is_some(), kind == CollectorKind::RolpNg2c);
        }
    }

    #[test]
    fn call_profiling_install_follows_collector_kind() {
        let cfg = |kind| RuntimeConfig {
            collector: kind,
            heap: HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
            ..Default::default()
        };
        let rt = JvmRuntime::new(cfg(CollectorKind::G1), tiny_program());
        assert!(!rt.vm.env.jit.config().install_call_profiling);
        let rt = JvmRuntime::new(cfg(CollectorKind::RolpNg2c), tiny_program());
        assert!(rt.vm.env.jit.config().install_call_profiling);

        let mut c = cfg(CollectorKind::RolpNg2c);
        c.rolp.level = ProfilingLevel::NoCallProfiling;
        let rt = JvmRuntime::new(c, tiny_program());
        assert!(!rt.vm.env.jit.config().install_call_profiling);
    }

    #[test]
    fn gc_workers_knob_reaches_cost_model() {
        let cfg = RuntimeConfig {
            collector: CollectorKind::RolpNg2c,
            heap: HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
            gc_workers: Some(8),
            ..Default::default()
        };
        let rt = JvmRuntime::new(cfg, tiny_program());
        assert_eq!(rt.vm.env.cost.gc_workers, 8);

        // None keeps the individual defaults.
        let cfg = RuntimeConfig {
            heap: HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
            ..Default::default()
        };
        let rt = JvmRuntime::new(cfg, tiny_program());
        assert_eq!(rt.vm.env.cost.gc_workers, CostModel::default().gc_workers);
    }

    #[test]
    fn rolp_runtime_reports_side_table_memory() {
        let cfg = RuntimeConfig {
            collector: CollectorKind::RolpNg2c,
            heap: HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
            ..Default::default()
        };
        let mut rt = JvmRuntime::new(cfg, tiny_program());
        let report = rt.report();
        // The 4 MB base OLD table shows up in the watermark.
        assert!(report.max_committed_bytes >= 4 * 1024 * 1024);
    }
}
