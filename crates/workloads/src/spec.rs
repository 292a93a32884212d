//! The workload interface and run driver.
//!
//! A workload declares a guest program (methods, call sites, allocation
//! sites), sets up its long-lived guest data structures, and then produces
//! work in *ticks* (one request / document / graph step per tick). The
//! [`execute`] driver assembles the requested runtime configuration,
//! applies the paper's per-workload package filters (ROLP runs) or hand
//! annotations (NG2C runs), rotates guest threads, paces requests, and
//! collects the measurements every bench harness consumes.

use rolp::runtime::{CollectorKind, JvmRuntime, RunReport, RuntimeConfig};
use rolp::PackageFilters;
use rolp_metrics::{PauseRecorder, SimTime};
use rolp_vm::{MutatorCtx, Program, ProgramBuilder, ThreadId};

/// A runnable workload.
pub trait Workload {
    /// Display name (e.g. `"Cassandra WI"`).
    fn name(&self) -> String;

    /// The paper's Table 1 package filters for ROLP runs.
    fn profiling_filters(&self) -> PackageFilters {
        PackageFilters::all()
    }

    /// Number of hand-annotated code locations under NG2C (Table 1's
    /// "NG2C" column equivalent).
    fn annotation_count(&self) -> usize {
        0
    }

    /// Declares the guest program's methods, call sites and allocation
    /// sites into `b`. Called once, before [`Workload::setup`].
    ///
    /// Declaring into a caller-supplied builder (rather than returning a
    /// finished [`Program`]) lets a service harness compose several
    /// tenant workloads into one guest program: each tenant declares its
    /// own method namespace into the shared builder and the harness
    /// builds once.
    fn declare_program(&mut self, b: &mut ProgramBuilder);

    /// Declares this workload alone into a fresh builder and builds it.
    /// Single-tenant drivers ([`execute`] and friends) call this.
    fn build_program(&mut self) -> Program {
        let mut b = ProgramBuilder::new();
        self.declare_program(&mut b);
        b.build()
    }

    /// Registers guest classes and builds initial long-lived structures.
    fn setup(&mut self, rt: &mut JvmRuntime);

    /// Produces one unit of work; returns completed application
    /// operations. The driver calls `complete_ops` on the workload's
    /// behalf with the returned count.
    fn tick(&mut self, ctx: &mut MutatorCtx<'_>) -> u64;

    /// Toggles NG2C hand annotations (the driver enables them exactly for
    /// [`CollectorKind::Ng2c`] runs).
    fn set_annotations(&mut self, _on: bool) {}
}

/// How long to run.
#[derive(Debug, Clone)]
pub struct RunBudget {
    /// Stop after this much simulated time.
    pub sim_time: SimTime,
    /// Drop pauses recorded before this point (the paper discards the
    /// first five minutes of each 30-minute run).
    pub warmup_discard: SimTime,
    /// Hard cap on application operations (safety valve).
    pub max_ops: u64,
}

impl RunBudget {
    /// A budget proportional to the paper's 30-minute runs with a 5-minute
    /// discard, scaled to `secs` simulated seconds.
    pub fn scaled_run(secs: u64) -> Self {
        RunBudget {
            sim_time: SimTime::from_secs(secs),
            warmup_discard: SimTime::from_secs(secs / 6),
            max_ops: u64::MAX,
        }
    }

    /// A tiny budget for unit tests.
    pub fn smoke(max_ops: u64) -> Self {
        RunBudget { sim_time: SimTime::from_secs(3_600), warmup_discard: SimTime::ZERO, max_ops }
    }
}

/// Everything a bench harness needs from one run.
pub struct RunOutcome {
    /// End-of-run summary.
    pub report: RunReport,
    /// Pause recorder with warmup discarded (percentile/interval views).
    pub pauses: PauseRecorder,
    /// Pause recorder including warmup (Fig. 10 timeline).
    pub raw_pauses: PauseRecorder,
    /// Throughput samples `(window end, ops)` per sampling window.
    pub throughput_samples: Vec<(SimTime, u64)>,
    /// Mutator (non-pause) simulated time.
    pub mutator_time: SimTime,
    /// Flight-recorder events (empty unless `RuntimeConfig::trace_enabled`
    /// was set).
    pub trace: Vec<rolp_trace::TraceEvent>,
    /// Every telemetry snapshot published during the run (one per
    /// sampling window, plus the end-of-run snapshot), oldest first.
    pub metrics: Vec<std::rc::Rc<rolp_telemetry::MetricsSnapshot>>,
}

/// Runs `workload` under `config` until the budget is exhausted.
pub fn execute(
    workload: &mut dyn Workload,
    config: RuntimeConfig,
    budget: &RunBudget,
) -> RunOutcome {
    execute_with(workload, config, budget, |_| {})
}

/// [`execute`] with an `on_start` hook that observes the runtime after
/// setup but before the first tick — e.g. to clone the telemetry
/// handle for a crash-flush guard that must outlive the run loop.
pub fn execute_with(
    workload: &mut dyn Workload,
    config: RuntimeConfig,
    budget: &RunBudget,
    on_start: impl FnOnce(&JvmRuntime),
) -> RunOutcome {
    execute_hooked(workload, config, budget, on_start, |_| {})
}

/// [`execute_with`] plus an `on_end` hook that observes the runtime after
/// the final tick but before the report is assembled — e.g. to extract
/// the profiler's learned state for a warm-started follow-up run.
pub fn execute_hooked(
    workload: &mut dyn Workload,
    mut config: RuntimeConfig,
    budget: &RunBudget,
    on_start: impl FnOnce(&JvmRuntime),
    on_end: impl FnOnce(&mut JvmRuntime),
) -> RunOutcome {
    let program = workload.build_program();
    // Apply the workload's paper filters unless the caller configured
    // explicit filters already.
    if config.collector == CollectorKind::RolpNg2c && config.rolp.filters.is_unfiltered() {
        config.rolp.filters = workload.profiling_filters();
    }
    workload.set_annotations(config.collector == CollectorKind::Ng2c);
    let threads = config.threads.max(1);

    let mut rt = JvmRuntime::new(config, program);
    workload.setup(&mut rt);
    on_start(&rt);

    let mut ops: u64 = 0;
    let mut tick_no: u64 = 0;
    let window = SimTime::from_secs(1);
    let mut next_window = window;
    loop {
        let thread = ThreadId((tick_no % threads as u64) as u32);
        tick_no += 1;
        let mut ctx = rt.ctx(thread);
        let done = workload.tick(&mut ctx);
        ctx.complete_ops(done);
        ops += done;

        let now = rt.vm.env.clock.now();
        if now >= next_window {
            rt.vm.env.throughput.sample_window(now);
            rt.sample_side_tables();
            rt.vm.env.telemetry.publish(now.as_nanos());
            next_window = now + window;
        }
        if now >= budget.sim_time || ops >= budget.max_ops {
            break;
        }
    }

    on_end(&mut rt);

    let report = rt.report();
    let raw_pauses = rt.vm.env.pauses.clone();
    let mut pauses = raw_pauses.clone();
    pauses.discard_before(budget.warmup_discard);
    // `report()` published the end-of-run snapshot, so the history is
    // complete by the time we copy it out.
    let metrics = rt.vm.env.telemetry.history();
    RunOutcome {
        report,
        pauses,
        raw_pauses,
        throughput_samples: rt.vm.env.throughput.samples().to_vec(),
        mutator_time: rt.vm.env.clock.mutator_time(),
        trace: rt.take_trace(),
        metrics,
    }
}
