//! Outside-in layer spans for the traced rep.
//!
//! Nothing here lives inside the program. The benchmark wraps the public
//! boundaries of each layer and times the calls that cross them:
//!
//! - a [`Workload`] wrapper times every `tick` (the `workloads` → `vm`
//!   boundary) and installs the other decorators from `setup`;
//! - [`CollectorApi`] (the `vm` → `heap`/`gc` boundary): `fast_alloc`
//!   (per object, sampled) and `allocate`, split into collections (calls
//!   during which `gc_cycles()` advanced) and slow allocations;
//! - [`GcHooks`] (the `gc` → `core` boundary): `on_survivor` (per object,
//!   sampled), `on_gc_end` split into safepoints and inference epochs, and
//!   `on_liveness`;
//! - [`VmProfiler`] (the `vm` → `core` boundary): `on_alloc` (per object,
//!   sampled) and `on_jit_compile`.
//!
//! Per-object boundaries count every call and time one call in
//! [`SAMPLE_EVERY`]; the estimate scales the sampled time by the exact
//! count. Coarse boundaries time every call, and collections, safepoint
//! hooks and JIT compiles are also kept as spans with a parent id (a
//! collection's parent is its tick window, an `on_gc_end`'s its
//! collection). Tick time is aggregated into one span per simulated
//! second. Spans stay in memory and are written at exit as Chrome
//! `trace_event` JSON.
//!
//! Every measured duration has the calibrated cost of an empty span
//! ([`calibrate_timer_ns`]) subtracted.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use rolp::{JvmRuntime, PackageFilters, RolpProfiler, TableBackend};
use rolp_gc::{GcCycleInfo, GcHooks, NullHooks, RegionalCollector, RegionalConfig};
use rolp_heap::{ObjectHeader, ObjectRef, RegionKind};
use rolp_vm::{
    AllocRequest, CollectorApi, JitState, MethodId, MutatorCtx, Program, ProgramBuilder, ThreadId,
    VmEnv, VmProfiler,
};
use rolp_workloads::Workload;

/// One call in this many is timed at a per-object boundary.
pub const SAMPLE_EVERY: u64 = 64;

/// Measures the cost of an empty `Instant` span (start + stop), in
/// nanoseconds: the median of several batches, so one preempted batch
/// cannot skew it.
pub fn calibrate_timer_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_batch: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                let t = Instant::now();
                std::hint::black_box(t.elapsed());
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    per_batch.sort_by(f64::total_cmp);
    per_batch[per_batch.len() / 2]
}

/// An exactly counted boundary of which one call in [`SAMPLE_EVERY`] is
/// timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Summed duration of the timed calls.
    pub timed_ns: f64,
}

impl Sampled {
    /// Counts a call; true when this one is to be timed.
    fn count(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(SAMPLE_EVERY)
    }

    fn record(&mut self, ns: f64) {
        self.timed += 1;
        self.timed_ns += ns;
    }

    /// Estimated total time of all calls: the mean timed duration scaled
    /// by the exact call count.
    pub fn estimate_s(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns / self.timed as f64 * self.calls as f64 / 1e9
        }
    }
}

/// A boundary of which every call is timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Calls made.
    pub calls: u64,
    /// Summed duration.
    pub ns: f64,
}

impl Timed {
    fn add(&mut self, ns: f64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Summed duration in seconds.
    pub fn s(&self) -> f64 {
        self.ns / 1e9
    }
}

/// Host time per boundary, accumulated over the traced rep's run (setup
/// excluded).
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Run length: first tick to the end of the run.
    pub run_s: f64,
    /// `Workload::tick`.
    pub tick: Timed,
    /// `CollectorApi::fast_alloc`.
    pub fast_alloc: Sampled,
    /// `fast_alloc` calls that returned an object.
    pub fast_alloc_hits: u64,
    /// `CollectorApi::allocate` calls that did not collect.
    pub alloc_slow: Timed,
    /// `CollectorApi::allocate` calls that collected.
    pub collect: Timed,
    /// Hook time nested inside slow allocations, in ns.
    pub alloc_slow_nested_ns: f64,
    /// Hook time nested inside collections, in ns.
    pub collect_nested_ns: f64,
    /// GC cycles completed during the run.
    pub cycles: u64,
    /// `VmProfiler::on_alloc`.
    pub on_alloc: Sampled,
    /// `VmProfiler::on_jit_compile`.
    pub jit: Timed,
    /// `GcHooks::on_survivor`.
    pub survivor: Sampled,
    /// `GcHooks::on_gc_end` calls without an inference epoch, plus
    /// `GcHooks::on_liveness`.
    pub safepoint: Timed,
    /// `GcHooks::on_gc_end` calls during which an inference epoch ran.
    pub epoch: Timed,
    /// Bytes copied, summed from the `GcCycleInfo` of each `on_gc_end`.
    pub bytes_copied: u64,
    /// Survivors, summed from the `GcCycleInfo` of each `on_gc_end`.
    pub survivors: u64,
}

/// One recorded span; times are nanoseconds since the tracer's creation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name.
    pub name: &'static str,
    /// Span id (unique within a tracer, from 1).
    pub id: u64,
    /// Id of the enclosing span (0 = none).
    pub parent: u64,
    /// Start.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Window {
    id: u64,
    second: u64,
    start_ns: u64,
    end_ns: u64,
}

const RUN_SPAN: u64 = 1;

/// Span recorder shared by the decorators of one traced rep. All of them
/// run on the thread that drives the runtime.
pub struct Tracer {
    epoch: Instant,
    timer_ns: f64,
    live: Cell<bool>,
    run_start_ns: Cell<u64>,
    parent: Cell<u64>,
    next_id: Cell<u64>,
    window: Cell<Option<Window>>,
    /// Hook time recorded so far, in ns (estimates for sampled calls):
    /// read around `allocate` to find the part nested in it.
    hook_ns: Cell<f64>,
    times: RefCell<LayerTimes>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A tracer that subtracts `timer_ns` from every measured span.
    pub fn new(timer_ns: f64) -> Rc<Tracer> {
        Rc::new(Tracer {
            epoch: Instant::now(),
            timer_ns,
            live: Cell::new(false),
            run_start_ns: Cell::new(0),
            parent: Cell::new(0),
            next_id: Cell::new(RUN_SPAN + 1),
            window: Cell::new(None),
            hook_ns: Cell::new(0.0),
            times: RefCell::new(LayerTimes::default()),
            spans: RefCell::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ns_since(&self, start: Instant) -> f64 {
        (start.elapsed().as_nanos() as f64 - self.timer_ns).max(0.0)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts recording: called once setup is done.
    pub fn start_run(&self) {
        self.run_start_ns.set(self.now_ns());
        self.live.set(true);
    }

    /// Stops recording and closes the last tick window and the run span.
    pub fn finish_run(&self) {
        if !self.live.replace(false) {
            return;
        }
        self.close_window();
        let start = self.run_start_ns.get();
        let dur = self.now_ns() - start;
        self.times.borrow_mut().run_s = dur as f64 / 1e9;
        self.push_span("run", RUN_SPAN, 0, start, dur);
    }

    /// The accumulated per-boundary times.
    pub fn times(&self) -> LayerTimes {
        self.times.borrow().clone()
    }

    /// The recorded spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    fn push_span(&self, name: &'static str, id: u64, parent: u64, start_ns: u64, dur_ns: u64) {
        self.spans.borrow_mut().push(Span { name, id, parent, start_ns, dur_ns });
    }

    /// Opens a child of the current span; returns `(id, previous parent)`.
    fn enter(&self) -> (u64, u64) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        (id, self.parent.replace(id))
    }

    fn close_window(&self) {
        if let Some(w) = self.window.take() {
            self.push_span("tick_window", w.id, RUN_SPAN, w.start_ns, w.end_ns - w.start_ns);
        }
    }

    /// Opens (or continues) the window of simulated second `second` and
    /// returns the tick's start.
    fn begin_tick(&self, second: u64) -> Instant {
        let w = match self.window.get() {
            Some(w) if w.second == second => w,
            _ => {
                self.close_window();
                let (id, _) = self.enter();
                let now = self.now_ns();
                let w = Window { id, second, start_ns: now, end_ns: now };
                self.window.set(Some(w));
                w
            }
        };
        self.parent.set(w.id);
        Instant::now()
    }

    fn end_tick(&self, start: Instant) {
        let ns = self.ns_since(start);
        if let Some(mut w) = self.window.get() {
            w.end_ns = self.now_ns();
            self.window.set(Some(w));
        }
        self.times.borrow_mut().tick.add(ns);
    }

    fn add_hook_ns(&self, ns: f64) {
        self.hook_ns.set(self.hook_ns.get() + ns);
    }
}

/// The `Workload` wrapper of the traced rep: times every tick and, when
/// `install` is set, installs the layer decorators at the start of setup
/// (before the workload allocates anything).
pub(crate) struct TracedWorkload {
    inner: Box<dyn Workload>,
    tracer: Rc<Tracer>,
    install: bool,
}

impl TracedWorkload {
    /// Wraps `inner`.
    pub(crate) fn new(inner: Box<dyn Workload>, tracer: Rc<Tracer>, install: bool) -> Self {
        TracedWorkload { inner, tracer, install }
    }
}

impl Workload for TracedWorkload {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn profiling_filters(&self) -> PackageFilters {
        self.inner.profiling_filters()
    }

    fn annotation_count(&self) -> usize {
        self.inner.annotation_count()
    }

    fn declare_program(&mut self, b: &mut ProgramBuilder) {
        self.inner.declare_program(b)
    }

    fn build_program(&mut self) -> Program {
        self.inner.build_program()
    }

    fn setup(&mut self, rt: &mut JvmRuntime) {
        if self.install {
            install_decorators(rt, &self.tracer);
        }
        self.inner.setup(rt)
    }

    fn tick(&mut self, ctx: &mut MutatorCtx<'_>) -> u64 {
        if !self.tracer.live.get() {
            return self.inner.tick(ctx);
        }
        let start = self.tracer.begin_tick(ctx.env().clock.now().as_nanos() / 1_000_000_000);
        let done = self.inner.tick(ctx);
        self.tracer.end_tick(start);
        done
    }

    fn set_annotations(&mut self, on: bool) {
        self.inner.set_annotations(on)
    }
}

/// Wraps the runtime's collector, GC hooks and profiler in timing
/// decorators. The regional collector is rebuilt around the timing hooks
/// with the default `RegionalConfig` every benchmark runtime uses, so the
/// decorated runtime must behave exactly like the undecorated one; the
/// fingerprint check of every traced rep enforces that.
///
/// # Panics
///
/// Panics for collectors other than G1 and ROLP, which no workload uses.
fn install_decorators(rt: &mut JvmRuntime, tracer: &Rc<Tracer>) {
    let (pretenuring, name) = match rt.kind() {
        rolp::CollectorKind::RolpNg2c => (true, "ROLP"),
        rolp::CollectorKind::G1 => (false, "G1"),
        other => panic!("no decorators for {}", other.label()),
    };
    let inner: Rc<RefCell<dyn GcHooks>> = match &rt.profiler {
        Some(p) => p.clone(),
        None => Rc::new(RefCell::new(NullHooks)),
    };
    let hooks = Rc::new(RefCell::new(TimedHooks {
        inner,
        profiler: rt.profiler.clone(),
        tracer: tracer.clone(),
    }));
    let mut regional = RegionalCollector::with_config(
        RegionalConfig { pretenuring, ..Default::default() },
        hooks,
        name,
    );
    if let Some(store) = &rt.vm.env.decisions {
        regional.set_decision_store(store.clone());
    }
    rt.vm.collector =
        Box::new(TimedCollector { inner: Box::new(regional), tracer: tracer.clone() });
    let profiler = rt.vm.profiler.clone();
    rt.vm.profiler =
        Rc::new(RefCell::new(TimedProfiler { inner: profiler, tracer: tracer.clone() }));
}

struct TimedCollector {
    inner: Box<dyn CollectorApi>,
    tracer: Rc<Tracer>,
}

impl CollectorApi for TimedCollector {
    fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef {
        let tr = &self.tracer;
        if !tr.live.get() {
            return self.inner.allocate(env, req);
        }
        let cycles = self.inner.gc_cycles();
        let hooks_before = tr.hook_ns.get();
        let (id, parent) = tr.enter();
        let start = Instant::now();
        let obj = self.inner.allocate(env, req);
        let ns = tr.ns_since(start);
        tr.parent.set(parent);
        let nested = tr.hook_ns.get() - hooks_before;
        let advanced = self.inner.gc_cycles() - cycles;
        let mut t = tr.times.borrow_mut();
        if advanced > 0 {
            t.collect.add(ns);
            t.collect_nested_ns += nested;
            t.cycles += advanced;
            drop(t);
            tr.push_span("collect", id, parent, tr.offset_ns(start), ns as u64);
        } else {
            t.alloc_slow.add(ns);
            t.alloc_slow_nested_ns += nested;
        }
        obj
    }

    fn fast_alloc(
        &mut self,
        env: &mut VmEnv,
        req: &AllocRequest,
        thread: u32,
    ) -> Option<ObjectRef> {
        let tr = &self.tracer;
        if !tr.live.get() {
            return self.inner.fast_alloc(env, req, thread);
        }
        let timed = tr.times.borrow_mut().fast_alloc.count();
        let start = timed.then(Instant::now);
        let obj = self.inner.fast_alloc(env, req, thread);
        let ns = start.map(|s| tr.ns_since(s));
        let mut t = tr.times.borrow_mut();
        if let Some(ns) = ns {
            t.fast_alloc.record(ns);
        }
        t.fast_alloc_hits += obj.is_some() as u64;
        obj
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gc_cycles(&self) -> u64 {
        self.inner.gc_cycles()
    }

    fn load_barrier_ns(&self) -> u64 {
        self.inner.load_barrier_ns()
    }

    fn store_barrier_ns(&self) -> u64 {
        self.inner.store_barrier_ns()
    }

    fn work_tax_permille(&self) -> u64 {
        self.inner.work_tax_permille()
    }
}

struct TimedHooks {
    inner: Rc<RefCell<dyn GcHooks>>,
    /// The concrete profiler, to tell inference epochs from plain
    /// safepoints (`None` under G1).
    profiler: Option<Rc<RefCell<RolpProfiler<TableBackend>>>>,
    tracer: Rc<Tracer>,
}

impl TimedHooks {
    fn inferences(&self) -> u64 {
        self.profiler.as_ref().map_or(0, |p| p.borrow().inferences())
    }
}

impl GcHooks for TimedHooks {
    fn advise(&self, context: u32) -> Option<u8> {
        self.inner.borrow().advise(context)
    }

    fn survivor_tracking_enabled(&self) -> bool {
        self.inner.borrow().survivor_tracking_enabled()
    }

    fn on_survivor(&mut self, header: ObjectHeader, from: RegionKind, worker: u32) {
        let tr = &self.tracer;
        if !tr.live.get() || !tr.times.borrow_mut().survivor.count() {
            return self.inner.borrow_mut().on_survivor(header, from, worker);
        }
        let start = Instant::now();
        self.inner.borrow_mut().on_survivor(header, from, worker);
        let ns = tr.ns_since(start);
        tr.times.borrow_mut().survivor.record(ns);
        tr.add_hook_ns(ns * SAMPLE_EVERY as f64);
    }

    fn on_gc_end(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        let tr = &self.tracer;
        if !tr.live.get() {
            return self.inner.borrow_mut().on_gc_end(env, info);
        }
        let epochs = self.inferences();
        let (id, parent) = tr.enter();
        let start = Instant::now();
        self.inner.borrow_mut().on_gc_end(env, info);
        let ns = tr.ns_since(start);
        tr.parent.set(parent);
        tr.add_hook_ns(ns);
        let epoch = self.inferences() > epochs;
        {
            let mut t = tr.times.borrow_mut();
            if epoch {
                t.epoch.add(ns);
            } else {
                t.safepoint.add(ns);
            }
            t.bytes_copied += info.bytes_copied;
            t.survivors += info.survivors;
        }
        let name = if epoch { "on_gc_end.epoch" } else { "on_gc_end.safepoint" };
        tr.push_span(name, id, parent, tr.offset_ns(start), ns as u64);
    }

    fn on_liveness(&mut self, context_live: &HashMap<u32, u64>) {
        let tr = &self.tracer;
        if !tr.live.get() {
            return self.inner.borrow_mut().on_liveness(context_live);
        }
        let start = Instant::now();
        self.inner.borrow_mut().on_liveness(context_live);
        let ns = tr.ns_since(start);
        tr.add_hook_ns(ns);
        tr.times.borrow_mut().safepoint.add(ns);
    }
}

struct TimedProfiler {
    inner: Rc<RefCell<dyn VmProfiler>>,
    tracer: Rc<Tracer>,
}

impl VmProfiler for TimedProfiler {
    fn on_jit_compile(&mut self, program: &Program, jit: &mut JitState, method: MethodId) {
        let tr = &self.tracer;
        if !tr.live.get() {
            return self.inner.borrow_mut().on_jit_compile(program, jit, method);
        }
        let (id, parent) = tr.enter();
        let start = Instant::now();
        self.inner.borrow_mut().on_jit_compile(program, jit, method);
        let ns = tr.ns_since(start);
        tr.parent.set(parent);
        tr.times.borrow_mut().jit.add(ns);
        tr.push_span("on_jit_compile", id, parent, tr.offset_ns(start), ns as u64);
    }

    fn on_alloc(&mut self, site_profile_id: u16, tss: u16, thread: ThreadId) -> u32 {
        let tr = &self.tracer;
        if !tr.live.get() || !tr.times.borrow_mut().on_alloc.count() {
            return self.inner.borrow_mut().on_alloc(site_profile_id, tss, thread);
        }
        let start = Instant::now();
        let context = self.inner.borrow_mut().on_alloc(site_profile_id, tss, thread);
        let ns = tr.ns_since(start);
        tr.times.borrow_mut().on_alloc.record(ns);
        context
    }

    fn exception_hook_installed(&self) -> bool {
        self.inner.borrow().exception_hook_installed()
    }

    fn on_unprofiled_alloc(&mut self) {
        self.inner.borrow_mut().on_unprofiled_alloc()
    }
}

/// Renders spans as Chrome `trace_event` JSON, one process per traced
/// workload (`(workload name, spans)` pairs).
pub fn chrome_trace(traces: &[(&str, Vec<Span>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, (workload, spans)) in traces.iter().enumerate() {
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{workload}\"}}}}"
        )];
        events.extend(spans.iter().map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent
            )
        }));
        for e in events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&e);
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_64_sample_scales_to_the_synthetic_total() {
        // Synthetic durations drawn from a fixed pattern with a long tail;
        // the scaled sample must land within 5% of the exact total.
        let mut s = Sampled::default();
        let mut total = 0.0;
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = 20.0 + (x % 100) as f64 + if x.is_multiple_of(97) { 2_000.0 } else { 0.0 };
            total += ns;
            if s.count() {
                s.record(ns);
            }
        }
        assert_eq!(s.calls, 200_000);
        assert_eq!(s.timed, 200_000 / SAMPLE_EVERY);
        let rel = (s.estimate_s() * 1e9 - total).abs() / total;
        assert!(rel < 0.05, "scaled estimate off by {rel}");
    }

    #[test]
    fn timer_calibration_is_positive_and_small() {
        let ns = calibrate_timer_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "empty span costs {ns} ns");
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let spans = vec![Span { name: "run", id: 1, parent: 0, start_ns: 0, dur_ns: 1_500 }];
        let json = chrome_trace(&[("w", spans)]);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.contains("\"dur\":1.500"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
