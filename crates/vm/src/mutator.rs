//! Guest execution: the mutator context and the collector interface.
//!
//! Guest programs run as Rust closures driven through [`MutatorCtx`], which
//! charges the cost model, maintains the JIT simulation (hotness counters,
//! inlining, OSR), applies the thread-stack-state profiling instructions
//! around non-inlined calls in compiled code, and routes allocations
//! through the pluggable collector.
//!
//! The rules mirror HotSpot + ROLP:
//!
//! - Profiling code exists only in *compiled* methods (§3.2).
//! - Call-site profiling executes only when the site's delta cell is
//!   nonzero (the fast `test`/`je` branch otherwise, §3.2.4).
//! - Inlined call sites carry no profiling code at all (§7.2.1).
//! - Exits re-read the *current* delta, so toggling profiling mid-call or
//!   OSR-compiling a caller corrupts the TSS until reconciliation
//!   (§7.2.3) — faithfully reproduced, not papered over.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rolp_heap::{ClassId, Handle, ObjectHeader, ObjectRef};
use rolp_telemetry::{Bucket, CounterId, HistId};

use crate::env::VmEnv;
use crate::jit::JitEvent;
use crate::profiler::VmProfiler;
use crate::program::{AllocSiteId, CallSiteId, MethodId};
use crate::thread::ThreadId;

/// An allocation request handed to the collector.
#[derive(Debug, Clone, Copy)]
pub struct AllocRequest {
    /// Guest class.
    pub class: ClassId,
    /// Number of reference fields.
    pub ref_words: u16,
    /// Number of opaque data words.
    pub data_words: u32,
    /// Pre-built header (allocation context already installed when the
    /// site is profiled).
    pub header: ObjectHeader,
    /// The profiler's allocation context, if the site was profiled
    /// (collectors pass it to the pretenuring advisor).
    pub context: Option<u32>,
    /// NG2C-style hand annotation: the target dynamic generation
    /// (`Some(0)` forces young; paper §7.1). `None` = no annotation.
    pub manual_gen: Option<u8>,
    /// ROLP's published advice for `context`, resolved by the
    /// allocation fast path from the current
    /// [`crate::DecisionTable`] snapshot. Lower priority than
    /// `manual_gen`.
    pub advised_gen: Option<u8>,
}

/// The collector interface the VM allocates through.
///
/// Implementations live in `rolp-gc`; they are free to stop the world
/// (recording pauses in `env.pauses` and advancing `env.clock`) before
/// satisfying the request.
pub trait CollectorApi {
    /// Allocates per `req`, collecting garbage first if necessary.
    ///
    /// # Panics
    ///
    /// Panics if the request cannot be satisfied even after a full
    /// collection (guest `OutOfMemoryError`).
    fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef;

    /// TLAB fast path: satisfies `req` from `thread`'s allocation buffer
    /// when possible, without collecting. `None` falls through to
    /// [`CollectorApi::allocate`] unchanged, so collectors that do not
    /// implement this (the default) behave exactly as before.
    ///
    /// Implementations must preserve the collection schedule: if the
    /// collector's GC-trigger predicate would fire for this allocation,
    /// they return `None` *without* allocating, so the trigger fires in
    /// the slow path at the identical allocation index.
    fn fast_alloc(
        &mut self,
        _env: &mut VmEnv,
        _req: &AllocRequest,
        _thread: u32,
    ) -> Option<ObjectRef> {
        None
    }

    /// Human-readable collector name (for reports).
    fn name(&self) -> &'static str;

    /// Completed GC cycles (the paper's unit of object age).
    fn gc_cycles(&self) -> u64;

    /// Per-reference-load mutator tax (concurrent collectors' read
    /// barrier).
    fn load_barrier_ns(&self) -> u64 {
        0
    }

    /// Per-field-store mutator tax beyond the standard write barrier.
    fn store_barrier_ns(&self) -> u64 {
        0
    }

    /// Per-mille slowdown applied to guest computation (`work`). Models
    /// the pervasive read/write barriers of fully concurrent collectors,
    /// which tax every compiled memory access, not only the explicit
    /// field operations the guest API exposes.
    fn work_tax_permille(&self) -> u64 {
        0
    }
}

/// A guest exception payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestException {
    /// Free-form discriminator for tests/workloads.
    pub code: u32,
}

/// The assembled virtual machine.
pub struct Vm {
    /// Shared world state.
    pub env: VmEnv,
    /// The installed profiler (ROLP or [`crate::profiler::NullProfiler`]).
    pub profiler: Rc<RefCell<dyn VmProfiler>>,
    /// The installed collector.
    pub collector: Box<dyn CollectorApi>,
    /// Deterministic randomness for JIT identifier assignment.
    pub rng: StdRng,
}

impl Vm {
    /// Assembles a VM.
    pub fn new(
        env: VmEnv,
        profiler: Rc<RefCell<dyn VmProfiler>>,
        collector: Box<dyn CollectorApi>,
        seed: u64,
    ) -> Self {
        Vm { env, profiler, collector, rng: StdRng::seed_from_u64(seed) }
    }

    /// A mutator context bound to `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not exist.
    pub fn ctx(&mut self, thread: ThreadId) -> MutatorCtx<'_> {
        assert!((thread.0 as usize) < self.env.threads.len(), "unknown thread");
        MutatorCtx { vm: self, thread }
    }

    fn handle_jit_event(&mut self, thread: ThreadId, event: JitEvent) {
        let (method, osr) = match event {
            JitEvent::Compile(m) => (m, false),
            JitEvent::OsrCompile(m) => (m, true),
        };
        // Charge the compile itself to mutator time (background compiler
        // threads steal cycles from the application on a loaded box).
        let cost = self.env.program.method(method).bytecode_size as u64
            * self.env.cost.jit_compile_per_bytecode_ns;
        {
            let _span = self.env.telemetry.span(Bucket::JitCompile);
            self.env.charge(cost);
        }
        self.env.telemetry.bump(CounterId::JitCompiles, 1);
        self.env.telemetry.record(HistId::JitCompileNs, cost);
        if self.env.trace.is_enabled() {
            self.env.trace.emit_thread(
                thread.0,
                self.env.clock.now(),
                rolp_trace::EventKind::JitCompile { method: method.0, osr },
            );
        }
        let program = Rc::clone(&self.env.program);
        self.profiler.borrow_mut().on_jit_compile(&program, &mut self.env.jit, method);
    }
}

/// Execution facade for one guest thread.
pub struct MutatorCtx<'vm> {
    vm: &'vm mut Vm,
    thread: ThreadId,
}

impl MutatorCtx<'_> {
    /// The bound thread id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// The shared environment (read-only).
    pub fn env(&self) -> &VmEnv {
        &self.vm.env
    }

    /// Completed GC cycles so far.
    pub fn gc_cycles(&self) -> u64 {
        self.vm.collector.gc_cycles()
    }

    /// Records `n` completed application operations.
    pub fn complete_ops(&mut self, n: u64) {
        self.vm.env.throughput.record(n);
    }

    /// Advances the clock by `ns` of idle time (request pacing / think
    /// time). No work is attributed to any method; owed concurrent
    /// marking is paid down for free (see [`VmEnv::idle`]).
    pub fn idle(&mut self, ns: u64) {
        self.vm.env.idle(ns);
    }

    // --- Calls ---

    /// Performs a monomorphic call through `site`, executing `f` as the
    /// callee body.
    ///
    /// # Panics
    ///
    /// Panics if `site` was declared polymorphic (use
    /// [`MutatorCtx::call_virtual`]).
    pub fn call<R>(&mut self, site: CallSiteId, f: impl FnOnce(&mut MutatorCtx<'_>) -> R) -> R {
        let callee = self
            .vm
            .env
            .program
            .call_site(site)
            .callee
            .expect("monomorphic call through polymorphic site");
        self.call_impl(site, callee, f)
    }

    /// Performs a polymorphic call through `site` dispatching to `target`.
    pub fn call_virtual<R>(
        &mut self,
        site: CallSiteId,
        target: MethodId,
        f: impl FnOnce(&mut MutatorCtx<'_>) -> R,
    ) -> R {
        debug_assert!(
            self.vm.env.program.call_site(site).callee.is_none(),
            "call_virtual through a monomorphic site"
        );
        self.call_impl(site, target, f)
    }

    /// Performs a call whose body may throw; exception unwinding applies
    /// the paper's §7.2.2 semantics (the exit-side TSS update runs only if
    /// the profiler's rethrow hook is installed).
    pub fn call_fallible<R>(
        &mut self,
        site: CallSiteId,
        f: impl FnOnce(&mut MutatorCtx<'_>) -> Result<R, GuestException>,
    ) -> Result<R, GuestException> {
        let callee = self
            .vm
            .env
            .program
            .call_site(site)
            .callee
            .expect("monomorphic call through polymorphic site");
        let entry = self.enter_call(site, callee);
        let result = f(self);
        match &result {
            Ok(_) => self.exit_call(site, entry, false),
            Err(_) => self.exit_call(site, entry, true),
        }
        result
    }

    fn call_impl<R>(
        &mut self,
        site: CallSiteId,
        callee: MethodId,
        f: impl FnOnce(&mut MutatorCtx<'_>) -> R,
    ) -> R {
        let entry = self.enter_call(site, callee);
        let r = f(self);
        self.exit_call(site, entry, false);
        r
    }

    /// Entry half of a call. Returns whether the site was inlined (frames
    /// are pushed either way; inlined frames never carry deltas).
    fn enter_call(&mut self, site: CallSiteId, callee: MethodId) -> bool {
        let env = &mut self.vm.env;
        let caller = env.program.call_site(site).caller;
        let caller_compiled = env.jit.is_compiled(caller);
        let inlined = caller_compiled && env.jit.call_site(site).inlined;

        // Cost of the call itself.
        let call_cost = if inlined {
            0
        } else if caller_compiled {
            env.cost.call_ns
        } else {
            env.cost.interpreted_call_ns
        };
        env.charge(call_cost);

        // Profiling instructions exist only in compiled, non-inlined call
        // sites — and only when call-profiling code is installed at all.
        let mut added = 0u16;
        if caller_compiled && !inlined && env.jit.config().install_call_profiling {
            let _span = env.telemetry.span(Bucket::MutatorProfiling);
            let delta = env.jit.call_site(site).delta;
            if delta != 0 {
                env.charge(env.cost.profile_call_slow_ns);
                added = delta;
            } else {
                env.charge(env.cost.profile_call_fast_ns);
            }
        }
        self.vm.env.threads[self.thread.0 as usize].push_frame(site, added);

        // Callee hotness: inlined bodies are part of the caller's code and
        // do not bump the callee's own counter.
        if !inlined {
            let program = Rc::clone(&self.vm.env.program);
            if let Some(ev) = self.vm.env.jit.note_entry(&program, callee, &mut self.vm.rng) {
                self.vm.handle_jit_event(self.thread, ev);
            }
        }
        inlined
    }

    /// Exit half of a call.
    fn exit_call(&mut self, site: CallSiteId, inlined: bool, unwinding: bool) {
        let env = &mut self.vm.env;
        let caller = env.program.call_site(site).caller;
        // Re-read compiled state: an OSR compile of the caller mid-call
        // means the exit runs compiled (profiled) code even though the
        // entry did not.
        let caller_compiled = env.jit.is_compiled(caller);
        let site_inlined = inlined && caller_compiled;

        let run_exit_profiling = caller_compiled
            && !site_inlined
            && env.jit.config().install_call_profiling
            && (!unwinding || self.vm.profiler.borrow().exception_hook_installed());

        let env = &mut self.vm.env;
        if run_exit_profiling {
            let _span = env.telemetry.span(Bucket::MutatorProfiling);
            let delta = env.jit.call_site(site).delta;
            if delta != 0 {
                env.charge(env.cost.profile_call_slow_ns);
                env.threads[self.thread.0 as usize].pop_frame(delta);
            } else {
                env.charge(env.cost.profile_call_fast_ns);
                env.threads[self.thread.0 as usize].pop_frame(0);
            }
        } else {
            env.threads[self.thread.0 as usize].pop_frame_skipping_update();
        }
    }

    /// Charges `ops` units of guest computation attributed to the current
    /// method, and feeds the OSR backedge counter.
    pub fn work(&mut self, ops: u64) {
        let current = self.current_method();
        let compiled = current.map(|m| self.vm.env.jit.is_compiled(m)).unwrap_or(true);
        let per_op = if compiled {
            self.vm.env.cost.compiled_op_ns
        } else {
            self.vm.env.cost.interpreted_op_ns
        };
        let base = ops.saturating_mul(per_op);
        let tax = base.saturating_mul(self.vm.collector.work_tax_permille()) / 1_000;
        self.vm.env.charge(base + tax);
        if let Some(m) = current {
            if !compiled {
                let program = Rc::clone(&self.vm.env.program);
                if let Some(ev) = self.vm.env.jit.note_backedges(&program, m, ops, &mut self.vm.rng)
                {
                    self.vm.handle_jit_event(self.thread, ev);
                }
            }
        }
    }

    /// The method whose code is executing for the innermost frame: the
    /// callee — unless the call was inlined, in which case the body *is*
    /// the caller's compiled code and must be costed as such.
    fn current_method(&self) -> Option<MethodId> {
        let t = &self.vm.env.threads[self.thread.0 as usize];
        t.frames.last().map(|f| {
            let decl = self.vm.env.program.call_site(f.call_site);
            let inlined = self.vm.env.jit.is_compiled(decl.caller)
                && self.vm.env.jit.call_site(f.call_site).inlined;
            if inlined {
                decl.caller
            } else {
                // For virtual sites the dispatched target is not tracked
                // in the frame; attribute to the caller.
                decl.callee.unwrap_or(decl.caller)
            }
        })
    }

    // --- Allocation ---

    /// Allocates an object at `site`.
    pub fn alloc(
        &mut self,
        site: AllocSiteId,
        class: ClassId,
        ref_words: u16,
        data_words: u32,
    ) -> Handle {
        self.alloc_impl(site, class, ref_words, data_words, None)
    }

    /// Allocates with an NG2C-style hand annotation naming the target
    /// generation (the "programmer knowledge" baseline).
    pub fn alloc_annotated(
        &mut self,
        site: AllocSiteId,
        class: ClassId,
        ref_words: u16,
        data_words: u32,
        generation: u8,
    ) -> Handle {
        self.alloc_impl(site, class, ref_words, data_words, Some(generation))
    }

    fn alloc_impl(
        &mut self,
        site: AllocSiteId,
        class: ClassId,
        ref_words: u16,
        data_words: u32,
        manual_gen: Option<u8>,
    ) -> Handle {
        let env = &mut self.vm.env;
        let method = env.program.alloc_site(site).method;
        let compiled = env.jit.is_compiled(method);

        let size_words = 2 + ref_words as u64 + data_words as u64;
        let mut cost = env.cost.alloc_ns + size_words * env.cost.alloc_init_word_ns;
        if !compiled {
            cost += env.cost.interpreted_alloc_extra_ns;
        }
        env.charge(cost);

        let hash = env.heap.next_identity_hash();
        let mut header = ObjectHeader::new(hash);
        let mut context = None;

        let mut interpreted_profile = false;
        let profile_id = if compiled {
            env.jit.alloc_site(site).profile_id
        } else if env.jit.config().profile_interpreted {
            // Memento-style ablation: instrument interpreted allocations
            // too (expensive; see `profile_alloc_interpreted_ns`).
            interpreted_profile = true;
            env.jit.assign_profile_id(site)
        } else {
            None
        };
        match profile_id {
            Some(pid) => {
                let tss = env.threads[self.thread.0 as usize].tss;
                let thread = self.thread;
                let ctx_val = self.vm.profiler.borrow_mut().on_alloc(pid, tss, thread);
                let env = &mut self.vm.env;
                {
                    let _span = env.telemetry.span(Bucket::MutatorProfiling);
                    env.charge(if interpreted_profile {
                        env.cost.profile_alloc_interpreted_ns
                    } else {
                        env.cost.profile_alloc_ns
                    });
                }
                env.telemetry.bump(CounterId::ProfiledAllocs, 1);
                header = header.with_allocation_context(ctx_val);
                context = Some(ctx_val);
            }
            None => {
                self.vm.profiler.borrow_mut().on_unprofiled_alloc();
                self.vm.env.telemetry.bump(CounterId::UnprofiledAllocs, 1);
            }
        }

        // Pretenuring fast path: one bounds-checked index into the
        // current decision table, read in place — never a profiler borrow.
        // The identity-hash draw doubles as the canary-sampling tick for
        // imported-profile rows (deterministic and uniform).
        let advised_gen = match (context, self.vm.env.decisions.as_deref()) {
            (Some(ctx), Some(store)) => store.advise_for_alloc(ctx, hash),
            _ => None,
        };

        let req =
            AllocRequest { class, ref_words, data_words, header, context, manual_gen, advised_gen };
        let obj = match self.vm.collector.fast_alloc(&mut self.vm.env, &req, self.thread.0) {
            Some(obj) => obj,
            None => self.vm.collector.allocate(&mut self.vm.env, req),
        };
        self.vm.env.heap.handles.create(obj)
    }

    // --- Field access (handle-mediated, GC-safe) ---

    /// Loads reference field `i`; returns a fresh handle (caller releases)
    /// or `None` for null.
    pub fn get_ref(&mut self, h: Handle, i: u16) -> Option<Handle> {
        let env = &mut self.vm.env;
        env.charge(env.cost.field_load_ns + self.vm.collector.load_barrier_ns());
        let obj = env.heap.handles.get(h);
        let v = env.heap.get_ref(obj, i);
        if v.is_null() {
            None
        } else {
            Some(env.heap.handles.create(v))
        }
    }

    /// Stores the object behind `value` into reference field `i` of `h`.
    pub fn set_ref(&mut self, h: Handle, i: u16, value: &Handle) {
        let env = &mut self.vm.env;
        env.charge(env.cost.field_store_ns + self.vm.collector.store_barrier_ns());
        let obj = env.heap.handles.get(h);
        let v = env.heap.handles.get(*value);
        env.heap.set_ref(obj, i, v);
    }

    /// Nulls reference field `i` of `h`.
    pub fn set_ref_null(&mut self, h: Handle, i: u16) {
        let env = &mut self.vm.env;
        env.charge(env.cost.field_store_ns + self.vm.collector.store_barrier_ns());
        let obj = env.heap.handles.get(h);
        env.heap.set_ref(obj, i, ObjectRef::NULL);
    }

    /// Loads data word `j` of `h`.
    pub fn get_data(&mut self, h: Handle, j: u32) -> u64 {
        let env = &mut self.vm.env;
        env.charge(env.cost.field_load_ns + self.vm.collector.load_barrier_ns());
        let obj = env.heap.handles.get(h);
        env.heap.get_data(obj, j)
    }

    /// Stores data word `j` of `h`.
    pub fn set_data(&mut self, h: Handle, j: u32, value: u64) {
        let env = &mut self.vm.env;
        env.charge(env.cost.field_store_ns + self.vm.collector.store_barrier_ns());
        let obj = env.heap.handles.get(h);
        env.heap.set_data(obj, j, value);
    }

    /// Releases a root handle; the object becomes collectable unless
    /// otherwise reachable.
    pub fn release(&mut self, h: Handle) {
        self.vm.env.heap.handles.drop_handle(h);
    }

    // --- Locking ---

    /// Bias-locks the object towards this thread, overwriting the
    /// allocation context in the header (paper §3.2.2).
    pub fn bias_lock(&mut self, h: Handle) {
        let env = &mut self.vm.env;
        env.charge(env.cost.field_store_ns);
        let obj = env.heap.handles.get(h);
        let hdr = env.heap.header(obj).with_bias(self.thread.0);
        env.heap.set_header(obj, hdr);
    }

    /// The current header of the object behind `h` (test/inspection use).
    pub fn header_of(&self, h: Handle) -> ObjectHeader {
        let obj = self.vm.env.heap.handles.get(h);
        self.vm.env.heap.header(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::jit::JitConfig;
    use crate::profiler::NullProfiler;
    use crate::program::ProgramBuilder;
    use rolp_heap::{AllocFailure, Heap, HeapConfig, SpaceKind};

    /// A trivial collector: eden-only bump allocation, aborts on
    /// exhaustion. Lets the VM be tested without `rolp-gc`.
    struct BumpCollector;

    impl CollectorApi for BumpCollector {
        fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef {
            match env.heap.alloc_in(
                SpaceKind::Eden,
                req.class,
                req.ref_words,
                req.data_words,
                req.header,
            ) {
                Ok(r) => r,
                Err(AllocFailure::NeedsGc) => panic!("BumpCollector heap exhausted"),
                Err(e) => panic!("allocation failed: {e:?}"),
            }
        }

        fn name(&self) -> &'static str {
            "bump"
        }

        fn gc_cycles(&self) -> u64 {
            0
        }
    }

    struct World {
        vm: Vm,
        main: MethodId,
        helper: MethodId,
        cs_helper: CallSiteId,
        site_main: AllocSiteId,
        site_helper: AllocSiteId,
        class: ClassId,
    }

    fn world(compile_threshold: u64) -> World {
        let mut b = ProgramBuilder::new();
        let main = b.method("app.Main::run", 200, false);
        let helper = b.method("app.Helper::make", 120, false);
        let cs_helper = b.call_site(main, helper);
        let site_main = b.alloc_site(main, 10);
        let site_helper = b.alloc_site(helper, 5);
        let program = b.build();

        let mut heap = Heap::new(HeapConfig { region_bytes: 8192, max_heap_bytes: 1 << 20 });
        let class = heap.classes.register("app.Obj");
        let env = VmEnv::new(
            heap,
            CostModel::default(),
            program,
            JitConfig { compile_threshold, ..Default::default() },
            1,
        );
        let vm = Vm::new(env, Rc::new(RefCell::new(NullProfiler)), Box::new(BumpCollector), 42);
        World { vm, main, helper, cs_helper, site_main, site_helper, class }
    }

    #[test]
    fn calls_advance_the_clock() {
        let mut w = world(1_000);
        let cs = w.cs_helper;
        let mut ctx = w.vm.ctx(ThreadId(0));
        let before = ctx.env().clock.now();
        ctx.call(cs, |ctx| ctx.work(100));
        let after = ctx.env().clock.now();
        assert!(after > before);
    }

    #[test]
    fn hot_methods_get_compiled_and_run_faster() {
        let mut w = world(8);
        let cs = w.cs_helper;
        let helper = w.helper;

        // Warm up until compiled.
        for _ in 0..8 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1));
        }
        assert!(w.vm.env.jit.is_compiled(helper));

        // Compiled work is cheaper than interpreted work.
        let t0 = w.vm.env.clock.now();
        w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1_000));
        let compiled_cost = (w.vm.env.clock.now() - t0).as_nanos();

        let mut w2 = world(1_000_000);
        let cs2 = w2.cs_helper;
        let t0 = w2.vm.env.clock.now();
        w2.vm.ctx(ThreadId(0)).call(cs2, |ctx| ctx.work(1_000));
        let interpreted_cost = (w2.vm.env.clock.now() - t0).as_nanos();
        assert!(
            interpreted_cost > compiled_cost * 3,
            "interpreted {interpreted_cost} vs compiled {compiled_cost}"
        );
    }

    #[test]
    fn allocation_creates_live_handles() {
        let mut w = world(1_000);
        let (site, class) = (w.site_main, w.class);
        let mut ctx = w.vm.ctx(ThreadId(0));
        let h = ctx.alloc(site, class, 1, 2);
        ctx.set_data(h, 0, 99);
        assert_eq!(ctx.get_data(h, 0), 99);
        let h2 = ctx.alloc(site, class, 0, 0);
        ctx.set_ref(h, 0, &h2);
        let read = ctx.get_ref(h, 0).expect("field was set");
        assert_eq!(ctx.env().heap.handles.get(read), ctx.env().heap.handles.get(h2));
    }

    #[test]
    fn tss_stays_zero_when_no_profiling_enabled() {
        let mut w = world(2);
        let cs = w.cs_helper;
        for _ in 0..10 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(5));
        }
        assert_eq!(w.vm.env.threads[0].tss, 0);
    }

    #[test]
    fn enabled_call_profiling_updates_tss_during_call() {
        let mut w = world(1);
        let cs = w.cs_helper;
        let main = w.main;
        // Compile both methods, then enable profiling on the site.
        for _ in 0..3 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1));
        }
        // The caller (main) is never invoked through a site here, so
        // compile it manually by bumping its counter.
        let program = Rc::clone(&w.vm.env.program);
        while !w.vm.env.jit.is_compiled(main) {
            w.vm.env.jit.note_entry(&program, main, &mut w.vm.rng);
        }
        w.vm.env.jit.enable_call_profiling(cs);
        let delta = w.vm.env.jit.call_site(cs).delta;
        assert_ne!(delta, 0);

        let mut ctx = w.vm.ctx(ThreadId(0));
        ctx.call(cs, |ctx| {
            assert_eq!(ctx.env().threads[0].tss, delta, "delta added on entry");
        });
        assert_eq!(w.vm.env.threads[0].tss, 0, "delta removed on exit");
    }

    #[test]
    fn exception_unwind_without_hook_corrupts_tss() {
        let mut w = world(1);
        let cs = w.cs_helper;
        let main = w.main;
        for _ in 0..3 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1));
        }
        let program = Rc::clone(&w.vm.env.program);
        while !w.vm.env.jit.is_compiled(main) {
            w.vm.env.jit.note_entry(&program, main, &mut w.vm.rng);
        }
        w.vm.env.jit.enable_call_profiling(cs);
        let delta = w.vm.env.jit.call_site(cs).delta;

        // NullProfiler has no rethrow hook: the exit update is skipped.
        let r =
            w.vm.ctx(ThreadId(0)).call_fallible(cs, |_| Err::<(), _>(GuestException { code: 7 }));
        assert!(r.is_err());
        assert_eq!(w.vm.env.threads[0].tss, delta, "leaked delta after unwind");
    }

    #[test]
    fn profiled_allocation_installs_context() {
        struct FixedProfiler;
        impl VmProfiler for FixedProfiler {
            fn on_jit_compile(
                &mut self,
                program: &crate::program::Program,
                jit: &mut crate::jit::JitState,
                method: MethodId,
            ) {
                for &s in program.alloc_sites_of(method) {
                    jit.assign_profile_id(s);
                }
            }
            fn on_alloc(&mut self, pid: u16, tss: u16, _t: ThreadId) -> u32 {
                ((pid as u32) << 16) | tss as u32
            }
        }

        let mut w = world(2);
        w.vm.profiler = Rc::new(RefCell::new(FixedProfiler));
        let cs = w.cs_helper;
        let (site_h, class) = (w.site_helper, w.class);

        // Cold: allocation context stays empty.
        let h = w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.alloc(site_h, class, 0, 0));
        assert_eq!(w.vm.ctx(ThreadId(0)).header_of(h).allocation_context(), Some(0));

        // Hot: the helper compiles after threshold entries; its site then
        // carries a profile id and new objects get a context.
        for _ in 0..4 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1));
        }
        let h2 = w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.alloc(site_h, class, 0, 0));
        let ctx_val = w.vm.ctx(ThreadId(0)).header_of(h2).allocation_context().unwrap();
        assert_ne!(ctx_val, 0);
        assert_eq!(ctx_val & 0xFFFF, 0, "tss part is zero outside profiled paths");
    }

    #[test]
    fn bias_locking_destroys_context() {
        let mut w = world(1_000);
        let (site, class) = (w.site_main, w.class);
        let mut ctx = w.vm.ctx(ThreadId(0));
        let h = ctx.alloc(site, class, 0, 0);
        ctx.bias_lock(h);
        assert!(ctx.header_of(h).is_biased());
        assert_eq!(ctx.header_of(h).allocation_context(), None);
    }

    #[test]
    fn telemetry_attributes_every_charged_nanosecond() {
        let mut w = world(2);
        let cs = w.cs_helper;
        // Interpreted warmup, a JIT compile, compiled work, and idle
        // pacing — all of it must land in exactly one bucket.
        for _ in 0..6 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(10));
        }
        w.vm.ctx(ThreadId(0)).idle(1_000);

        let cells = w.vm.env.telemetry.cells();
        let attributed: u64 = rolp_telemetry::Bucket::ALL
            .iter()
            .filter(|b| !b.is_modeled())
            .map(|&b| cells.time(b))
            .sum();
        assert_eq!(
            attributed,
            w.vm.env.clock.now().as_nanos(),
            "clock-backed buckets must partition the whole clock"
        );
        assert!(cells.time(Bucket::JitCompile) > 0, "compile time attributed");
        assert_eq!(cells.time(Bucket::Idle), 1_000);
        assert_eq!(cells.counter(CounterId::JitCompiles), 1);
    }

    #[test]
    fn call_profiling_charges_land_in_profiling_bucket() {
        let mut w = world(1);
        let cs = w.cs_helper;
        let main = w.main;
        for _ in 0..3 {
            w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1));
        }
        let program = Rc::clone(&w.vm.env.program);
        while !w.vm.env.jit.is_compiled(main) {
            w.vm.env.jit.note_entry(&program, main, &mut w.vm.rng);
        }
        w.vm.env.jit.enable_call_profiling(cs);

        let before = w.vm.env.telemetry.cells().time(Bucket::MutatorProfiling);
        w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1));
        let after = w.vm.env.telemetry.cells().time(Bucket::MutatorProfiling);
        // Entry and exit both take the slow profiling path.
        assert_eq!(after - before, 2 * w.vm.env.cost.profile_call_slow_ns);
        assert_eq!(w.vm.env.telemetry.current(), Bucket::MutatorApp, "span closed");
    }

    #[test]
    fn work_in_interpreted_loop_triggers_osr() {
        let mut w = world(1_000_000); // entry threshold unreachable
        let cs = w.cs_helper;
        let helper = w.helper;
        w.vm.env.jit = crate::jit::JitState::new(
            &w.vm.env.program,
            JitConfig { compile_threshold: 1_000_000, osr_threshold: 500, ..Default::default() },
        );
        w.vm.ctx(ThreadId(0)).call(cs, |ctx| ctx.work(1_000));
        assert!(w.vm.env.jit.is_compiled(helper));
        assert!(w.vm.env.jit.method(helper).osr_compiled);
    }
}
