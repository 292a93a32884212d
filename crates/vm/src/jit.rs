//! JIT-compilation simulation.
//!
//! The paper's profiler hinges on HotSpot JIT behaviour: profiling code is
//! installed only in compiled (hot) methods (§3.2), inlined call sites are
//! never profiled (§7.2.1), call-site profiling is a per-site value cell
//! that is *zero when disabled* so the emitted `test`/`je` skips the
//! `add`/`sub` (§3.2.4), and on-stack replacement can flip a method from
//! interpreted to compiled mid-execution, corrupting the thread stack
//! state until ROLP's end-of-GC reconciliation repairs it (§7.2.3).
//!
//! [`JitState`] reproduces all of that: invocation/backedge counters per
//! method, compile events, inlining decisions, the per-call-site delta
//! cell, and the per-allocation-site 16-bit profile id assignment.

use rand::rngs::StdRng;
use rand::Rng;

use crate::program::{AllocSiteId, CallSiteId, MethodId, Program};

/// Default invocation count after which a method is compiled.
pub const DEFAULT_COMPILE_THRESHOLD: u64 = 64;
/// Default loop-backedge count after which a running method is
/// OSR-compiled.
pub const DEFAULT_OSR_THRESHOLD: u64 = 4_096;
/// Callee bytecode size up to which monomorphic call sites are inlined.
pub const DEFAULT_INLINE_SIZE: u32 = 36;

/// Dynamic state of one method.
#[derive(Debug, Clone, Default)]
pub struct MethodState {
    /// Entry count (interpreted + compiled).
    pub invocations: u64,
    /// Loop backedges taken while this method ran interpreted.
    pub backedges: u64,
    /// Whether the method is currently JIT-compiled.
    pub compiled: bool,
    /// Whether the compile happened through on-stack replacement.
    pub osr_compiled: bool,
}

/// Dynamic state of one call site.
#[derive(Debug, Clone, Default)]
pub struct CallSiteState {
    /// The caller was compiled and this site was inlined away: no call
    /// overhead, and *never* any profiling code (paper §7.2.1).
    pub inlined: bool,
    /// The site's unique method-call identifier cell (`as_{m+i}` in the
    /// paper). Zero = profiling disabled; the emitted fast branch skips
    /// the `add`/`sub`. Nonzero = the amount added to / subtracted from
    /// the thread stack state around the call.
    pub delta: u16,
    /// The identifier reserved for this site at JIT time (what gets
    /// written into `delta` when ROLP enables the site).
    pub reserved_delta: u16,
}

/// Dynamic state of one allocation site.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSiteState {
    /// The 16-bit allocation-site identifier assigned when the containing
    /// method was compiled, if the site is profiled (hot + passes the
    /// package filter).
    pub profile_id: Option<u16>,
}

/// A JIT event, reported to the profiler hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitEvent {
    /// Normal counter-triggered compilation at method entry.
    Compile(MethodId),
    /// On-stack replacement: the method was compiled while executing; any
    /// already-active frames of it never ran the entry profiling code.
    OsrCompile(MethodId),
}

/// Tunables for the JIT simulation.
#[derive(Debug, Clone)]
pub struct JitConfig {
    /// Invocations before a method is compiled.
    pub compile_threshold: u64,
    /// Backedges before a running interpreted method is OSR-compiled.
    pub osr_threshold: u64,
    /// Max callee bytecode size for inlining monomorphic call sites.
    pub inline_size: u32,
    /// Whether call-site profiling code (the `test`/`je` fast branch
    /// around calls) is emitted at all. False for plain-JVM baselines and
    /// for ROLP's *no-call-profiling* level (paper Fig. 6 leftmost bars):
    /// calls then carry zero profiling cost and the thread stack state is
    /// never touched.
    pub install_call_profiling: bool,
    /// Memento-style ablation (paper §9.1): also profile allocations in
    /// *interpreted* code, from the first execution. ROLP deliberately
    /// does not do this — instrumenting the interpreter costs far more per
    /// allocation and covers code that contributes little.
    pub profile_interpreted: bool,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            compile_threshold: DEFAULT_COMPILE_THRESHOLD,
            osr_threshold: DEFAULT_OSR_THRESHOLD,
            inline_size: DEFAULT_INLINE_SIZE,
            install_call_profiling: true,
            profile_interpreted: false,
        }
    }
}

/// All dynamic JIT state of a running VM.
#[derive(Debug)]
pub struct JitState {
    config: JitConfig,
    methods: Vec<MethodState>,
    call_sites: Vec<CallSiteState>,
    alloc_sites: Vec<AllocSiteState>,
    /// Next allocation-site profile id to hand out (ids are never reused;
    /// the OLD table is sized by the 16-bit id space, §7.5).
    next_profile_id: u16,
    /// Profile ids exhausted (more than 65 535 hot allocation sites).
    profile_ids_exhausted: bool,
    /// Requests for a profile id refused after exhaustion (the §7.5
    /// saturate-and-report discipline: ids are never wrapped or reused).
    profile_id_overflows: u64,
    compiles: u64,
    osr_compiles: u64,
    /// When set, call-profiling toggles are appended to `toggle_log` for
    /// the flight recorder to drain at the next GC safepoint (the same
    /// unsynchronized-then-merge discipline the OLD table uses, §7.6).
    log_toggles: bool,
    toggle_log: Vec<(CallSiteId, bool)>,
}

impl JitState {
    /// Creates JIT state sized for `program`.
    pub fn new(program: &Program, config: JitConfig) -> Self {
        JitState {
            config,
            methods: vec![MethodState::default(); program.num_methods()],
            call_sites: vec![CallSiteState::default(); program.num_call_sites()],
            alloc_sites: vec![AllocSiteState::default(); program.num_alloc_sites()],
            next_profile_id: 1, // id 0 is reserved for "unprofiled"
            profile_ids_exhausted: false,
            profile_id_overflows: 0,
            compiles: 0,
            osr_compiles: 0,
            log_toggles: false,
            toggle_log: Vec::new(),
        }
    }

    /// Turns call-profiling toggle logging on or off (off by default; the
    /// flight recorder enables it when tracing is requested).
    pub fn set_toggle_logging(&mut self, enabled: bool) {
        self.log_toggles = enabled;
    }

    /// Drains the buffered call-profiling toggles (site, enabled) in the
    /// order they happened. Called at GC safepoints by the recorder.
    pub fn take_toggle_log(&mut self) -> Vec<(CallSiteId, bool)> {
        std::mem::take(&mut self.toggle_log)
    }

    /// The configuration in use.
    pub fn config(&self) -> &JitConfig {
        &self.config
    }

    /// Method state.
    pub fn method(&self, m: MethodId) -> &MethodState {
        &self.methods[m.0 as usize]
    }

    /// Call-site state.
    pub fn call_site(&self, cs: CallSiteId) -> &CallSiteState {
        &self.call_sites[cs.0 as usize]
    }

    /// Allocation-site state.
    pub fn alloc_site(&self, s: AllocSiteId) -> &AllocSiteState {
        &self.alloc_sites[s.0 as usize]
    }

    /// True if `m` currently runs compiled.
    pub fn is_compiled(&self, m: MethodId) -> bool {
        self.methods[m.0 as usize].compiled
    }

    /// Total compilations performed.
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Of which on-stack replacements.
    pub fn osr_compiles(&self) -> u64 {
        self.osr_compiles
    }

    /// Counts a method entry; returns a compile event when the threshold
    /// trips.
    pub fn note_entry(
        &mut self,
        program: &Program,
        m: MethodId,
        rng: &mut StdRng,
    ) -> Option<JitEvent> {
        let st = &mut self.methods[m.0 as usize];
        st.invocations += 1;
        if !st.compiled && st.invocations >= self.config.compile_threshold {
            self.compile(program, m, false, rng);
            return Some(JitEvent::Compile(m));
        }
        None
    }

    /// Counts `n` loop backedges in a running method; returns an OSR event
    /// when the threshold trips while the method is interpreted.
    pub fn note_backedges(
        &mut self,
        program: &Program,
        m: MethodId,
        n: u64,
        rng: &mut StdRng,
    ) -> Option<JitEvent> {
        let st = &mut self.methods[m.0 as usize];
        if st.compiled {
            return None;
        }
        st.backedges += n;
        if st.backedges >= self.config.osr_threshold {
            self.compile(program, m, true, rng);
            return Some(JitEvent::OsrCompile(m));
        }
        None
    }

    /// Compiles `m`: decides inlining for its call sites and reserves
    /// call-site identifier values. Allocation-site profile ids are *not*
    /// assigned here — that is the profiler's decision (package filters,
    /// profiling level), made in its `on_jit_compile` hook via
    /// [`JitState::assign_profile_id`].
    fn compile(&mut self, program: &Program, m: MethodId, osr: bool, rng: &mut StdRng) {
        let st = &mut self.methods[m.0 as usize];
        debug_assert!(!st.compiled, "double compile");
        st.compiled = true;
        st.osr_compiled = osr;
        self.compiles += 1;
        if osr {
            self.osr_compiles += 1;
        }
        for &cs in program.call_sites_of(m) {
            let decl = program.call_site(cs);
            let inlined = match decl.callee {
                Some(callee) => {
                    let c = program.method(callee);
                    c.inlineable && c.bytecode_size <= self.config.inline_size
                }
                None => false, // polymorphic sites are never inlined
            };
            let site = &mut self.call_sites[cs.0 as usize];
            site.inlined = inlined;
            if !inlined && site.reserved_delta == 0 {
                // Reserve a unique nonzero identifier; value installed into
                // the live cell only when ROLP enables the site (paper §5
                // step 1: no method call is profiled at startup).
                site.reserved_delta = rng.gen_range(1..=u16::MAX);
            }
        }
    }

    /// Assigns (or returns the existing) 16-bit profile id for an
    /// allocation site. Returns `None` once the id space is exhausted —
    /// the id counter *saturates* rather than wrapping, because a wrapped
    /// id would alias two distinct sites into one packed allocation
    /// context (see `rolp::context`). Refused requests are counted in
    /// [`JitState::profile_id_overflows`].
    pub fn assign_profile_id(&mut self, s: AllocSiteId) -> Option<u16> {
        if let Some(id) = self.alloc_sites[s.0 as usize].profile_id {
            return Some(id);
        }
        if self.profile_ids_exhausted {
            self.profile_id_overflows += 1;
            return None;
        }
        let id = self.next_profile_id;
        if self.next_profile_id == u16::MAX {
            self.profile_ids_exhausted = true;
        } else {
            self.next_profile_id += 1;
        }
        self.alloc_sites[s.0 as usize].profile_id = Some(id);
        Some(id)
    }

    /// True once the 16-bit profile-id space is exhausted (§7.5).
    pub fn profile_ids_exhausted(&self) -> bool {
        self.profile_ids_exhausted
    }

    /// Profile-id requests refused after exhaustion.
    pub fn profile_id_overflows(&self) -> u64 {
        self.profile_id_overflows
    }

    /// Marks the 16-bit profile-id space exhausted immediately, as if
    /// 65 535 hot allocation sites had already been seen. Already-assigned
    /// ids keep working; new sites are refused (and counted). A test seam:
    /// it reaches the §7.5 saturation path without compiling 65 535 sites.
    pub fn force_profile_id_exhaustion(&mut self) {
        self.profile_ids_exhausted = true;
    }

    /// Enables call-site profiling: installs the reserved identifier into
    /// the live cell. No-op for inlined or never-compiled sites.
    pub fn enable_call_profiling(&mut self, cs: CallSiteId) {
        let site = &mut self.call_sites[cs.0 as usize];
        if !site.inlined {
            site.delta = site.reserved_delta;
            if self.log_toggles {
                self.toggle_log.push((cs, true));
            }
        }
    }

    /// Disables call-site profiling (zeroes the cell; the fast branch now
    /// falls through).
    pub fn disable_call_profiling(&mut self, cs: CallSiteId) {
        let site = &mut self.call_sites[cs.0 as usize];
        if site.delta != 0 && self.log_toggles {
            self.toggle_log.push((cs, false));
        }
        site.delta = 0;
    }

    /// Call sites that are compiled into some method, not inlined, and thus
    /// *candidates* for profiling (the population P is drawn from, §5).
    pub fn profilable_call_sites(&self, program: &Program) -> Vec<CallSiteId> {
        program
            .call_sites()
            .filter(|&cs| {
                let caller = program.call_site(cs).caller;
                self.is_compiled(caller) && !self.call_sites[cs.0 as usize].inlined
            })
            .collect()
    }

    /// Number of profiled (enabled) call sites.
    pub fn enabled_call_sites(&self) -> usize {
        self.call_sites.iter().filter(|s| s.delta != 0).count()
    }

    /// Number of allocation sites holding a profile id.
    pub fn profiled_alloc_sites(&self) -> usize {
        self.alloc_sites.iter().filter(|s| s.profile_id.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn sample_program() -> (Program, MethodId, MethodId, MethodId, CallSiteId, CallSiteId) {
        let mut b = ProgramBuilder::new();
        let hot = b.method("a.Hot::run", 300, false);
        let tiny = b.method("a.Tiny::get", 8, true);
        let big = b.method("a.Big::work", 500, false);
        let cs_tiny = b.call_site(hot, tiny);
        let cs_big = b.call_site(hot, big);
        let p = b.build();
        (p, hot, tiny, big, cs_tiny, cs_big)
    }

    #[test]
    fn methods_compile_at_threshold() {
        let (p, hot, ..) = sample_program();
        let mut jit = JitState::new(&p, JitConfig { compile_threshold: 3, ..Default::default() });
        let mut r = rng();
        assert!(jit.note_entry(&p, hot, &mut r).is_none());
        assert!(jit.note_entry(&p, hot, &mut r).is_none());
        assert_eq!(jit.note_entry(&p, hot, &mut r), Some(JitEvent::Compile(hot)));
        assert!(jit.is_compiled(hot));
        // Further entries do not recompile.
        assert!(jit.note_entry(&p, hot, &mut r).is_none());
        assert_eq!(jit.compiles(), 1);
    }

    #[test]
    fn small_monomorphic_sites_inline_large_ones_do_not() {
        let (p, hot, _tiny, _big, cs_tiny, cs_big) = sample_program();
        let mut jit = JitState::new(&p, JitConfig { compile_threshold: 1, ..Default::default() });
        let mut r = rng();
        jit.note_entry(&p, hot, &mut r);
        assert!(jit.call_site(cs_tiny).inlined);
        assert!(!jit.call_site(cs_big).inlined);
        // Non-inlined site got a reserved identifier, but profiling starts
        // disabled (paper §5 step 1).
        assert_ne!(jit.call_site(cs_big).reserved_delta, 0);
        assert_eq!(jit.call_site(cs_big).delta, 0);
        // Inlined sites never get an identifier.
        assert_eq!(jit.call_site(cs_tiny).reserved_delta, 0);
    }

    #[test]
    fn polymorphic_sites_never_inline() {
        let mut b = ProgramBuilder::new();
        let hot = b.method("a.Hot::run", 300, false);
        let _t = b.method("a.Tiny::get", 8, true);
        let vs = b.virtual_call_site(hot);
        let p = b.build();
        let mut jit = JitState::new(&p, JitConfig { compile_threshold: 1, ..Default::default() });
        jit.note_entry(&p, hot, &mut rng());
        assert!(!jit.call_site(vs).inlined);
        assert_ne!(jit.call_site(vs).reserved_delta, 0);
    }

    #[test]
    fn osr_compiles_on_backedges() {
        let (p, hot, ..) = sample_program();
        let mut jit = JitState::new(
            &p,
            JitConfig { compile_threshold: 1_000_000, osr_threshold: 100, ..Default::default() },
        );
        let mut r = rng();
        assert!(jit.note_backedges(&p, hot, 99, &mut r).is_none());
        assert_eq!(jit.note_backedges(&p, hot, 1, &mut r), Some(JitEvent::OsrCompile(hot)));
        assert!(jit.method(hot).osr_compiled);
        assert_eq!(jit.osr_compiles(), 1);
        // Compiled methods ignore further backedges.
        assert!(jit.note_backedges(&p, hot, 1_000, &mut r).is_none());
    }

    #[test]
    fn profile_ids_are_unique_and_stable() {
        let mut b = ProgramBuilder::new();
        let m = b.method("x.M::f", 100, false);
        let s1 = b.alloc_site(m, 1);
        let s2 = b.alloc_site(m, 2);
        let p = b.build();
        let mut jit = JitState::new(&p, JitConfig::default());
        let a = jit.assign_profile_id(s1).unwrap();
        let bid = jit.assign_profile_id(s2).unwrap();
        assert_ne!(a, bid);
        assert_ne!(a, 0);
        assert_eq!(jit.assign_profile_id(s1), Some(a));
        assert_eq!(jit.profiled_alloc_sites(), 2);
    }

    #[test]
    fn enable_disable_call_profiling_toggles_the_cell() {
        let (p, hot, _tiny, _big, _cs_tiny, cs_big) = sample_program();
        let mut jit = JitState::new(&p, JitConfig { compile_threshold: 1, ..Default::default() });
        jit.note_entry(&p, hot, &mut rng());
        jit.enable_call_profiling(cs_big);
        assert_eq!(jit.call_site(cs_big).delta, jit.call_site(cs_big).reserved_delta);
        assert_eq!(jit.enabled_call_sites(), 1);
        jit.disable_call_profiling(cs_big);
        assert_eq!(jit.call_site(cs_big).delta, 0);
        assert_eq!(jit.enabled_call_sites(), 0);
    }

    #[test]
    fn enabling_an_inlined_site_is_a_no_op() {
        let (p, hot, _tiny, _big, cs_tiny, _cs_big) = sample_program();
        let mut jit = JitState::new(&p, JitConfig { compile_threshold: 1, ..Default::default() });
        jit.note_entry(&p, hot, &mut rng());
        jit.enable_call_profiling(cs_tiny);
        assert_eq!(jit.call_site(cs_tiny).delta, 0);
    }

    #[test]
    fn exhausted_id_space_saturates_and_counts_refusals() {
        let mut b = ProgramBuilder::new();
        let m = b.method("x.M::f", 100, false);
        let s1 = b.alloc_site(m, 1);
        let s2 = b.alloc_site(m, 2);
        let p = b.build();
        let mut jit = JitState::new(&p, JitConfig::default());
        let a = jit.assign_profile_id(s1).unwrap();
        jit.force_profile_id_exhaustion();
        assert!(jit.profile_ids_exhausted());
        // New sites are refused (no wrap, no aliasing)...
        assert_eq!(jit.assign_profile_id(s2), None);
        assert_eq!(jit.assign_profile_id(s2), None);
        assert_eq!(jit.profile_id_overflows(), 2);
        // ...while already-assigned ids keep their meaning.
        assert_eq!(jit.assign_profile_id(s1), Some(a));
    }

    #[test]
    fn profilable_sites_require_compiled_caller() {
        let (p, hot, _tiny, _big, _cs_tiny, cs_big) = sample_program();
        let mut jit = JitState::new(&p, JitConfig { compile_threshold: 2, ..Default::default() });
        let mut r = rng();
        assert!(jit.profilable_call_sites(&p).is_empty());
        jit.note_entry(&p, hot, &mut r);
        jit.note_entry(&p, hot, &mut r);
        assert_eq!(jit.profilable_call_sites(&p), vec![cs_big]);
    }
}
