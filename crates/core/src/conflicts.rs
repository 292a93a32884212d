//! Allocation-context conflict resolution (paper §5).
//!
//! A conflict means one allocation site is reached through call paths with
//! different object lifetimes. ROLP resolves it by enabling thread-stack-
//! state tracking on *some* call sites so the contexts separate — but
//! profiling every call would cost too much throughput, so the algorithm
//! searches for a small distinguishing set `S`:
//!
//! 1. At startup no call site is profiled.
//! 2. When a conflict is detected, a random batch of `P` (a fraction,
//!    recommended ≤ 20%, of the jitted call sites) starts tracking.
//! 3. At the next inference: if the conflict resolved, `S` is inside the
//!    batch — start turning call sites off again to shrink towards `S`.
//!    If not, pick a fresh batch (avoiding repeats) and continue until
//!    every call site has been tried.
//!
//! Convergence is linear in `jitted_call_sites / P` rounds of 16 GC cycles
//! each, which is what the paper's Fig. 7 plots as the worst case. A
//! multimodal site that only one declared call path reaches never gets
//! here: no call site could split it, so the profiler decides it at once
//! (DESIGN §6 item 9) and only counts it in [`ConflictStats::single_path`].

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rolp_vm::{CallSiteId, JitState, Program};

/// Fraction of jitted call sites enabled per probing round (`P`): the
/// paper's recommended upper bound of 20%. Fig. 7's sweep over `P` runs
/// through [`worst_case_resolution_time_ms`], not the resolver.
pub(crate) const P_FRACTION: f64 = 0.20;

/// Resolver statistics (feeds Tables 1 and 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConflictStats {
    /// Conflicts detected (sites that ever went multimodal).
    pub detected: u64,
    /// Conflicts whose contexts separated after enabling tracking.
    pub resolved: u64,
    /// Conflicts abandoned after exhausting every call site.
    pub exhausted: u64,
    /// Probing rounds executed.
    pub probe_rounds: u64,
    /// Call sites currently kept enabled as part of a distinguishing set.
    pub frozen_sites: u64,
    /// Multimodal sites kept out of resolution, without a conflict,
    /// because one declared call path reaches them (no call site could
    /// separate their contexts). Each site counts once.
    pub single_path: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    /// No open conflict.
    Idle,
    /// A batch is enabled; waiting for the next inference verdict.
    Probing,
    /// Conflict resolved; halving the batch to find a minimal set. The
    /// vector holds the most recently *disabled* half (re-enabled and
    /// frozen if the conflict reappears).
    Shrinking(Vec<CallSiteId>),
}

/// The §5 conflict-resolution state machine. One resolver instance serves
/// all conflicts. Parallel conflicts are worked *sequentially* — one
/// active conflict at a time with the others queued — which is the
/// conservative instance of the paper's "multiple sets of P methods" with
/// P divided down to one set (the paper itself recommends reducing P as
/// parallel conflicts increase).
pub struct ConflictResolver {
    rng: StdRng,
    /// Call sites already tried *for the active conflict*.
    tried: HashSet<CallSiteId>,
    active_batch: Vec<CallSiteId>,
    frozen: Vec<CallSiteId>,
    /// The conflict currently being worked.
    active_conflict: Option<u16>,
    /// Conflicts waiting their turn.
    queue: Vec<u16>,
    /// Sites ever reported conflicted or single-path (dedupe for the
    /// `detected` and `single_path` counters; no site is both, because
    /// single-path sites never reach the resolver).
    seen: HashSet<u16>,
    phase: Phase,
    stats: ConflictStats,
    /// When set, batch transitions are appended to `batch_log` for the
    /// flight recorder (drained by the profiler after each inference).
    log_batches: bool,
    batch_log: Vec<(&'static str, u64)>,
}

impl ConflictResolver {
    /// Creates a resolver.
    pub fn new(seed: u64) -> Self {
        ConflictResolver {
            rng: StdRng::seed_from_u64(seed),
            tried: HashSet::new(),
            active_batch: Vec::new(),
            frozen: Vec::new(),
            active_conflict: None,
            queue: Vec::new(),
            seen: HashSet::new(),
            phase: Phase::Idle,
            stats: ConflictStats::default(),
            log_batches: false,
            batch_log: Vec::new(),
        }
    }

    /// Turns batch-transition logging on or off (kept off unless a trace
    /// recorder will drain [`ConflictResolver::take_batch_log`]).
    pub fn set_batch_logging(&mut self, enabled: bool) {
        self.log_batches = enabled;
    }

    /// Drains the logged batch transitions: `(action, sites affected)`
    /// with action one of `enable`, `shrink`, `disable`, `freeze`.
    pub fn take_batch_log(&mut self) -> Vec<(&'static str, u64)> {
        std::mem::take(&mut self.batch_log)
    }

    fn log_batch(&mut self, action: &'static str, size: usize) {
        if self.log_batches && size > 0 {
            self.batch_log.push((action, size as u64));
        }
    }

    /// Counts freshly detected conflicts without engaging resolution —
    /// used by profiling levels that measure but never enable call-site
    /// tracking (the Fig. 6 no-call / fast-call / slow-call arms).
    pub fn note_detected_only(&mut self, sites: &[u16]) {
        for &site in sites {
            if self.seen.insert(site) {
                self.stats.detected += 1;
            }
        }
    }

    /// Counts a multimodal site the profiler kept from the resolver: one
    /// declared call path reaches it, so no probing batch could separate
    /// its contexts. Each site counts once, however often it re-conflicts.
    pub fn note_single_path(&mut self, site: u16) {
        if self.seen.insert(site) {
            self.stats.single_path += 1;
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ConflictStats {
        let mut s = self.stats;
        s.frozen_sites = self.frozen.len() as u64;
        s
    }

    /// Sites with an open (unresolved) conflict (active + queued).
    pub fn open_conflicts(&self) -> usize {
        self.active_conflict.is_some() as usize + self.queue.len()
    }

    /// Call sites currently enabled by the resolver (probing batch +
    /// frozen distinguishing sets).
    pub fn enabled_sites(&self) -> usize {
        self.active_batch.len() + self.frozen.len()
    }

    /// The frozen distinguishing sets (§5): call sites kept enabled
    /// because disabling them re-conflated separated contexts. These are
    /// what an offline profile exports by name.
    pub fn frozen_sites(&self) -> &[CallSiteId] {
        &self.frozen
    }

    /// Warm-starts the frozen distinguishing sets from an imported
    /// profile (deduplicated against what is already frozen). The caller
    /// re-applies the resolver state to the JIT afterwards so the sites
    /// actually start tracking.
    pub fn import_frozen(&mut self, sites: impl IntoIterator<Item = CallSiteId>) {
        for cs in sites {
            if !self.frozen.contains(&cs) {
                self.frozen.push(cs);
            }
        }
    }

    /// Re-applies the resolver's intended call-site-profiling state to the
    /// JIT: frozen distinguishing sets (§5) and the in-flight probe batch
    /// are enabled, so imported frozen sets take effect at once and
    /// resolution resumes exactly where it stood.
    pub fn reapply_to_jit(&self, jit: &mut JitState) {
        for &cs in self.frozen.iter().chain(&self.active_batch) {
            jit.enable_call_profiling(cs);
        }
    }

    /// Feeds one inference round's verdicts into the state machine,
    /// enabling/disabling call-site profiling as the §5 algorithm
    /// prescribes. `new_conflicts` are sites that just went multimodal
    /// (their OLD rows must already be expanded by the caller);
    /// `unresolved` are expanded sites still multimodal.
    pub fn on_inference(
        &mut self,
        program: &Program,
        jit: &mut JitState,
        new_conflicts: &[u16],
        unresolved: &[u16],
    ) {
        for &site in new_conflicts {
            if self.seen.insert(site) {
                self.stats.detected += 1;
            }
            if self.active_conflict != Some(site) && !self.queue.contains(&site) {
                self.queue.push(site);
            }
        }

        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {
                self.next_conflict(program, jit);
            }
            Phase::Probing => {
                let active = self.active_conflict.expect("probing without a conflict");
                if unresolved.contains(&active) {
                    // Batch failed for the active conflict: swap it.
                    self.disable_batch(jit);
                    self.start_probe(program, jit);
                } else {
                    // The active conflict's contexts separated: S is
                    // inside the active batch.
                    self.stats.resolved += 1;
                    self.active_conflict = None;
                    self.shrink_step(jit);
                }
            }
            Phase::Shrinking(last_disabled) => {
                let reappeared = unresolved.iter().any(|s| !self.queue.contains(s));
                if reappeared {
                    // The disabled half contained part of S: bring it back
                    // and freeze everything still needed.
                    for &cs in &last_disabled {
                        jit.enable_call_profiling(cs);
                    }
                    self.active_batch.extend(last_disabled);
                    self.freeze_batch();
                    self.next_conflict(program, jit);
                } else {
                    // The disabled half was unnecessary; keep halving.
                    self.shrink_step(jit);
                }
            }
        }
    }

    /// Picks the next queued conflict (if any) and starts probing for it.
    fn next_conflict(&mut self, program: &Program, jit: &mut JitState) {
        debug_assert!(self.active_batch.is_empty(), "batch must be frozen or disabled first");
        if self.active_conflict.is_none() {
            if self.queue.is_empty() {
                self.phase = Phase::Idle;
                return;
            }
            self.active_conflict = Some(self.queue.remove(0));
            self.tried.clear(); // per-conflict candidate pool
        }
        self.start_probe(program, jit);
    }

    fn start_probe(&mut self, program: &Program, jit: &mut JitState) {
        let candidates: Vec<CallSiteId> = jit
            .profilable_call_sites(program)
            .into_iter()
            .filter(|cs| !self.tried.contains(cs) && !self.frozen.contains(cs))
            .collect();
        if candidates.is_empty() {
            // Exhausted: give up on the active conflict (paper: "until all
            // method calls are exhausted") and move on.
            self.stats.exhausted += 1;
            self.active_conflict = None;
            self.next_conflict(program, jit);
            return;
        }
        let total = jit.profilable_call_sites(program).len();
        let batch_size = ((total as f64 * P_FRACTION).ceil() as usize).clamp(1, candidates.len());
        let mut pool = candidates;
        pool.shuffle(&mut self.rng);
        pool.truncate(batch_size);
        for &cs in &pool {
            jit.enable_call_profiling(cs);
            self.tried.insert(cs);
        }
        self.log_batch("enable", pool.len());
        self.active_batch = pool;
        self.stats.probe_rounds += 1;
        self.phase = Phase::Probing;
    }

    fn disable_batch(&mut self, jit: &mut JitState) {
        self.log_batch("disable", self.active_batch.len());
        for &cs in &self.active_batch {
            jit.disable_call_profiling(cs);
        }
        self.active_batch.clear();
    }

    fn shrink_step(&mut self, jit: &mut JitState) {
        if self.active_batch.len() <= 1 {
            self.freeze_batch();
            // The next queued conflict (if any) starts at the next
            // inference round, once fresh age data exists.
            self.phase = Phase::Idle;
            return;
        }
        let half = self.active_batch.split_off(self.active_batch.len() / 2);
        self.log_batch("shrink", half.len());
        for &cs in &half {
            jit.disable_call_profiling(cs);
        }
        self.phase = Phase::Shrinking(half);
    }

    fn freeze_batch(&mut self) {
        self.log_batch("freeze", self.active_batch.len());
        self.frozen.append(&mut self.active_batch);
    }
}

/// The paper's Fig. 7 model: worst-case conflict-resolution time. With
/// `n` jitted call sites probed `P`-fraction at a time, at most
/// `ceil(1/P)` rounds of `inference_period` GC cycles are needed, each GC
/// `avg_gc_interval` apart.
pub fn worst_case_resolution_time_ms(
    jitted_call_sites: usize,
    p_fraction: f64,
    avg_gc_interval_ms: f64,
    inference_period: u64,
) -> f64 {
    if jitted_call_sites == 0 || p_fraction <= 0.0 {
        return 0.0;
    }
    let batch = ((jitted_call_sites as f64 * p_fraction).ceil()).max(1.0);
    let rounds = (jitted_call_sites as f64 / batch).ceil();
    rounds * inference_period as f64 * avg_gc_interval_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_vm::{JitConfig, ProgramBuilder};

    /// A program with one hot caller and `n` profilable call sites.
    fn world(n: usize) -> (Program, JitState) {
        let mut b = ProgramBuilder::new();
        let caller = b.method("app.Main::run", 500, false);
        let mut callees = Vec::new();
        for i in 0..n {
            let callee = b.method(format!("app.W{i}::go"), 200, false);
            callees.push(b.call_site(caller, callee));
        }
        let program = b.build();
        let mut jit =
            JitState::new(&program, JitConfig { compile_threshold: 1, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(1);
        jit.note_entry(&program, caller, &mut rng);
        (program, jit)
    }

    #[test]
    fn probe_enables_p_fraction_of_sites() {
        let (program, mut jit) = world(20);
        let mut r = ConflictResolver::new(7);
        r.on_inference(&program, &mut jit, &[5], &[]);
        assert_eq!(jit.enabled_call_sites(), 4, "20 sites * 20% = 4");
        assert_eq!(r.stats().detected, 1);
        assert_eq!(r.stats().probe_rounds, 1);
    }

    #[test]
    fn failed_probes_try_fresh_batches_until_exhausted() {
        let (program, mut jit) = world(10);
        let mut r = ConflictResolver::new(7);
        r.on_inference(&program, &mut jit, &[5], &[]);
        let mut seen: HashSet<usize> = HashSet::new();
        // Keep reporting "unresolved" until the candidate pool drains.
        for _ in 0..10 {
            for cs in program.call_sites() {
                if jit.call_site(cs).delta != 0 {
                    seen.insert(cs.0 as usize);
                }
            }
            r.on_inference(&program, &mut jit, &[], &[5]);
        }
        assert_eq!(seen.len(), 10, "every site got tried exactly once overall");
        assert_eq!(r.stats().exhausted, 1);
        assert_eq!(r.open_conflicts(), 0);
        assert_eq!(jit.enabled_call_sites(), 0, "gave up: everything off");
    }

    #[test]
    fn resolution_then_shrink_converges_to_small_frozen_set() {
        let (program, mut jit) = world(16);
        let mut r = ConflictResolver::new(7);
        r.on_inference(&program, &mut jit, &[3], &[]);
        assert!(jit.enabled_call_sites() > 0);
        // Conflict resolves immediately; shrink rounds all report "still
        // resolved", so the batch halves away to one frozen site.
        for _ in 0..10 {
            r.on_inference(&program, &mut jit, &[], &[]);
        }
        assert_eq!(r.stats().resolved, 1);
        assert!(
            r.stats().frozen_sites <= 2,
            "shrink should converge to a small S, got {}",
            r.stats().frozen_sites
        );
        assert_eq!(jit.enabled_call_sites(), r.stats().frozen_sites as usize);
    }

    #[test]
    fn shrink_restores_half_when_conflict_reappears() {
        let (program, mut jit) = world(16);
        let mut r = ConflictResolver::new(7);
        r.on_inference(&program, &mut jit, &[3], &[]);
        let batch = jit.enabled_call_sites();
        // Resolved -> first shrink step happens (half disabled).
        r.on_inference(&program, &mut jit, &[], &[]);
        assert!(jit.enabled_call_sites() < batch);
        // Conflict reappears -> the half comes back and everything
        // enabled freezes.
        r.on_inference(&program, &mut jit, &[], &[3]);
        assert_eq!(jit.enabled_call_sites(), batch);
        assert_eq!(r.stats().frozen_sites as usize, batch);
        assert_eq!(r.open_conflicts(), 0);
    }

    #[test]
    fn batch_log_records_probe_shrink_and_freeze_transitions() {
        let (program, mut jit) = world(16);
        let mut r = ConflictResolver::new(7);
        r.set_batch_logging(true);
        r.on_inference(&program, &mut jit, &[3], &[]);
        // Failed probe -> disable + fresh enable; then resolution ->
        // shrink rounds down to a frozen singleton.
        r.on_inference(&program, &mut jit, &[], &[3]);
        for _ in 0..10 {
            r.on_inference(&program, &mut jit, &[], &[]);
        }
        let log = r.take_batch_log();
        let actions: Vec<&str> = log.iter().map(|&(a, _)| a).collect();
        assert_eq!(&actions[..3], &["enable", "disable", "enable"]);
        assert!(actions.contains(&"shrink"));
        assert_eq!(*actions.last().unwrap(), "freeze");
        assert!(log.iter().all(|&(_, n)| n > 0));
        assert!(r.take_batch_log().is_empty(), "drained");

        // Off by default: nothing accumulates.
        let (program2, mut jit2) = world(8);
        let mut quiet = ConflictResolver::new(7);
        quiet.on_inference(&program2, &mut jit2, &[1], &[]);
        assert!(quiet.take_batch_log().is_empty());
    }

    #[test]
    fn reapply_restores_probe_batch_and_frozen_sets_after_bulk_disable() {
        let (program, mut jit) = world(16);
        let mut r = ConflictResolver::new(7);
        r.on_inference(&program, &mut jit, &[3], &[]);
        let enabled = jit.enabled_call_sites();
        assert!(enabled > 0);
        // Every call site loses its profiling...
        for cs in program.call_sites() {
            jit.disable_call_profiling(cs);
        }
        assert_eq!(jit.enabled_call_sites(), 0);
        // ...then re-applying restores the resolver's intent exactly.
        r.reapply_to_jit(&mut jit);
        assert_eq!(jit.enabled_call_sites(), enabled);
    }

    #[test]
    fn imported_frozen_sets_dedupe_and_reapply() {
        let (program, mut jit) = world(4);
        let mut r = ConflictResolver::new(7);
        let sites: Vec<CallSiteId> = program.call_sites().collect();
        r.import_frozen([sites[0], sites[1], sites[0]]);
        assert_eq!(r.frozen_sites(), &[sites[0], sites[1]]);
        r.import_frozen([sites[1], sites[2]]);
        assert_eq!(r.frozen_sites().len(), 3, "dedupe against existing frozen sites");
        assert_eq!(r.stats().frozen_sites, 3);
        r.reapply_to_jit(&mut jit);
        assert_eq!(jit.enabled_call_sites(), 3);
    }

    #[test]
    fn worst_case_model_matches_paper_shape() {
        // Larger P means fewer rounds: 20% -> 5 rounds, 50% -> 2 rounds.
        let t20 = worst_case_resolution_time_ms(1_000, 0.20, 500.0, 16);
        let t50 = worst_case_resolution_time_ms(1_000, 0.50, 500.0, 16);
        assert!((t20 / t50 - 2.5).abs() < 0.01);
        // 1000 sites at 20% = 5 rounds of 16 GCs at 500 ms = 40 s.
        assert!((t20 - 40_000.0).abs() < 1.0);
        assert_eq!(worst_case_resolution_time_ms(0, 0.2, 500.0, 16), 0.0);
    }
}
