//! The ROLP profiler.
//!
//! [`RolpProfiler`] is the paper's contribution assembled: it implements
//! the VM-side hooks (`rolp_vm::VmProfiler` — what the JIT-installed
//! profiling code does) and the GC-side hooks (`rolp_gc::GcHooks` — what
//! the modified collector does), tying together the OLD table (§3.3,
//! §7.5, §7.6), lifetime inference (§4), conflict resolution (§5),
//! profiling-decision updates under workload change (§6), package filters
//! (§7.3), survivor-tracking shutdown (§7.4), the exception-rethrow fixup
//! (§7.2.2), and the end-of-GC thread-stack-state reconciliation that
//! covers OSR and toggle corruption (§7.2.3).
//!
//! # The epoch pipeline
//!
//! The profiler is one explicit pipeline, generic over the
//! [`LifetimeTable`] backend:
//!
//! 1. **record** — mutators bump age-0 cells ([`VmProfiler::on_alloc`]);
//!    GC workers buffer survivals into private [`WorkerTable`]s
//!    ([`GcHooks::on_survivor`]).
//! 2. **safepoint merge** — every pause ends with the deterministic
//!    worker-table merge and the §7.2.3 stack-state reconciliation
//!    ([`GcHooks::on_gc_end`]).
//! 3. **infer** — every [`RolpConfig::inference_period`] cycles, classify
//!    the touched rows (§4).
//! 4. **resolve conflicts** — expand conflicted sites (§7.5), engage the
//!    call-site resolver (§5), fold the verdicts into the decision
//!    working set, apply §6 demotion.
//! 5. **publish** — compile the working set into an immutable, versioned
//!    `DecisionTable` snapshot and atomically swap it into the shared
//!    [`DecisionStore`], where the mutator allocation path and the GC's
//!    pretenuring placement read it lock-free.
//!
//! The working set itself is a sorted map keyed by table row key; the
//! flat-array snapshot is rebuilt from it at each publication, so readers
//! never observe a half-updated epoch.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rolp_gc::{GcCycleInfo, GcHooks};
use rolp_heap::{ObjectHeader, RegionKind};
use rolp_telemetry::{Bucket, CounterId, HistId};
use rolp_vm::{
    AllocSiteId, CallSiteId, DecisionStore, DecisionTable, JitState, MethodId, Program, ThreadId,
    VmEnv, VmProfiler,
};

use rolp_faults::{CycleFaults, FaultInjector, FaultPlan};

use crate::conflicts::{ConflictConfig, ConflictResolver, ConflictStats};
use crate::context::pack;
use crate::filters::PackageFilters;
use crate::geometry::LifetimeTable;
use crate::governor::{EpochCost, Governor, GovernorConfig, GovernorState};
use crate::inference::InferenceOutcome;
use crate::offline::ProfileValidation;
use crate::old_table::{OldTable, WorkerTable};
use crate::survivor::SurvivorTracking;

/// Remaining confidence below which an imported row's offline prior is
/// released: the row is dropped from the published table (so
/// mis-pretenuring stops immediately) and live inference owns it from
/// then on.
const CONFIDENCE_FLOOR: u8 = 16;

/// Consecutive canary-confirmed epochs after which an imported row
/// *graduates* from probation: the canary flag is dropped and the row is
/// trusted exactly like a live-learned decision (§7.4 semantics — once
/// the workload has re-confirmed the prior, re-measuring it forever
/// would only keep survivor tracking alive and let late, noisy
/// inference perturb an otherwise stable table).
const CONFIRMATIONS_TO_GRADUATE: u8 = 3;

/// The profiling level, matching the paper's Fig. 6 experiment arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilingLevel {
    /// Only allocation sites are profiled; no call-profiling code is
    /// emitted at all (pair with `JitConfig::install_call_profiling =
    /// false`).
    NoCallProfiling,
    /// Call-profiling code is emitted but never enabled: every call takes
    /// the fast branch.
    FastCallProfiling,
    /// Normal operation: conflict resolution enables the call sites it
    /// needs.
    Real,
    /// Worst case: every non-inlined jitted call site is enabled — all
    /// calls take the slow branch.
    SlowCallProfiling,
}

/// ROLP configuration (all paper defaults).
#[derive(Debug, Clone)]
pub struct RolpConfig {
    /// Profiling level (Fig. 6).
    pub level: ProfilingLevel,
    /// Package filters (§7.3).
    pub filters: PackageFilters,
    /// GC cycles between inference passes (§4: the max object age, 16).
    pub inference_period: u64,
    /// Conflict-resolution tunables (§5).
    pub conflict: ConflictConfig,
    /// Survivor-tracking shutdown enabled (§7.4).
    pub survivor_shutdown: bool,
    /// Exception-rethrow stack-state fixup installed (§7.2.2).
    pub exception_hook: bool,
    /// Tenured fragmentation above which estimates get demoted (§6).
    pub demotion_threshold: f64,
    /// Optional offline decision profile (POLM2-style warm start; see
    /// [`crate::offline`]). Matching allocation sites start pretenuring
    /// the moment they are JIT-compiled, skipping the learning warmup.
    pub offline_profile: Option<crate::offline::DecisionProfile>,
    /// Blend the imported profile with live observation: imported rows
    /// are published canary-flagged (a 1-in-[`CANARY_STRIDE`] sample of
    /// their allocations stays young so survivor tracking keeps seeing
    /// them), and each inference epoch decays or re-confirms the row's
    /// confidence from that evidence. `false` = frozen POLM2-style
    /// replay: the profile is trusted verbatim forever.
    ///
    /// [`CANARY_STRIDE`]: rolp_vm::CANARY_STRIDE
    pub blend: bool,
    /// Seed for the conflict resolver's random batches.
    pub seed: u64,
    /// GC worker count — one private [`WorkerTable`] each (§5.2, §7.6),
    /// merged deterministically at the safepoint ending every pause.
    pub gc_workers: usize,
    /// Overhead governor (`None` = ungoverned: the pre-governor behavior,
    /// bit for bit). See [`crate::governor`].
    pub governor: Option<GovernorConfig>,
    /// Deterministic fault-injection plan (`None` = no injection). See
    /// [`rolp_faults`].
    pub fault_plan: Option<FaultPlan>,
    /// Batch age-0 recording: [`VmProfiler::on_alloc`] appends the
    /// context to a per-thread delta buffer instead of touching the
    /// shared OLD table, and the buffers are flushed (sorted, run-length
    /// encoded, applied via [`LifetimeTable::record_allocations`]) at the
    /// safepoint opening every pause. Increments are commutative between
    /// safepoints, so the table state at every read point (inference,
    /// blend decay, reconciliation — all safepoint-side) is identical to
    /// the per-allocation path; what changes is that the §7.6 racy
    /// increment window disappears. `false` restores the per-allocation
    /// reference path the differential suite compares against.
    pub batch_age0: bool,
}

impl Default for RolpConfig {
    fn default() -> Self {
        RolpConfig {
            level: ProfilingLevel::Real,
            filters: PackageFilters::all(),
            inference_period: 16,
            conflict: ConflictConfig::default(),
            survivor_shutdown: true,
            exception_hook: true,
            demotion_threshold: 0.5,
            offline_profile: None,
            blend: true,
            seed: 0x0517,
            gc_workers: 4,
            governor: None,
            fault_plan: None,
            batch_age0: true,
        }
    }
}

/// Snapshot of profiler counters (feeds Tables 1 and 2).
#[derive(Debug, Clone, Default)]
pub struct RolpStats {
    /// Allocation sites carrying profiling code.
    pub profiled_alloc_sites: usize,
    /// All declared allocation sites.
    pub total_alloc_sites: usize,
    /// Call sites currently enabled (slow branch).
    pub enabled_call_sites: usize,
    /// Call sites with profiling code installed (compiled, non-inlined).
    pub installed_call_sites: usize,
    /// All declared call sites.
    pub total_call_sites: usize,
    /// Conflict-resolution counters.
    pub conflicts: ConflictStats,
    /// Inference passes run.
    pub inferences: u64,
    /// Active pretenuring decisions.
    pub decisions: usize,
    /// Version of the last published decision snapshot.
    pub decision_version: u64,
    /// OLD table footprint (§7.5).
    pub old_table_bytes: u64,
    /// Profiled allocations recorded.
    pub profiled_allocations: u64,
    /// Allocations at unprofiled (cold/filtered) sites.
    pub unprofiled_allocations: u64,
    /// Survivor records fed to the OLD table.
    pub survivor_records: u64,
    /// Thread-stack-state corruptions repaired at GC end (§7.2.3).
    pub reconciliations: u64,
    /// Estimates demoted due to fragmentation (§6).
    pub demotions: u64,
    /// Survivor-tracking shutdowns / reactivations (§7.4).
    pub survivor_shutdowns: u64,
    /// Times survivor tracking was turned back on.
    pub survivor_reactivations: u64,
    /// Governor state label (`None` when running ungoverned).
    pub governor_state: Option<&'static str>,
    /// Governor state transitions taken.
    pub governor_transitions: u64,
    /// Overhead signal driving the governor — `measured` (telemetry) or
    /// `estimated` (cost model); `None` when running ungoverned.
    pub governor_cost_source: Option<&'static str>,
    /// Profile-id requests refused after the 16-bit id space saturated.
    pub profile_id_overflows: u64,
    /// Synthetic record-path events charged by the fault injector.
    pub injected_fault_events: u64,
    /// Survivor records discarded by injected merge drops.
    pub dropped_merge_records: u64,
    /// Safepoint merges postponed by injected merge delays.
    pub delayed_merges: u64,
    /// Offline-profile import validation (`None` when no profile was
    /// imported this run).
    pub profile_import: Option<ProfileValidation>,
    /// Imported rows whose confidence halved under the blend decay.
    pub profile_blend_decays: u64,
    /// Imported rows released to live inference (confidence fell below
    /// the floor).
    pub profile_rows_released: u64,
    /// Imported rows still governing their decision (probationary,
    /// graduated, and generation-0-exempt rows alike).
    pub profile_rows_active: u64,
    /// Imported rows that graduated from canary probation to full trust.
    pub profile_rows_graduated: u64,
    /// Inference epoch that last changed the published decision table
    /// (0 = the published decisions never changed after startup — a
    /// fully-warm start is stable from epoch 0).
    pub last_change_epoch: u64,
}

/// The OLD table a runtime-assembled profiler runs on, at every guest
/// thread count.
pub type TableBackend = OldTable;

/// The runtime object lifetime profiler, generic over the OLD-table
/// backend (see the module-level pipeline description).
pub struct RolpProfiler<T: LifetimeTable = OldTable> {
    config: RolpConfig,
    /// The global OLD table.
    pub old: T,
    workers: Vec<WorkerTable>,
    resolver: ConflictResolver,
    /// Decision working set: row key → estimated lifetime (target
    /// generation). Safepoint-side only; readers use the published
    /// snapshot in [`RolpProfiler::decision_store`].
    decisions: BTreeMap<u32, u8>,
    /// The lock-free publication point for decision snapshots.
    store: Arc<DecisionStore>,
    survivor: SurvivorTracking,
    /// Profile id → allocation site (for leak reports and diagnostics).
    pub(crate) pid_to_site: HashMap<u16, AllocSiteId>,
    /// Recent per-context live-object censuses from marking passes,
    /// oldest first (the §2.2 leak-detection signal).
    pub(crate) liveness_history: std::collections::VecDeque<HashMap<u32, u64>>,
    /// Offline-profile `(generation, confidence)` pairs awaiting their
    /// site's JIT compilation.
    pending_offline: Option<HashMap<AllocSiteId, (u8, u8)>>,
    /// Imported rows still holding their offline prior: row key →
    /// remaining confidence. The max-merge skips these until the blend
    /// decay releases them or they graduate to full trust.
    imported: HashMap<u32, u8>,
    /// Consecutive canary-confirmed epochs per probationary row; at
    /// [`CONFIRMATIONS_TO_GRADUATE`] the row graduates out of
    /// `imported`.
    confirm_streak: HashMap<u32, u8>,
    /// Imported rows that graduated to full trust (still governing their
    /// decision, no longer probationary).
    profile_rows_graduated: u64,
    /// What the import applied and rejected (set at first resolution).
    import_validation: Option<ProfileValidation>,
    /// An import happened but its trace event / counter bump is still
    /// pending (no trace handle inside `on_jit_compile`).
    import_pending_note: bool,
    max_profile_id: u16,
    /// The overhead governor, if configured.
    governor: Option<Governor>,
    /// The fault injector, if a plan is configured.
    faults: Option<FaultInjector>,
    /// Sticky adversarial TSS forced by a `TssCollision` fault.
    fault_tss: Option<u16>,
    /// Per-thread age-0 delta buffers (contexts recorded since the last
    /// safepoint), indexed by thread id; grown on demand. Drained by
    /// [`Self::flush_age0`] at the safepoint opening every pause.
    pending_age0: Vec<Vec<u32>>,
    // Governor state effects, cached as flags for the hot hooks.
    /// `Reduced` and below: call-site profiling shed, resolver frozen.
    call_shed: bool,
    /// `SitesOnly` and below: stack-state hashing off (TSS forced to 0).
    strip_tss: bool,
    /// `Off`: nothing recorded; the store publishes the all-gen-0 table.
    profiling_off: bool,
    // counters
    governor_transitions: u64,
    injected_records: u64,
    dropped_merge_records: u64,
    delayed_merges: u64,
    // epoch bases for the governor's per-epoch cost deltas
    epoch_record_base: u64,
    epoch_invocation_base: u64,
    /// Telemetry `mutator_profiling` total at the last epoch boundary.
    epoch_profiling_base: u64,
    /// Telemetry busy-mutator total at the last epoch boundary.
    epoch_busy_base: u64,
    profiled_allocations: u64,
    unprofiled_allocations: u64,
    survivor_records: u64,
    reconciliations: u64,
    demotions: u64,
    inferences: u64,
    // blend-decay counters: lifetime totals and the closing epoch's share
    profile_blend_decays: u64,
    profile_rows_released: u64,
    epoch_blend_decays: u64,
    epoch_blend_released: u64,
    /// Inference epoch that last changed the published decision table.
    last_change_epoch: u64,
    // pause window for the survivor controller
    window_pause_ms: f64,
    window_pauses: u64,
}

impl RolpProfiler<OldTable> {
    /// Creates a profiler on the sequential (exact) table.
    pub fn new(config: RolpConfig) -> Self {
        Self::with_table(config, OldTable::new())
    }
}

impl<T: LifetimeTable> RolpProfiler<T> {
    /// Creates a profiler on an explicit table backend.
    pub fn with_table(config: RolpConfig, table: T) -> Self {
        let resolver = ConflictResolver::new(config.conflict.clone(), config.seed);
        let survivor = SurvivorTracking::new();
        let gc_workers = config.gc_workers.max(1);
        let geometry = *table.geometry();
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(
            geometry.site_rows(),
            geometry.tss_rows(),
        ));
        let governor = config.governor.clone().map(Governor::new);
        let faults = config.fault_plan.clone().map(FaultInjector::new);
        // A forced start state (tests, CLI overrides) must gate the hooks
        // from the very first allocation, not the first transition.
        let start = governor.as_ref().map(|g| g.state()).unwrap_or(GovernorState::Full);
        RolpProfiler {
            config,
            old: table,
            workers: (0..gc_workers).map(|_| WorkerTable::new()).collect(),
            resolver,
            decisions: BTreeMap::new(),
            store: Arc::new(store),
            survivor,
            pid_to_site: HashMap::new(),
            liveness_history: std::collections::VecDeque::new(),
            pending_offline: None,
            imported: HashMap::new(),
            confirm_streak: HashMap::new(),
            profile_rows_graduated: 0,
            import_validation: None,
            import_pending_note: false,
            max_profile_id: 0,
            governor,
            faults,
            fault_tss: None,
            pending_age0: Vec::new(),
            call_shed: start != GovernorState::Full,
            strip_tss: matches!(start, GovernorState::SitesOnly | GovernorState::Off),
            profiling_off: start == GovernorState::Off,
            governor_transitions: 0,
            injected_records: 0,
            dropped_merge_records: 0,
            delayed_merges: 0,
            epoch_record_base: 0,
            epoch_invocation_base: 0,
            epoch_profiling_base: 0,
            epoch_busy_base: 0,
            profiled_allocations: 0,
            unprofiled_allocations: 0,
            survivor_records: 0,
            reconciliations: 0,
            demotions: 0,
            inferences: 0,
            profile_blend_decays: 0,
            profile_rows_released: 0,
            epoch_blend_decays: 0,
            epoch_blend_released: 0,
            last_change_epoch: 0,
            window_pause_ms: 0.0,
            window_pauses: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RolpConfig {
        &self.config
    }

    /// Number of per-GC-worker private tables (paper §5.2).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Turns flight-recorder logging of conflict-batch transitions on or
    /// off (the events are drained into the trace after each inference).
    pub fn set_trace_logging(&mut self, enabled: bool) {
        self.resolver.set_batch_logging(enabled);
    }

    /// The decision working set (row key → generation), safepoint-side.
    pub fn decisions(&self) -> &BTreeMap<u32, u8> {
        &self.decisions
    }

    /// Inference epochs completed.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// The §5 resolver's frozen distinguishing call sites (exported into
    /// profiles so a warm start separates conflicts from epoch 0).
    pub fn frozen_call_sites(&self) -> Vec<CallSiteId> {
        self.resolver.frozen_sites().to_vec()
    }

    /// Export confidence for a decision row: imported rows carry what is
    /// left of their offline prior; live-learned rows export at full
    /// confidence.
    pub fn confidence_of(&self, context: u32) -> u8 {
        self.imported.get(&context).copied().unwrap_or(crate::offline::DEFAULT_CONFIDENCE)
    }

    /// True while any imported row is still canary-probationary.
    /// Generation-0 priors are exempt from probation: they say the
    /// object dies around its first collection, so a surviving canary is
    /// structurally not expected (zero survivals cannot contradict the
    /// prior), and misprediction cost is bounded — a wrong gen-0 region
    /// dies wholesale and is reclaimed without copying.
    fn any_probationary(&self) -> bool {
        self.imported.keys().any(|&k| self.decisions.get(&k).is_some_and(|&g| g > 0))
    }

    /// What the offline-profile import applied and rejected (`None` when
    /// no profile was configured or no method has been compiled yet).
    pub fn import_validation(&self) -> Option<ProfileValidation> {
        self.import_validation
    }

    /// The shared publication point for decision snapshots: the mutator
    /// allocation path and the GC's pretenuring placement read it
    /// lock-free; this profiler publishes a new version at the end of
    /// each inference epoch (and on offline warm starts).
    pub fn decision_store(&self) -> Arc<DecisionStore> {
        Arc::clone(&self.store)
    }

    /// Counter snapshot; `jit`/`program` provide the site denominators.
    pub fn stats(&self, program: &Program, jit: &JitState) -> RolpStats {
        RolpStats {
            profiled_alloc_sites: jit.profiled_alloc_sites(),
            total_alloc_sites: program.num_alloc_sites(),
            enabled_call_sites: jit.enabled_call_sites(),
            installed_call_sites: jit.profilable_call_sites(program).len(),
            total_call_sites: program.num_call_sites(),
            conflicts: self.resolver.stats(),
            inferences: self.inferences,
            decisions: self.decisions.len(),
            decision_version: self.store.version(),
            old_table_bytes: self.old.memory_bytes(),
            profiled_allocations: self.profiled_allocations,
            unprofiled_allocations: self.unprofiled_allocations,
            survivor_records: self.survivor_records,
            reconciliations: self.reconciliations,
            demotions: self.demotions,
            survivor_shutdowns: self.survivor.shutdowns,
            survivor_reactivations: self.survivor.reactivations,
            governor_state: self.governor.as_ref().map(|g| g.state().label()),
            governor_transitions: self.governor_transitions,
            governor_cost_source: self.config.governor.as_ref().map(|c| c.cost_source.label()),
            profile_id_overflows: jit.profile_id_overflows(),
            injected_fault_events: self.injected_records,
            dropped_merge_records: self.dropped_merge_records,
            delayed_merges: self.delayed_merges,
            profile_import: self.import_validation,
            profile_blend_decays: self.profile_blend_decays,
            profile_rows_released: self.profile_rows_released,
            profile_rows_active: self.imported.len() as u64 + self.profile_rows_graduated,
            profile_rows_graduated: self.profile_rows_graduated,
            last_change_epoch: self.last_change_epoch,
        }
    }

    /// Current governor state (`None` when running ungoverned).
    pub fn governor_state(&self) -> Option<GovernorState> {
        self.governor.as_ref().map(|g| g.state())
    }

    /// Applies the hook-side effects of a governor state, in order of
    /// severity: shed (or restore) call-site profiling, strip TSS, gate
    /// the allocation fast path. Idempotent per state.
    fn apply_governor_state(&mut self, env: &mut VmEnv, to: GovernorState) {
        let shed = to != GovernorState::Full;
        if shed && !self.call_shed {
            // Reduced entry: zero every call-site delta. The resolver's
            // frozen/probing sets are preserved untouched and re-applied
            // verbatim on recovery, so conflicted contexts keep their
            // meaning while shed.
            let program = std::rc::Rc::clone(&env.program);
            for cs in program.call_sites() {
                env.jit.disable_call_profiling(cs);
            }
        } else if !shed && self.call_shed {
            // Full recovery: restore exactly the deltas the resolver owns.
            self.resolver.reapply_to_jit(&mut env.jit);
        }
        self.call_shed = shed;
        self.strip_tss = matches!(to, GovernorState::SitesOnly | GovernorState::Off);
        self.profiling_off = to == GovernorState::Off;
        // In `Off` the JIT patches the profiling instructions out: the
        // mutator fast path is one branch (`alloc_profiling_enabled`).
        env.jit.set_alloc_profiling(!self.profiling_off);
        let encoded = match to {
            GovernorState::Full => 0,
            GovernorState::Reduced => 1,
            GovernorState::SitesOnly => 2,
            GovernorState::Off => 3,
        };
        env.telemetry.registry().set_gauge(rolp_telemetry::GaugeId::GovernorState, encoded);
    }

    /// Pipeline stage 3 (§4): classify every touched row.
    fn stage_infer(&self) -> InferenceOutcome {
        crate::inference::infer(&self.old)
    }

    /// Pipeline stage 4: grow the table for fresh conflicts (§7.5),
    /// engage the §5 resolver, fold the verdicts into the working set,
    /// and apply §6 fragmentation demotion.
    fn stage_resolve(&mut self, env: &mut VmEnv, info: &GcCycleInfo, outcome: &InferenceOutcome) {
        for &site in &outcome.new_conflicts {
            self.old.expand_site(site);
        }
        if self.config.level == ProfilingLevel::Real && !self.call_shed {
            let program = std::rc::Rc::clone(&env.program);
            self.resolver.on_inference(
                &program,
                &mut env.jit,
                &outcome.new_conflicts,
                &outcome.unresolved_conflicts,
            );
        } else {
            // Other levels — and a governor-`Reduced` profiler, whose
            // call-site profiling is shed — only count conflicts; no
            // resolution.
            self.resolver.note_detected_only(&outcome.new_conflicts);
        }

        // Merge decisions *upward*: inference raises estimates; only
        // the §6 fragmentation path lowers them. A pretenured context
        // produces no young survivals anymore, so its fresh window
        // degenerates to an age-0 spike — replacing instead of merging
        // would bounce the context back to the young generation every
        // other inference.
        for &(key, gen) in &outcome.decisions {
            // Imported rows hold their offline prior until the blend
            // decay releases them; then live evidence owns the row.
            if self.imported.contains_key(&key) {
                continue;
            }
            let slot = self.decisions.entry(key).or_insert(gen);
            *slot = (*slot).max(gen);
        }

        // §6: under fragmentation, demote estimates feeding the most
        // fragmented dynamic generations.
        if info.tenured_fragmentation > self.config.demotion_threshold {
            for (_, gen) in self.decisions.iter_mut() {
                let g = *gen as usize;
                if (1..=14).contains(&g)
                    && info.dynamic_gen_garbage[g] > self.config.demotion_threshold
                {
                    *gen -= 1;
                    self.demotions += 1;
                }
            }
        }
    }

    /// Pipeline stage 5: compile the working set into the next immutable
    /// snapshot and atomically publish it. Returns `(version,
    /// changed_rows)`. Rows still backed by an imported offline prior are
    /// published canary-flagged (unless blending is off), so the
    /// allocation fast path keeps a small young-generation sample flowing
    /// for the blend decay to judge them by. Generation-0 priors are not
    /// flagged — they are exempt from probation (see
    /// [`Self::any_probationary`]).
    fn stage_publish(&mut self) -> (u64, u32) {
        let blend = self.config.blend;
        let imported = &self.imported;
        let decisions = &self.decisions;
        let next = DecisionTable::next_from_blended(
            self.store.load(),
            decisions,
            self.old.expanded_sites(),
            |key| {
                blend && imported.contains_key(&key) && decisions.get(&key).is_some_and(|&g| g > 0)
            },
        );
        let changed = next.changed_rows();
        let version = self.store.publish(next);
        (version, changed)
    }

    /// Runs one inference epoch: infer → resolve conflicts → publish,
    /// plus the §7.4 survivor switch and the end-of-epoch table clear.
    fn run_inference(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        let tracing = env.trace.is_enabled();
        let decisions_before = if tracing { self.decisions.clone() } else { BTreeMap::new() };
        let survivor_before = self.survivor.enabled();
        let mut new_conflicts = 0u64;
        let mut unresolved_conflicts = 0u64;

        // Governor: meter the closing epoch and apply any state change
        // before the pipeline stages run, so a blown budget degrades this
        // epoch's publication, not the next one's.
        if self.governor.is_some() {
            let record_total =
                self.profiled_allocations + self.survivor_records + self.injected_records;
            let invocations = env.jit.total_invocations();
            // Self-observed signal from the telemetry plane: profiling
            // time and busy mutator time this epoch, as deltas of the
            // live per-thread cell totals (no snapshot publish needed).
            let registry = env.telemetry.registry();
            let prof_now = registry.total_time(Bucket::MutatorProfiling);
            let busy_now = registry.total_time(Bucket::MutatorApp)
                + prof_now
                + registry.total_time(Bucket::JitCompile);
            let cost = EpochCost {
                record_events: record_total - self.epoch_record_base,
                table_bytes: self.old.memory_bytes(),
                // Estimate: each invocation crosses call sites in
                // proportion to the enabled fraction; an enabled crossing
                // costs the slow branch twice (enter + exit).
                call_overhead_ns: {
                    let delta = invocations - self.epoch_invocation_base;
                    let enabled = env.jit.enabled_call_sites() as u64;
                    let total = env.program.num_call_sites().max(1) as u64;
                    2 * env.cost.profile_call_slow_ns * enabled * delta / total
                },
                measured_profiling_ns: prof_now - self.epoch_profiling_base,
                measured_mutator_ns: busy_now - self.epoch_busy_base,
            };
            self.epoch_record_base = record_total;
            self.epoch_invocation_base = invocations;
            self.epoch_profiling_base = prof_now;
            self.epoch_busy_base = busy_now;
            let transition = self.governor.as_mut().and_then(|g| g.evaluate(&cost));
            if let Some(tr) = transition {
                self.apply_governor_state(env, tr.to);
                self.governor_transitions += 1;
                if tracing {
                    env.trace.emit_global(
                        env.clock.now(),
                        rolp_trace::EventKind::GovernorTransition {
                            from: tr.from.label(),
                            to: tr.to.label(),
                            reason: tr.reason,
                            record_events: cost.record_events,
                            table_bytes: cost.table_bytes,
                            call_overhead_ns: cost.call_overhead_ns,
                        },
                    );
                }
            }
        }
        let off = self.profiling_off;

        // With survivor tracking off (§7.4), the window's table holds only
        // age-0 allocation counts — no lifetime information. Decisions are
        // left frozen (the workload was judged stable) and conflict
        // machinery idles; only the pause-growth reactivation check runs.
        // A governor-`Off` profiler skips the learning stages outright.
        let tracking_active = !off && (self.survivor.enabled() || !self.config.survivor_shutdown);

        // Modeled stage costs (the inference pipeline runs at safepoints
        // and does not advance the simulated clock, so these buckets are
        // `Bucket::is_modeled`: work counts priced by the cost model).
        let mut infer_ns = 0u64;
        let mut resolve_ns = 0u64;

        if tracking_active {
            let touched = self.old.touched_rows().len() as u64;
            let outcome = self.stage_infer();
            new_conflicts = outcome.new_conflicts.len() as u64;
            unresolved_conflicts = outcome.unresolved_conflicts.len() as u64;
            infer_ns = touched * env.cost.profile_alloc_ns;
            resolve_ns = (new_conflicts + unresolved_conflicts) * env.cost.profile_call_slow_ns;
            self.stage_resolve(env, info, &outcome);
        }

        // Confidence-weighted decay of the imported prior, judged on
        // live canary evidence. A pretenured context produces no young
        // survivals on its own, so imported rows are published
        // canary-flagged: one in `CANARY_STRIDE` of their allocations
        // stays young and ages through the survivor spaces like any
        // other object. The closing epoch's OLD-table row then tells the
        // truth about current traffic: canaries that survive confirm the
        // prior (confidence restored); an epoch whose canaries all died
        // before their first collection contradicts it (confidence
        // halves). Below the floor the prior is released and the row
        // handed back to live inference — every allocation young again,
        // fully observable. After `CONFIRMATIONS_TO_GRADUATE` confirming
        // epochs in a row the prior graduates instead: probation ends,
        // the canary flag is dropped, and the row is trusted like a
        // live-learned decision.
        self.epoch_blend_decays = 0;
        self.epoch_blend_released = 0;
        if tracking_active && self.config.blend && !self.imported.is_empty() {
            let mut released = Vec::new();
            let mut graduated = Vec::new();
            for (&key, conf) in self.imported.iter_mut() {
                // Generation-0 priors are exempt (`any_probationary`).
                if self.decisions.get(&key).is_none_or(|&g| g == 0) {
                    continue;
                }
                let hist = self.old.histogram(key);
                let allocs = hist[0] as u64;
                let survivals: u64 = hist[1..].iter().map(|&c| c as u64).sum();
                // Too few allocations to expect canaries in the sample:
                // no evidence either way this epoch.
                if allocs < 2 * rolp_vm::CANARY_STRIDE as u64 {
                    continue;
                }
                if survivals > 0 {
                    *conf = crate::offline::DEFAULT_CONFIDENCE;
                    let streak = self.confirm_streak.entry(key).or_insert(0);
                    *streak += 1;
                    if *streak >= CONFIRMATIONS_TO_GRADUATE {
                        graduated.push(key);
                    }
                    continue;
                }
                self.confirm_streak.insert(key, 0);
                *conf /= 2;
                self.epoch_blend_decays += 1;
                self.profile_blend_decays += 1;
                if *conf < CONFIDENCE_FLOOR {
                    released.push(key);
                }
            }
            for key in released {
                self.imported.remove(&key);
                self.confirm_streak.remove(&key);
                self.decisions.remove(&key);
                self.epoch_blend_released += 1;
                self.profile_rows_released += 1;
            }
            for key in graduated {
                self.imported.remove(&key);
                self.confirm_streak.remove(&key);
                self.profile_rows_graduated += 1;
            }
        }

        // §7.4: stable (non-trivial) decisions → survivor tracking off;
        // >10% average-pause growth while off → back on. Never shut down
        // while a conflict is still being resolved — the resolver needs
        // age data to judge its probing batches — nor while blended
        // imported priors remain: their canary samples are the only live
        // evidence the decay has, and it flows through the survivor path.
        if self.config.survivor_shutdown
            && !off
            && !self.decisions.is_empty()
            && self.resolver.open_conflicts() == 0
            && (!self.config.blend || !self.any_probationary())
        {
            // The working set iterates in key order, as the hash expects.
            let sorted: Vec<(u32, u8)> = self.decisions.iter().map(|(&k, &v)| (k, v)).collect();
            let hash = SurvivorTracking::hash_decisions(&sorted);
            let mean = if self.window_pauses == 0 {
                0.0
            } else {
                self.window_pause_ms / self.window_pauses as f64
            };
            self.survivor.on_inference(hash, mean);
        }
        self.window_pause_ms = 0.0;
        self.window_pauses = 0;

        let (version, changed_rows) = if off {
            // `Off` publishes the all-gen-0 (empty) table: every context
            // falls back to NG2C's unprofiled semantics. The working set
            // is retained untouched for recovery — contexts are demoted,
            // never remapped.
            let next = DecisionTable::next_from(
                self.store.load(),
                &BTreeMap::new(),
                std::iter::empty::<u16>(),
            );
            let changed = next.changed_rows();
            (self.store.publish(next), changed)
        } else {
            self.stage_publish()
        };
        if changed_rows > 0 {
            // Stability marker for warmup measurement: a fully-warm run's
            // published table never changes, so this stays 0 (the
            // mid-epoch warm-start publish in `on_jit_compile`
            // deliberately does not count).
            self.last_change_epoch = self.inferences + 1;
        }

        // Attribute the epoch's modeled stage costs and close its
        // telemetry record.
        let publish_ns = changed_rows as u64 * env.cost.profile_alloc_ns;
        let t = &env.telemetry;
        t.add(Bucket::ProfilerInfer, infer_ns);
        t.add(Bucket::ProfilerResolve, resolve_ns);
        t.add(Bucket::ProfilerPublish, publish_ns);
        t.bump(CounterId::EpochsInferred, 1);
        if self.epoch_blend_decays > 0 {
            t.bump(CounterId::ProfileBlendDecays, self.epoch_blend_decays);
        }
        t.record(HistId::ProfilerEpochNs, infer_ns + resolve_ns + publish_ns);
        t.registry().set_gauge(rolp_telemetry::GaugeId::DecisionVersion, version);

        if tracing {
            use rolp_trace::EventKind;
            let now = env.clock.now();
            for (action, size) in self.resolver.take_batch_log() {
                env.trace.emit_global(now, EventKind::ConflictBatch { action, size });
            }
            // The working set iterates sorted, so the event stream is
            // deterministic.
            for (&key, &gen) in &self.decisions {
                if decisions_before.get(&key) == Some(&gen) {
                    continue;
                }
                let from_gen = decisions_before.get(&key).copied().unwrap_or(0);
                let reason = if gen >= from_gen { "inferred" } else { "demoted" };
                env.trace.emit_global(
                    now,
                    EventKind::DecisionChange { context: key, from_gen, to_gen: gen, reason },
                );
            }
            if self.survivor.enabled() != survivor_before {
                env.trace.emit_global(
                    now,
                    EventKind::SurvivorTracking { enabled: self.survivor.enabled() },
                );
            }
            env.trace.emit_global(
                now,
                EventKind::ProfilerInference {
                    epoch: self.inferences + 1,
                    old_rows: self.old.touched_rows().len() as u64,
                    old_bytes: self.old.memory_bytes(),
                    new_conflicts,
                    unresolved_conflicts,
                    decisions: self.decisions.len() as u64,
                    demotions: self.demotions,
                },
            );
            env.trace.emit_global(
                now,
                EventKind::DecisionPublish {
                    version,
                    changed_rows: changed_rows as u64,
                    decisions: self.decisions.len() as u64,
                },
            );
            if self.epoch_blend_decays > 0 || self.epoch_blend_released > 0 {
                env.trace.emit_global(
                    now,
                    EventKind::ProfileBlend {
                        epoch: self.inferences + 1,
                        decayed: self.epoch_blend_decays,
                        released: self.epoch_blend_released,
                        remaining: self.imported.len() as u64,
                    },
                );
            }
        }

        self.old.clear_counts();
        self.inferences += 1;
    }

    /// Drains every thread's age-0 delta buffer into the OLD table:
    /// contexts are sorted and run-length encoded, then applied through
    /// [`LifetimeTable::record_allocations`] — one row lookup per distinct
    /// context instead of one per allocation. Age-0 increments commute, so the
    /// table state every safepoint-side reader sees is identical to the
    /// per-allocation path regardless of how threads interleaved since
    /// the last flush. Returns the number of records applied.
    pub fn flush_age0(&mut self) -> u64 {
        let mut batch: Vec<u32> = Vec::new();
        for buf in &mut self.pending_age0 {
            batch.append(buf);
        }
        if batch.is_empty() {
            return 0;
        }
        batch.sort_unstable();
        let total = batch.len() as u64;
        let mut i = 0;
        while i < batch.len() {
            let ctx = batch[i];
            let mut j = i + 1;
            while j < batch.len() && batch[j] == ctx {
                j += 1;
            }
            self.old.record_allocations(ctx, (j - i) as u32);
            i = j;
        }
        total
    }

    /// Age-0 records buffered since the last safepoint flush.
    pub fn pending_age0_records(&self) -> u64 {
        self.pending_age0.iter().map(|b| b.len() as u64).sum()
    }
}

impl<T: LifetimeTable> VmProfiler for RolpProfiler<T> {
    fn on_jit_compile(&mut self, program: &Program, jit: &mut JitState, method: MethodId) {
        // Keep the JIT's allocation-profiling gate in sync with the
        // governor state (idempotent; covers an `Off` start state before
        // the first transition ever fires).
        jit.set_alloc_profiling(!self.profiling_off);
        // Resolve the offline profile against the program once, with full
        // shape validation: entries whose location no longer resolves are
        // counted and skipped, never blindly applied (`--profile-in` lands
        // here).
        if self.pending_offline.is_none() {
            let resolved = match self.config.offline_profile.as_ref() {
                Some(p) => {
                    let r = p.resolve_validated(program);
                    self.import_validation = Some(r.validation);
                    self.import_pending_note = true;
                    if !r.call_sites.is_empty() {
                        // Re-freeze the exporting run's distinguishing
                        // call sites so conflicted contexts separate from
                        // epoch 0 instead of re-probing.
                        self.resolver.import_frozen(r.call_sites.iter().copied());
                        if self.config.level == ProfilingLevel::Real && !self.call_shed {
                            self.resolver.reapply_to_jit(jit);
                        }
                    }
                    r.decisions
                }
                None => HashMap::new(),
            };
            self.pending_offline = Some(resolved);
        }
        let decl = program.method(method);
        if !self.config.filters.matches(decl.package()) {
            return;
        }
        let mut warm_started = false;
        for &site in program.alloc_sites_of(method) {
            if let Some(pid) = jit.assign_profile_id(site) {
                self.pid_to_site.insert(pid, site);
                self.max_profile_id = self.max_profile_id.max(pid);
                // POLM2-style warm start: a matching offline entry becomes
                // a decision the moment the site is compiled, carrying its
                // confidence into the blend decay.
                if let Some(&(gen, conf)) = self.pending_offline.as_ref().and_then(|m| m.get(&site))
                {
                    let key = pack(pid, 0);
                    self.decisions.entry(key).or_insert(gen);
                    self.imported.insert(key, conf);
                    warm_started = true;
                }
            }
        }
        if warm_started {
            // Mid-epoch republish (no trace handle here): the allocation
            // fast path must see warm-start decisions immediately, not at
            // the next inference epoch.
            self.stage_publish();
        }
        if self.config.level == ProfilingLevel::SlowCallProfiling && !self.call_shed {
            for &cs in program.call_sites_of(method) {
                jit.enable_call_profiling(cs);
            }
        }
    }

    fn on_alloc(&mut self, site_profile_id: u16, tss: u16, thread: ThreadId) -> u32 {
        // `SitesOnly` and below: stack-state hashing is off, contexts are
        // site-id-only. A `TssCollision` fault instead forces every
        // context into one adversarial TSS row.
        let tss = if self.strip_tss { 0 } else { self.fault_tss.unwrap_or(tss) };
        let context = pack(site_profile_id, tss);
        // `Off` normally never reaches here (the JIT gate patches the
        // profiling instructions out); direct-driven calls still must not
        // feed the table.
        if !self.profiling_off {
            if self.config.batch_age0 {
                // Batched path: append to the thread's private delta
                // buffer; the shared table is untouched until the next
                // safepoint flush.
                let t = thread.0 as usize;
                if t >= self.pending_age0.len() {
                    self.pending_age0.resize_with(t + 1, Vec::new);
                }
                self.pending_age0[t].push(context);
            } else {
                self.old.record_allocation(context);
            }
            self.profiled_allocations += 1;
        }
        context
    }

    fn exception_hook_installed(&self) -> bool {
        self.config.exception_hook
    }

    fn on_unprofiled_alloc(&mut self) {
        self.unprofiled_allocations += 1;
    }
}

impl<T: LifetimeTable> GcHooks for RolpProfiler<T> {
    fn advise(&self, context: u32) -> Option<u8> {
        // One lock-free read of the published snapshot — the same data
        // plane the mutator fast path uses.
        self.store.load().advise(context)
    }

    fn survivor_tracking_enabled(&self) -> bool {
        self.survivor.enabled()
    }

    fn on_survivor(&mut self, header: ObjectHeader, from: RegionKind, worker: u32) {
        // Only young-generation survivals carry age information (see
        // `GcHooks::on_survivor`); tenured/dynamic copies are skipped.
        if !from.is_young() {
            return;
        }
        // Governor `Off`: the window's survivals carry no usable signal
        // (nothing was recorded at allocation), so skip the table work.
        if self.profiling_off {
            return;
        }
        // Biased-locked objects and corrupted contexts are discarded
        // (§3.2.2).
        let Some(context) = header.allocation_context() else {
            return;
        };
        if !self.old.context_known(context, self.max_profile_id) {
            return;
        }
        let idx = (worker as usize) % self.workers.len();
        self.workers[idx].record_survival(context, header.age());
        self.survivor_records += 1;
    }

    fn on_liveness(&mut self, context_live: &HashMap<u32, u64>) {
        self.liveness_history.push_back(context_live.clone());
        while self.liveness_history.len() > 6 {
            self.liveness_history.pop_front();
        }
    }

    fn on_gc_end(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        // Safepoint flush of the batched age-0 deltas — before anything
        // this pause reads from or merges into the OLD table.
        let flushed = self.flush_age0();
        if flushed > 0 {
            env.telemetry.bump(CounterId::Age0Flushed, flushed);
        }
        // Flush the import note recorded at JIT-compile time (no trace or
        // telemetry handle exists inside `on_jit_compile`).
        if self.import_pending_note {
            self.import_pending_note = false;
            if let Some(v) = self.import_validation {
                env.telemetry.bump(CounterId::ProfileEntriesImported, v.entries_applied as u64);
                if env.trace.is_enabled() {
                    env.trace.emit_global(
                        env.clock.now(),
                        rolp_trace::EventKind::ProfileImport {
                            entries: v.entries_total as u64,
                            applied: v.entries_applied as u64,
                            rejected: v.entries_rejected as u64,
                            call_sites: v.call_sites_applied as u64,
                            had_fingerprint: v.fingerprint_checked,
                            fingerprint_matched: v.fingerprint_matched,
                        },
                    );
                }
            }
        }
        // Fault injection (deterministic, seedable): applied at the
        // safepoint, before the merge, so every injected record is part of
        // the same epoch a real record of that cycle would land in.
        let cycle_faults = match self.faults.as_mut() {
            Some(f) => f.on_cycle(info.cycle),
            None => CycleFaults::default(),
        };
        if cycle_faults.exhaust_site_ids {
            env.jit.force_profile_id_exhaustion();
        }
        if cycle_faults.forced_tss.is_some() {
            self.fault_tss = cycle_faults.forced_tss;
        }
        for &ctx in &cycle_faults.flood_contexts {
            if !self.profiling_off {
                self.old.record_allocation(ctx);
            }
        }
        // Floods and bursts charge the governor's record budget whether or
        // not profiling is currently off — sustained pressure must keep a
        // degraded profiler degraded.
        let injected = cycle_faults.flood_contexts.len() as u64 + cycle_faults.burst_events;
        self.injected_records += injected;
        // The synthetic records stand in for record-path work the
        // simulation never executes, so their modeled cost lands in the
        // profiling bucket — that is what pushes the *measured* overhead
        // signal over budget under a pressure-spike plan.
        env.telemetry.add(Bucket::MutatorProfiling, injected * env.cost.profile_alloc_ns);

        // Pipeline stage 2 (§7.6): merge the GC workers' private tables at
        // the safepoint, sorted by (context, age) so the end-state is
        // independent of how survivor work was split across workers. A
        // `drop-merge` fault discards the workers' records instead; a
        // `delay-merge` fault leaves them buffered until the next cycle.
        let merge = if cycle_faults.drop_merge {
            let mut discard = OldTable::new();
            let dropped = crate::old_table::merge_worker_tables(&mut self.workers, &mut discard);
            self.dropped_merge_records += dropped.total;
            None
        } else if cycle_faults.delay_merge {
            self.delayed_merges += 1;
            None
        } else {
            Some(crate::old_table::merge_worker_tables(&mut self.workers, &mut self.old))
        };
        if let Some(merge) = &merge {
            // Modeled merge cost: the safepoint-side fold is priced per
            // record like the survivor path that produced them.
            env.telemetry.add(Bucket::ProfilerMerge, merge.total * env.cost.profile_survivor_ns);
            if env.trace.is_enabled() && merge.total > 0 {
                // Per-worker record counts, workers ≥ 8 folded into the
                // last slot (the event payload is fixed-size).
                let mut records = [0u64; 8];
                for (w, &n) in merge.per_worker.iter().enumerate() {
                    records[w.min(7)] += n;
                }
                env.trace.emit_global(
                    env.clock.now(),
                    rolp_trace::EventKind::OldTableMerge {
                        cycle: info.cycle,
                        workers: merge.per_worker.len() as u32,
                        records,
                        total_records: merge.total,
                    },
                );
            }
        }

        // §7.2.3: verify/repair every thread's stack state against the
        // real execution stack, while the world is still stopped.
        for t_idx in 0..env.threads.len() {
            let expected = {
                let t = &env.threads[t_idx];
                t.expected_tss(|cs| env.jit.call_site(cs).delta)
            };
            let t = &mut env.threads[t_idx];
            if t.tss != expected {
                t.reconcile_tss(expected);
                self.reconciliations += 1;
            }
        }

        self.window_pause_ms += info.duration.as_millis_f64();
        self.window_pauses += 1;

        // Pipeline stages 3–5: inference once every 16 GC cycles (§4).
        if info.cycle.is_multiple_of(self.config.inference_period) {
            self.run_inference(env, info);
        }

        // Flight recorder: publish the call-profiling toggles this cycle's
        // resolution (or a SlowCallProfiling compile) performed. Drained
        // after inference so the batch just enabled appears in-stream.
        if env.trace.is_enabled() {
            let now = env.clock.now();
            for (cs, enabled) in env.jit.take_toggle_log() {
                env.trace.emit_global(
                    now,
                    rolp_trace::EventKind::CallProfiling { call_site: cs.0, enabled },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_metrics::{PauseKind, SimTime};
    use rolp_vm::{CostModel, JitConfig, ProgramBuilder};

    fn env_with_program() -> (VmEnv, MethodId, AllocSiteId) {
        let mut b = ProgramBuilder::new();
        let m = b.method("app.data.Maker::make", 100, false);
        let site = b.alloc_site(m, 1);
        let program = b.build();
        let heap = rolp_heap::Heap::new(rolp_heap::HeapConfig {
            region_bytes: 4096,
            max_heap_bytes: 1 << 20,
        });
        let env = VmEnv::new(heap, CostModel::default(), program, JitConfig::default(), 1);
        (env, m, site)
    }

    fn cycle_info(cycle: u64) -> GcCycleInfo {
        GcCycleInfo {
            cycle,
            kind: PauseKind::Young,
            bytes_copied: 0,
            survivors: 0,
            duration: SimTime::from_millis(5),
            tenured_fragmentation: 0.0,
            dynamic_gen_garbage: [0.0; 16],
        }
    }

    #[test]
    fn jit_compile_assigns_profile_ids_respecting_filters() {
        let (mut env, m, site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);

        let mut p = RolpProfiler::new(RolpConfig {
            filters: PackageFilters::include(&["app.data"]),
            ..Default::default()
        });
        p.on_jit_compile(&program, &mut env.jit, m);
        assert!(env.jit.alloc_site(site).profile_id.is_some());

        let mut env2 = env_with_program().0;
        let mut p2 = RolpProfiler::new(RolpConfig {
            filters: PackageFilters::include(&["other.pkg"]),
            ..Default::default()
        });
        p2.on_jit_compile(&program, &mut env2.jit, m);
        assert!(env2.jit.alloc_site(site).profile_id.is_none(), "filtered out");
    }

    #[test]
    fn allocation_and_survival_produce_decisions() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig::default());
        p.on_jit_compile(&program, &mut env.jit, m);

        // Simulate 16 GC cycles where objects from this context reliably
        // survive two collections then die.
        let pid = 1u16;
        for cycle in 1..=16u64 {
            for _ in 0..20 {
                let ctx = p.on_alloc(pid, 0, ThreadId(0));
                // Each object survives twice.
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
                p.on_survivor(h.with_age(1), RegionKind::Eden, 1);
            }
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        assert_eq!(p.stats(&program, &env.jit).inferences, 1);
        let advised = p.advise(pack(pid, 0));
        assert_eq!(advised, Some(2), "objects dying at age 2 pretenure to gen 2");
    }

    #[test]
    fn four_guest_threads_reach_the_same_decisions() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig::default());
        p.on_jit_compile(&program, &mut env.jit, m);
        for cycle in 1..=16u64 {
            for i in 0..20u32 {
                let ctx = p.on_alloc(1, 0, ThreadId(i % 4));
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
                p.on_survivor(h.with_age(1), RegionKind::Eden, 1);
            }
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        assert_eq!(p.advise(pack(1, 0)), Some(2), "same verdict as one guest thread");
    }

    #[test]
    fn inference_publishes_versioned_snapshots() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig::default());
        p.on_jit_compile(&program, &mut env.jit, m);
        let store = p.decision_store();
        assert_eq!(store.version(), 0, "starts on the empty snapshot");
        assert_eq!(store.load().advise(pack(1, 0)), None);

        // A mutator pins the pre-epoch snapshot...
        let held = store.snapshot();

        for cycle in 1..=16u64 {
            for _ in 0..20 {
                let ctx = p.on_alloc(1, 0, ThreadId(0));
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
                p.on_survivor(h.with_age(1), RegionKind::Eden, 1);
            }
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }

        // ...the epoch published version 1 with the new decision...
        assert_eq!(store.version(), 1);
        assert_eq!(store.load().advise(pack(1, 0)), Some(2));
        assert!(store.load().changed_rows() >= 1);
        // ...while the held snapshot still reads the old, consistent view.
        assert_eq!(held.version(), 0);
        assert_eq!(held.advise(pack(1, 0)), None);
    }

    #[test]
    fn survivors_with_biased_headers_are_discarded() {
        let (_env, _m, _site) = env_with_program();
        let mut p = RolpProfiler::new(RolpConfig::default());
        let ctx = p.on_alloc(1, 0, ThreadId(0));
        let biased = ObjectHeader::new(1).with_allocation_context(ctx).with_bias(3);
        p.on_survivor(biased, RegionKind::Eden, 0);
        assert_eq!(p.survivor_records, 0);
    }

    #[test]
    fn unknown_contexts_are_discarded() {
        let mut p = RolpProfiler::new(RolpConfig::default());
        // No profile id was ever assigned; upper bits look like garbage.
        let h = ObjectHeader::new(1).with_allocation_context(pack(999, 4));
        p.on_survivor(h, RegionKind::Eden, 0);
        assert_eq!(p.survivor_records, 0);
    }

    #[test]
    fn gc_end_reconciles_corrupted_stack_state() {
        let (mut env, _m, _site) = env_with_program();
        let mut p = RolpProfiler::new(RolpConfig::default());
        // Corrupt thread 0's TSS with no frames on its stack.
        env.threads[0].tss = 1234;
        p.on_gc_end(&mut env, &cycle_info(1));
        assert_eq!(env.threads[0].tss, 0);
        assert_eq!(p.reconciliations, 1);
    }

    #[test]
    fn fragmentation_demotes_estimates() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig::default());
        p.on_jit_compile(&program, &mut env.jit, m);

        // Build a decision for generation 5 (objects die at age 5).
        for cycle in 1..=16u64 {
            for _ in 0..20 {
                let ctx = p.on_alloc(1, 0, ThreadId(0));
                let mut h = ObjectHeader::new(1).with_allocation_context(ctx);
                for age in 0..5 {
                    p.on_survivor(h, RegionKind::Eden, 0);
                    h = h.with_age(age + 1);
                }
            }
            let mut info = cycle_info(cycle);
            if cycle == 16 {
                // Fragmentation in generation 5 on the inference cycle.
                info.tenured_fragmentation = 0.8;
                info.dynamic_gen_garbage[5] = 0.9;
            }
            p.on_gc_end(&mut env, &info);
        }
        assert_eq!(p.advise(pack(1, 0)), Some(4), "demoted from 5 to 4");
        assert!(p.demotions >= 1);
    }

    #[test]
    fn survivor_tracking_shuts_down_when_stable() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig::default());
        p.on_jit_compile(&program, &mut env.jit, m);
        assert!(p.survivor_tracking_enabled());

        // Three inference rounds with identical, *non-empty* decisions:
        // objects from one context reliably survive once.
        for cycle in 1..=48u64 {
            for _ in 0..10 {
                let ctx = p.on_alloc(1, 0, ThreadId(0));
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
            }
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        assert!(!p.survivor_tracking_enabled());
        let stats = p.stats(&program, &env.jit);
        assert_eq!(stats.survivor_shutdowns, 1);
        assert!(stats.decisions > 0, "frozen decisions survive the shutdown");
    }

    fn tight_governor() -> GovernorConfig {
        GovernorConfig {
            max_record_events_per_epoch: 10,
            calm_epochs_to_recover: 2,
            ..Default::default()
        }
    }

    /// One hot epoch: 20 allocations surviving twice per cycle.
    fn drive_hot_epoch(
        p: &mut RolpProfiler,
        env: &mut VmEnv,
        cycles: std::ops::RangeInclusive<u64>,
    ) {
        for cycle in cycles {
            for _ in 0..20 {
                let ctx = p.on_alloc(1, 0, ThreadId(0));
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
                p.on_survivor(h.with_age(1), RegionKind::Eden, 1);
            }
            p.on_gc_end(env, &cycle_info(cycle));
        }
    }

    #[test]
    fn governor_degrades_to_off_then_recovers_without_remapping() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig {
            governor: Some(tight_governor()),
            survivor_shutdown: false,
            ..Default::default()
        });
        p.on_jit_compile(&program, &mut env.jit, m);

        // Epoch 1 learns the decision *and* blows the record budget.
        drive_hot_epoch(&mut p, &mut env, 1..=16);
        assert_eq!(p.governor_state(), Some(GovernorState::Reduced));
        assert_eq!(p.advise(pack(1, 0)), Some(2), "decision published before degrading further");

        // Two more hot epochs walk the machine down to Off.
        drive_hot_epoch(&mut p, &mut env, 17..=48);
        assert_eq!(p.governor_state(), Some(GovernorState::Off));
        assert!(!env.jit.alloc_profiling_enabled(), "fast path gated in Off");
        assert_eq!(p.advise(pack(1, 0)), None, "Off publishes the all-gen-0 table");
        assert!(!p.decisions().is_empty(), "working set retained for recovery");

        // Calm epochs: hysteresis climbs back and republishes the same
        // decision — the context was demoted, never remapped.
        for cycle in 49..=80u64 {
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        assert!(p.governor_state() < Some(GovernorState::Off));
        assert!(env.jit.alloc_profiling_enabled());
        assert_eq!(p.advise(pack(1, 0)), Some(2), "same decision back after recovery");
        let stats = p.stats(&program, &env.jit);
        assert!(stats.governor_transitions >= 4);
        assert_eq!(stats.governor_state, Some(p.governor_state().unwrap().label()));
    }

    #[test]
    fn sites_only_state_strips_the_stack_state_hash() {
        let (_env, _m, _site) = env_with_program();
        let mut p = RolpProfiler::new(RolpConfig {
            governor: Some(GovernorConfig {
                start_state: GovernorState::SitesOnly,
                ..Default::default()
            }),
            ..Default::default()
        });
        assert_eq!(p.on_alloc(7, 0x1234, ThreadId(0)), pack(7, 0), "TSS forced to 0");
    }

    #[test]
    fn fault_plan_forces_id_exhaustion_and_tss_collisions() {
        use rolp_faults::{FaultKind, FaultPlan};
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig {
            fault_plan: Some(FaultPlan {
                name: "test".into(),
                seed: 1,
                faults: vec![
                    FaultKind::SiteIdExhaustion { at_cycle: 1 },
                    FaultKind::TssCollision { from_cycle: 2, tss: 0xAA },
                ],
            }),
            ..Default::default()
        });
        p.on_jit_compile(&program, &mut env.jit, m);
        p.on_gc_end(&mut env, &cycle_info(1));
        assert!(env.jit.profile_ids_exhausted());
        p.on_gc_end(&mut env, &cycle_info(2));
        assert_eq!(p.on_alloc(1, 0x5555, ThreadId(0)), pack(1, 0xAA), "collided TSS is sticky");
    }

    #[test]
    fn merge_chaos_drops_and_delays_without_panicking() {
        use rolp_faults::FaultPlan;
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(RolpConfig {
            fault_plan: Some(FaultPlan::named("merge-chaos").unwrap()),
            governor: Some(GovernorConfig::default()),
            ..Default::default()
        });
        p.on_jit_compile(&program, &mut env.jit, m);
        drive_hot_epoch(&mut p, &mut env, 1..=64);
        let stats = p.stats(&program, &env.jit);
        assert!(stats.dropped_merge_records > 0, "drop-merge%3 fired");
        assert!(stats.delayed_merges > 0, "delay-merge%5 fired");
        assert!(stats.injected_fault_events > 0, "burst charged the record budget");
        assert!(stats.governor_state.is_some());
    }

    #[test]
    fn imported_profile_warm_starts_with_validation() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let profile: crate::offline::DecisionProfile = format!(
            "rolp-profile-v1\nfingerprint {:016x}\nepochs 5\nentries 2\n\
             decision app.data.Maker::make@1 5 80\ndecision gone.Method::x@9 3 50\n",
            crate::offline::program_fingerprint(&program)
        )
        .parse()
        .unwrap();
        let mut p =
            RolpProfiler::new(RolpConfig { offline_profile: Some(profile), ..Default::default() });
        p.on_jit_compile(&program, &mut env.jit, m);
        assert_eq!(p.advise(pack(1, 0)), Some(5), "published before the first epoch");
        let v = p.import_validation().expect("validated at first compile");
        assert!(v.fingerprint_checked && v.fingerprint_matched);
        assert_eq!(v.entries_applied, 1);
        assert_eq!(v.entries_rejected, 1, "the stale entry was rejected, not applied");
        assert_eq!(p.confidence_of(pack(1, 0)), 80);

        // A quiet run never changes the published table: stable from
        // epoch 0.
        for cycle in 1..=32u64 {
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        let stats = p.stats(&program, &env.jit);
        assert_eq!(stats.last_change_epoch, 0, "warm start is stable from epoch 0");
        assert_eq!(stats.profile_rows_active, 1);
        assert_eq!(stats.profile_import.unwrap().entries_applied, 1);
    }

    #[test]
    fn blend_decay_releases_drifted_imported_rows() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let profile: crate::offline::DecisionProfile =
            "rolp-profile-v1\nentries 1\ndecision app.data.Maker::make@1 5 40\n".parse().unwrap();
        let mut p =
            RolpProfiler::new(RolpConfig { offline_profile: Some(profile), ..Default::default() });
        p.on_jit_compile(&program, &mut env.jit, m);
        assert_eq!(p.advise(pack(1, 0)), Some(5));

        // One epoch = one inference window (16 cycles). Each epoch sees
        // well over 2*CANARY_STRIDE allocations from the imported
        // context, so the canary sample is large enough to count as
        // evidence; `surviving_canaries` is how many of them live past
        // their first young collection.
        let mut cycle = 0u64;
        let mut drive_epoch = |p: &mut RolpProfiler, env: &mut VmEnv, surviving_canaries: u32| {
            for _ in 0..16 {
                cycle += 1;
                for i in 0..20u32 {
                    let ctx = p.on_alloc(1, 0, ThreadId(0));
                    if cycle % 16 == 1 && i < surviving_canaries {
                        let h = ObjectHeader::new(1).with_allocation_context(ctx);
                        p.on_survivor(h, RegionKind::Eden, 0);
                    }
                }
                p.on_gc_end(env, &cycle_info(cycle));
            }
        };

        // Matching traffic: canaries survive, so the prior is confirmed
        // and its confidence restored to full.
        drive_epoch(&mut p, &mut env, 3);
        assert_eq!(p.confidence_of(pack(1, 0)), crate::offline::DEFAULT_CONFIDENCE);
        assert_eq!(p.stats(&program, &env.jit).profile_blend_decays, 0);

        // Drifted traffic: every canary dies before its first
        // collection. 100 -> 50 -> 25 -> 12 (< floor): released on the
        // third contradicting epoch.
        drive_epoch(&mut p, &mut env, 0);
        drive_epoch(&mut p, &mut env, 0);
        assert_eq!(p.advise(pack(1, 0)), Some(5), "still holding the prior");
        drive_epoch(&mut p, &mut env, 0);
        assert_eq!(p.advise(pack(1, 0)), None, "released: the row is live inference's again");
        let stats = p.stats(&program, &env.jit);
        assert_eq!(stats.profile_blend_decays, 3);
        assert_eq!(stats.profile_rows_released, 1);
        assert_eq!(stats.profile_rows_active, 0);
        assert_eq!(stats.last_change_epoch, 4, "the release changed the table");
    }

    /// A prior confirmed for `CONFIRMATIONS_TO_GRADUATE` consecutive
    /// epochs graduates out of probation: the canary flag is dropped,
    /// the decision stays, survivor tracking is free to shut down again
    /// (§7.4), and none of it counts as a table change.
    #[test]
    fn confirmed_priors_graduate_to_full_trust() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let profile: crate::offline::DecisionProfile =
            "rolp-profile-v1\nentries 1\ndecision app.data.Maker::make@1 5 100\n".parse().unwrap();
        let mut p =
            RolpProfiler::new(RolpConfig { offline_profile: Some(profile), ..Default::default() });
        p.on_jit_compile(&program, &mut env.jit, m);
        assert!(p.store.load().is_canary(pack(1, 0)), "probationary rows are canary-flagged");

        // Confirming traffic: every epoch some canaries survive their
        // first young collection.
        let mut cycle = 0u64;
        for _ in 0..CONFIRMATIONS_TO_GRADUATE {
            for _ in 0..16 {
                cycle += 1;
                for i in 0..20u32 {
                    let ctx = p.on_alloc(1, 0, ThreadId(0));
                    if i < 3 {
                        let h = ObjectHeader::new(1).with_allocation_context(ctx);
                        p.on_survivor(h, RegionKind::Eden, 0);
                    }
                }
                p.on_gc_end(&mut env, &cycle_info(cycle));
            }
        }
        assert_eq!(p.advise(pack(1, 0)), Some(5), "the graduated prior still governs");
        assert!(!p.store.load().is_canary(pack(1, 0)), "graduation drops the canary flag");
        assert!(!p.any_probationary(), "nothing left to probe -> §7.4 shutdown applies again");
        let stats = p.stats(&program, &env.jit);
        assert_eq!(stats.profile_rows_graduated, 1);
        assert_eq!(stats.profile_rows_active, 1, "graduated rows still count as active");
        assert_eq!(stats.profile_blend_decays, 0);
        assert_eq!(stats.last_change_epoch, 0, "graduation is not a table change");
    }

    /// A generation-0 prior says the object dies around its first
    /// collection — surviving canaries are structurally not expected, so
    /// zero survivals cannot contradict it and the row must never decay
    /// (a warm start importing such a row stays stable from epoch 0).
    #[test]
    fn generation_zero_priors_are_exempt_from_canary_decay() {
        let (mut env, m, _site) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let profile: crate::offline::DecisionProfile =
            "rolp-profile-v1\nentries 1\ndecision app.data.Maker::make@1 0 100\n".parse().unwrap();
        let mut p =
            RolpProfiler::new(RolpConfig { offline_profile: Some(profile), ..Default::default() });
        p.on_jit_compile(&program, &mut env.jit, m);
        assert_eq!(p.advise(pack(1, 0)), Some(0));
        assert!(!p.store.load().is_canary(pack(1, 0)), "gen-0 rows are not canary-flagged");

        // Heavy allocation with zero survivals, epoch after epoch — the
        // evidence that releases a gen>=1 prior.
        let mut cycle = 0u64;
        for _ in 0..4 {
            for _ in 0..16 {
                cycle += 1;
                for _ in 0..20 {
                    p.on_alloc(1, 0, ThreadId(0));
                }
                p.on_gc_end(&mut env, &cycle_info(cycle));
            }
        }
        assert_eq!(p.advise(pack(1, 0)), Some(0), "the gen-0 prior holds");
        let stats = p.stats(&program, &env.jit);
        assert_eq!(stats.profile_blend_decays, 0);
        assert_eq!(stats.profile_rows_released, 0);
        assert_eq!(stats.profile_rows_active, 1);
        assert_eq!(stats.last_change_epoch, 0, "stable from epoch 0");
    }

    #[test]
    fn empty_decisions_never_shut_tracking_down() {
        let (mut env, _m, _site) = env_with_program();
        let mut p = RolpProfiler::new(RolpConfig::default());
        for cycle in 1..=64u64 {
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        assert!(p.survivor_tracking_enabled(), "no decisions -> keep learning");
        let program = std::rc::Rc::clone(&env.program);
        assert_eq!(p.stats(&program, &env.jit).survivor_shutdowns, 0);
    }
}
