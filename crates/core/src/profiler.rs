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
//! The profiler is a thin shell around one explicit pipeline:
//!
//! 1. **record** — mutators bump age-0 cells ([`VmProfiler::on_alloc`]);
//!    the collector buffers survivals into one [`WorkerTable`]
//!    ([`GcHooks::on_survivor`]).
//! 2. **safepoint merge** — every pause ends with the sorted merge of
//!    that buffer and the §7.2.3 stack-state reconciliation
//!    ([`GcHooks::on_gc_end`]).
//! 3. **infer** — every [`RolpConfig::inference_period`] cycles, classify
//!    the touched rows ([`crate::inference::infer`], §4).
//! 4. **learn** — expand conflicted sites (§7.5) and engage the call-site
//!    resolver (§5); then the pure [`crate::inference::learn`] step folds
//!    the verdicts into the decision working set and applies §6 demotion,
//!    and [`crate::warm_start`] decays imported priors on live evidence.
//! 5. **publish** — compile the working set into an immutable, versioned
//!    `DecisionTable` snapshot and replace the current table of the
//!    shared [`DecisionStore`], where the mutator allocation path and the
//!    GC's pretenuring placement read it.
//!
//! The working set itself is a sorted map keyed by table row key; the
//! flat-array snapshot is rebuilt from it at each publication, so readers
//! never observe a half-updated epoch.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use rolp_gc::{GcCycleInfo, GcHooks};
use rolp_heap::{ObjectHeader, RegionKind};
use rolp_telemetry::{Bucket, CounterId, HistId};
use rolp_vm::{
    AllocSiteId, CallSiteId, DecisionStore, DecisionTable, JitState, MethodId, Program, ThreadId,
    VmEnv, VmProfiler,
};

use crate::conflicts::{ConflictResolver, ConflictStats};
use crate::context::{context_known, pack};
use crate::filters::PackageFilters;
use crate::inference::{quantile_age, InferenceOutcome, DECISION_QUANTILE};
use crate::offline::ProfileValidation;
use crate::old_table::{OldTable, WorkerTable};
use crate::survivor::SurvivorTracking;
use crate::warm_start::{BlendEpoch, WarmStart};

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
    /// Survivor-tracking shutdown enabled (§7.4).
    pub survivor_shutdown: bool,
    /// Optional offline decision profile (POLM2-style warm start; see
    /// [`crate::warm_start`]). Matching allocation sites start pretenuring
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
}

impl Default for RolpConfig {
    fn default() -> Self {
        RolpConfig {
            level: ProfilingLevel::Real,
            filters: PackageFilters::all(),
            inference_period: 16,
            survivor_shutdown: true,
            offline_profile: None,
            blend: true,
            seed: 0x0517,
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
    /// Profile-id requests refused after the 16-bit id space saturated.
    pub profile_id_overflows: u64,
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
/// thread count. Kept only because `rolpbench/src/trace.rs` names
/// `RolpProfiler<TableBackend>`; it goes with the rolpbench update
/// planned under ROADMAP's "Two clocks" item.
pub type TableBackend = OldTable;

/// The runtime object lifetime profiler (see the module-level pipeline
/// description). It always profiles into an [`OldTable`]. The unbounded
/// `T` is kept only because `rolpbench/src/trace.rs` names
/// `RolpProfiler<TableBackend>`; it goes with the rolpbench update
/// planned under ROADMAP's "Two clocks" item.
pub struct RolpProfiler<T = OldTable> {
    config: RolpConfig,
    /// The global OLD table.
    pub old: T,
    /// Survival records buffered during a pause, merged into `old` at
    /// the safepoint ending it (§5.2).
    survivors: WorkerTable,
    resolver: ConflictResolver,
    /// Decision working set: row key → estimated lifetime (target
    /// generation). Safepoint-side only; readers use the published
    /// snapshot in [`RolpProfiler::decision_store`].
    decisions: BTreeMap<u32, u8>,
    /// The publication point for decision snapshots.
    store: Rc<DecisionStore>,
    survivor: SurvivorTracking,
    /// Profile id → allocation site (for leak reports and diagnostics).
    pub(crate) pid_to_site: HashMap<u16, AllocSiteId>,
    /// Recent per-context live-object censuses from marking passes,
    /// oldest first (the §2.2 leak-detection signal).
    pub(crate) liveness_history: VecDeque<HashMap<u32, u64>>,
    /// The imported offline profile and its blend state.
    pub(crate) warm: WarmStart,
    max_profile_id: u16,
    // counters
    profiled_allocations: u64,
    unprofiled_allocations: u64,
    survivor_records: u64,
    reconciliations: u64,
    demotions: u64,
    inferences: u64,
    /// Inference epoch that last changed the published decision table.
    last_change_epoch: u64,
}

impl RolpProfiler {
    /// Creates a profiler on a fresh OLD table.
    pub fn new(config: RolpConfig) -> Self {
        let old = OldTable::new();
        let geometry = *old.geometry();
        let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(
            geometry.site_rows(),
            geometry.tss_rows(),
        ));
        RolpProfiler {
            old,
            survivors: WorkerTable::new(),
            resolver: ConflictResolver::new(config.seed),
            decisions: BTreeMap::new(),
            store: Rc::new(store),
            survivor: SurvivorTracking::new(),
            pid_to_site: HashMap::new(),
            liveness_history: VecDeque::new(),
            warm: WarmStart::default(),
            max_profile_id: 0,
            profiled_allocations: 0,
            unprofiled_allocations: 0,
            survivor_records: 0,
            reconciliations: 0,
            demotions: 0,
            inferences: 0,
            last_change_epoch: 0,
            config,
        }
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

    /// The shared publication point for decision snapshots: the mutator
    /// allocation path and the GC's pretenuring placement read it; this
    /// profiler publishes a new version at the end of each inference
    /// epoch (and on offline warm starts).
    pub fn decision_store(&self) -> Rc<DecisionStore> {
        Rc::clone(&self.store)
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
            profile_id_overflows: jit.profile_id_overflows(),
            profile_import: self.warm.validation,
            profile_blend_decays: self.warm.decays,
            profile_rows_released: self.warm.released,
            profile_rows_active: self.warm.rows_active(),
            profile_rows_graduated: self.warm.graduated,
            last_change_epoch: self.last_change_epoch,
        }
    }

    /// Pipeline stage 4, before the resolver: a fresh conflict on a site
    /// whose method one declared call path reaches cannot be split by any
    /// call site, so it always leaves `new_conflicts`: no expansion, no
    /// probe. If its row holds no decision yet, the lifetime estimator
    /// ([`DECISION_QUANTILE`]) decides it; a decided row that turns
    /// multimodal again keeps its decision (DESIGN §6 item 9).
    fn decide_single_path(&mut self, program: &Program, outcome: &mut InferenceOutcome) {
        let mut conflicts = std::mem::take(&mut outcome.new_conflicts);
        conflicts.retain(|&site| {
            let single = self
                .pid_to_site
                .get(&site)
                .is_some_and(|&alloc| program.single_call_path(program.alloc_site(alloc).method));
            if single {
                // Scaled geometries mask the site, so key by the table's row.
                let key = self.old.row_key(pack(site, 0));
                if !self.decisions.contains_key(&key) {
                    let age = quantile_age(&self.old.histogram(key), DECISION_QUANTILE);
                    outcome.decisions.push((key, age));
                }
                self.resolver.note_single_path(site);
            }
            !single
        });
        outcome.new_conflicts = conflicts;
    }

    /// Pipeline stage 4, first half: grow the table for fresh conflicts
    /// (§7.5) and engage the §5 resolver.
    fn resolve_conflicts(&mut self, env: &mut VmEnv, outcome: &InferenceOutcome) {
        for &site in &outcome.new_conflicts {
            self.old.expand_site(site);
        }
        if self.config.level == ProfilingLevel::Real {
            let program = std::rc::Rc::clone(&env.program);
            self.resolver.on_inference(
                &program,
                &mut env.jit,
                &outcome.new_conflicts,
                &outcome.unresolved_conflicts,
            );
        } else {
            // Other levels only count conflicts; no resolution.
            self.resolver.note_detected_only(&outcome.new_conflicts);
        }
    }

    /// Pipeline stage 5: compile the working set into the next immutable
    /// snapshot and publish it. Returns `(version,
    /// changed_rows)`. Probationary imported rows are published
    /// canary-flagged (unless blending is off), so the allocation fast
    /// path keeps a small young-generation sample flowing for the blend
    /// decay to judge them by.
    fn publish(&self) -> (u64, u32) {
        let rows = &self.decisions;
        let expanded = self.old.expanded_sites();
        let blend = self.config.blend;
        let warm = &self.warm;
        let next = DecisionTable::next_from_blended(&self.store.load(), rows, expanded, |key| {
            blend && warm.is_probationary(key, rows)
        });
        let changed = next.changed_rows();
        (self.store.publish(next), changed)
    }

    /// Runs one inference epoch: infer → learn → publish, plus
    /// the §7.4 survivor switch and the end-of-epoch table clear.
    fn run_inference(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        let tracing = env.trace.is_enabled();
        let decisions_before = if tracing { self.decisions.clone() } else { BTreeMap::new() };
        let survivor_before = self.survivor.enabled();
        let mut new_conflicts = 0u64;
        let mut unresolved_conflicts = 0u64;

        // With survivor tracking off (§7.4), the window's table holds only
        // age-0 allocation counts — no lifetime information. Decisions are
        // left frozen (the workload was judged stable) and conflict
        // machinery idles; only the pause-growth reactivation check runs.
        let tracking_active = self.survivor.enabled() || !self.config.survivor_shutdown;

        // Modeled stage costs (the inference pipeline runs at safepoints
        // and does not advance the simulated clock, so these buckets are
        // `Bucket::is_modeled`: work counts priced by the cost model).
        let mut infer_ns = 0u64;
        let mut resolve_ns = 0u64;

        if tracking_active {
            let touched = self.old.touched_rows().len() as u64;
            let mut outcome = crate::inference::infer(&self.old);
            self.decide_single_path(&env.program, &mut outcome);
            new_conflicts = outcome.new_conflicts.len() as u64;
            unresolved_conflicts = outcome.unresolved_conflicts.len() as u64;
            infer_ns = touched * env.cost.profile_alloc_ns;
            resolve_ns = (new_conflicts + unresolved_conflicts) * env.cost.profile_call_slow_ns;
            self.resolve_conflicts(env, &outcome);
            let warm = &self.warm;
            self.demotions += crate::inference::learn(
                &outcome,
                &mut self.decisions,
                |key| warm.holds(key),
                info.tenured_fragmentation,
                &info.dynamic_gen_garbage,
            );
        }

        let blend = if tracking_active && self.config.blend {
            self.warm.decay(&self.old, &mut self.decisions)
        } else {
            BlendEpoch::default()
        };

        // §7.4: stable (non-trivial) decisions → survivor tracking off;
        // >10% average-pause growth while off → back on. Never shut down
        // while a conflict is still being resolved — the resolver needs
        // age data to judge its probing batches — nor while blended
        // imported priors remain: their canary samples are the only live
        // evidence the decay has, and it flows through the survivor path.
        let eligible = self.config.survivor_shutdown
            && !self.decisions.is_empty()
            && self.resolver.open_conflicts() == 0
            && (!self.config.blend || !self.warm.any_probationary(&self.decisions));
        let decisions_hash = eligible.then(|| {
            let sorted: Vec<(u32, u8)> = self.decisions.iter().map(|(&k, &v)| (k, v)).collect();
            SurvivorTracking::hash_decisions(&sorted)
        });
        self.survivor.on_inference(decisions_hash);

        let (version, changed_rows) = self.publish();
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
        if blend.decayed > 0 {
            t.bump(CounterId::ProfileBlendDecays, blend.decayed);
        }
        t.record(HistId::ProfilerEpochNs, infer_ns + resolve_ns + publish_ns);
        t.set_gauge(rolp_telemetry::GaugeId::DecisionVersion, version);

        if tracing {
            use rolp_trace::EventKind;
            let now = env.clock.now();
            for (action, size) in self.resolver.take_batch_log() {
                env.trace.emit_global(now, EventKind::ConflictBatch { action, size });
            }
            // Both maps iterate sorted, so the event stream is
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
            // Only the blend decay removes rows from the working set.
            for (&key, &from_gen) in &decisions_before {
                if !self.decisions.contains_key(&key) {
                    env.trace.emit_global(
                        now,
                        EventKind::DecisionChange {
                            context: key,
                            from_gen,
                            to_gen: 0,
                            reason: "released",
                        },
                    );
                }
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
            if blend.decayed > 0 || blend.released > 0 {
                env.trace.emit_global(
                    now,
                    EventKind::ProfileBlend {
                        epoch: self.inferences + 1,
                        decayed: blend.decayed,
                        released: blend.released,
                        remaining: blend.remaining,
                    },
                );
            }
        }

        self.old.clear_counts();
        self.inferences += 1;
    }
}

impl VmProfiler for RolpProfiler {
    fn on_jit_compile(&mut self, program: &Program, jit: &mut JitState, method: MethodId) {
        // Resolve the offline profile against the program once, with full
        // shape validation: entries whose location no longer resolves are
        // counted and skipped, never blindly applied (`--profile-in` lands
        // here).
        let call_sites = self.warm.resolve_once(self.config.offline_profile.as_ref(), program);
        if !call_sites.is_empty() {
            // Re-freeze the exporting run's distinguishing call sites so
            // conflicted contexts separate from epoch 0 instead of
            // re-probing.
            self.resolver.import_frozen(call_sites);
            if self.config.level == ProfilingLevel::Real {
                self.resolver.reapply_to_jit(jit);
            }
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
                // a decision the moment the site is compiled.
                warm_started |= self.warm.seed(site, pack(pid, 0), &mut self.decisions);
            }
        }
        if warm_started {
            // Mid-epoch republish (no trace handle here): the allocation
            // fast path must see warm-start decisions immediately, not at
            // the next inference epoch.
            self.publish();
        }
        if self.config.level == ProfilingLevel::SlowCallProfiling {
            for &cs in program.call_sites_of(method) {
                jit.enable_call_profiling(cs);
            }
        }
    }

    fn on_alloc(&mut self, site_profile_id: u16, tss: u16, _thread: ThreadId) -> u32 {
        let context = pack(site_profile_id, tss);
        self.old.record_allocation(context);
        self.profiled_allocations += 1;
        context
    }

    fn on_unprofiled_alloc(&mut self) {
        self.unprofiled_allocations += 1;
    }
}

impl GcHooks for RolpProfiler {
    fn advise(&self, context: u32) -> Option<u8> {
        // One read of the published snapshot — the same data plane the
        // mutator fast path uses.
        self.store.load().advise(context)
    }

    fn survivor_tracking_enabled(&self) -> bool {
        self.survivor.enabled()
    }

    fn on_survivor(&mut self, header: ObjectHeader, from: RegionKind, _worker: u32) {
        // Only young-generation survivals carry age information (see
        // `GcHooks::on_survivor`); tenured/dynamic copies are skipped.
        if !from.is_young() {
            return;
        }
        // Biased-locked objects and corrupted contexts are discarded
        // (§3.2.2).
        let Some(context) = header.allocation_context() else {
            return;
        };
        if !context_known(context, self.max_profile_id) {
            return;
        }
        self.survivors.record_survival(context, header.age());
        self.survivor_records += 1;
    }

    fn on_liveness(&mut self, context_live: &HashMap<u32, u64>) {
        self.liveness_history.push_back(context_live.clone());
        while self.liveness_history.len() > 6 {
            self.liveness_history.pop_front();
        }
    }

    fn on_gc_end(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        // Flush the import note recorded at JIT-compile time (no trace or
        // telemetry handle exists inside `on_jit_compile`).
        if let Some(v) = self.warm.take_import_note() {
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
        // Pipeline stage 2 (§7.6): merge the pause's survival records at
        // the safepoint, sorted by (context, age).
        let merged = self.old.merge_survivals(&mut self.survivors);
        // Modeled merge cost: the safepoint-side fold is priced per
        // record like the survivor path that produced them.
        env.telemetry.add(Bucket::ProfilerMerge, merged * env.cost.profile_survivor_ns);
        if env.trace.is_enabled() && merged > 0 {
            env.trace.emit_global(
                env.clock.now(),
                rolp_trace::EventKind::OldTableMerge { cycle: info.cycle, total_records: merged },
            );
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

        self.survivor.record_pause(info.duration.as_millis_f64());

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

    fn env_with_program() -> (VmEnv, MethodId) {
        let mut b = ProgramBuilder::new();
        let m = b.method("app.data.Maker::make", 100, false);
        b.alloc_site(m, 1);
        let program = b.build();
        let heap = rolp_heap::Heap::new(rolp_heap::HeapConfig {
            region_bytes: 4096,
            max_heap_bytes: 1 << 20,
        });
        let env = VmEnv::new(heap, CostModel::default(), program, JitConfig::default(), 1);
        (env, m)
    }

    /// The one-site program's VM and a profiler on `config` that has
    /// compiled its method (the site gets profile id 1).
    fn compiled(config: RolpConfig) -> (VmEnv, RolpProfiler) {
        let (mut env, m) = env_with_program();
        let program = std::rc::Rc::clone(&env.program);
        let mut p = RolpProfiler::new(config);
        p.on_jit_compile(&program, &mut env.jit, m);
        (env, p)
    }

    /// A profiler warm-started from one imported entry for the site.
    fn warm(gen: u8, confidence: u8) -> (VmEnv, RolpProfiler) {
        let profile = format!(
            "rolp-profile-v1\nentries 1\ndecision app.data.Maker::make@1 {gen} {confidence}\n"
        );
        let profile = Some(profile.parse().expect("valid profile"));
        compiled(RolpConfig { offline_profile: profile, ..Default::default() })
    }

    fn stats(p: &RolpProfiler, env: &VmEnv) -> RolpStats {
        p.stats(&env.program, &env.jit)
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

    /// Hot cycles: 20 allocations per cycle from context `pack(1, 0)`,
    /// spread over `threads` guest threads, each surviving two
    /// collections then dying.
    fn drive_hot(
        p: &mut RolpProfiler,
        env: &mut VmEnv,
        cycles: std::ops::RangeInclusive<u64>,
        threads: u32,
    ) {
        for cycle in cycles {
            for i in 0..20u32 {
                let ctx = p.on_alloc(1, 0, ThreadId(i % threads));
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
                p.on_survivor(h.with_age(1), RegionKind::Eden, 1);
            }
            p.on_gc_end(env, &cycle_info(cycle));
        }
    }

    /// One inference window (16 cycles) of an imported context's traffic.
    /// Each epoch sees well over 2*CANARY_STRIDE allocations, so the
    /// canary sample is large enough to count as evidence;
    /// `surviving_canaries` is how many of them live past their first
    /// young collection.
    fn drive_canary_epoch(p: &mut RolpProfiler, env: &mut VmEnv, surviving_canaries: u32) {
        let first = p.inferences() * 16 + 1;
        for cycle in first..first + 16 {
            for i in 0..20u32 {
                let ctx = p.on_alloc(1, 0, ThreadId(0));
                if cycle == first && i < surviving_canaries {
                    let h = ObjectHeader::new(1).with_allocation_context(ctx);
                    p.on_survivor(h, RegionKind::Eden, 0);
                }
            }
            p.on_gc_end(env, &cycle_info(cycle));
        }
    }

    #[test]
    fn jit_compile_assigns_profile_ids_respecting_filters() {
        let filtered = |package| {
            let filters = PackageFilters::include(&[package]);
            let (env, _) = compiled(RolpConfig { filters, ..Default::default() });
            env.jit.alloc_site(AllocSiteId(0)).profile_id.is_none()
        };
        assert!(!filtered("app.data"));
        assert!(filtered("other.pkg"), "filtered out");
    }

    #[test]
    fn allocation_and_survival_produce_decisions() {
        let (mut env, mut p) = compiled(RolpConfig::default());
        drive_hot(&mut p, &mut env, 1..=16, 1);
        assert_eq!(stats(&p, &env).inferences, 1);
        assert_eq!(p.advise(pack(1, 0)), Some(2), "objects dying at age 2 pretenure to gen 2");
    }

    #[test]
    fn four_guest_threads_reach_the_same_decisions() {
        let (mut env, mut p) = compiled(RolpConfig::default());
        drive_hot(&mut p, &mut env, 1..=16, 4);
        assert_eq!(p.advise(pack(1, 0)), Some(2), "same verdict as one guest thread");
    }

    #[test]
    fn inference_publishes_versioned_snapshots() {
        let (mut env, mut p) = compiled(RolpConfig::default());
        let store = p.decision_store();
        assert_eq!(store.version(), 0, "starts on the empty snapshot");
        assert_eq!(store.load().advise(pack(1, 0)), None);

        // A mutator pins the pre-epoch snapshot...
        let held = store.load();
        drive_hot(&mut p, &mut env, 1..=16, 1);

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
        let (mut env, mut p) = compiled(RolpConfig::default());
        // Corrupt thread 0's TSS with no frames on its stack.
        env.threads[0].tss = 1234;
        p.on_gc_end(&mut env, &cycle_info(1));
        assert_eq!(env.threads[0].tss, 0);
        assert_eq!(p.reconciliations, 1);
    }

    #[test]
    fn survivor_tracking_shuts_down_when_stable() {
        let (mut env, mut p) = compiled(RolpConfig::default());
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
        let stats = stats(&p, &env);
        assert_eq!(stats.survivor_shutdowns, 1);
        assert!(stats.decisions > 0, "frozen decisions survive the shutdown");
    }

    #[test]
    fn imported_profile_warm_starts_with_validation() {
        let (mut env, m) = env_with_program();
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
        let v = stats(&p, &env).profile_import.expect("validated at first compile");
        assert!(v.fingerprint_checked && v.fingerprint_matched);
        assert_eq!(v.entries_applied, 1);
        assert_eq!(v.entries_rejected, 1, "the stale entry was rejected, not applied");
        assert_eq!(p.warm.confidence_of(pack(1, 0)), 80);

        // A quiet run never changes the published table: stable from
        // epoch 0.
        for cycle in 1..=32u64 {
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        let stats = stats(&p, &env);
        assert_eq!(stats.last_change_epoch, 0, "warm start is stable from epoch 0");
        assert_eq!(stats.profile_rows_active, 1);
    }

    #[test]
    fn blend_decay_releases_drifted_imported_rows() {
        let (mut env, mut p) = warm(5, 40);
        assert_eq!(p.advise(pack(1, 0)), Some(5));
        env.trace = rolp_trace::TraceRecorder::enabled(1);

        // Matching traffic: canaries survive, so the prior is confirmed
        // and its confidence restored to full.
        drive_canary_epoch(&mut p, &mut env, 3);
        assert_eq!(p.warm.confidence_of(pack(1, 0)), crate::offline::DEFAULT_CONFIDENCE);
        assert_eq!(stats(&p, &env).profile_blend_decays, 0);

        // Drifted traffic: every canary dies before its first
        // collection. 100 -> 50 -> 25 -> 12 (< floor): released on the
        // third contradicting epoch.
        drive_canary_epoch(&mut p, &mut env, 0);
        drive_canary_epoch(&mut p, &mut env, 0);
        assert_eq!(p.advise(pack(1, 0)), Some(5), "still holding the prior");
        drive_canary_epoch(&mut p, &mut env, 0);
        assert_eq!(p.advise(pack(1, 0)), None, "released: the row is live inference's again");
        let stats = stats(&p, &env);
        assert_eq!(stats.profile_blend_decays, 3);
        assert_eq!(stats.profile_rows_released, 1);
        assert_eq!(stats.profile_rows_active, 0);
        assert_eq!(stats.last_change_epoch, 4, "the release changed the table");

        // The release shows up in the trace like any other decision change.
        let released: Vec<_> = std::mem::take(&mut env.trace)
            .finish()
            .into_iter()
            .filter_map(|e| match e.kind {
                rolp_trace::EventKind::DecisionChange {
                    context,
                    from_gen,
                    to_gen,
                    reason: "released",
                } => Some((context, from_gen, to_gen)),
                _ => None,
            })
            .collect();
        assert_eq!(released, vec![(pack(1, 0), 5, 0)]);
    }

    /// A prior confirmed for `CONFIRMATIONS_TO_GRADUATE` consecutive
    /// epochs graduates out of probation: the canary flag is dropped,
    /// the decision stays, survivor tracking is free to shut down again
    /// (§7.4), and none of it counts as a table change.
    #[test]
    fn confirmed_priors_graduate_to_full_trust() {
        let (mut env, mut p) = warm(5, 100);
        assert!(p.store.load().is_canary(pack(1, 0)), "probationary rows are canary-flagged");

        // Confirming traffic: every epoch some canaries survive their
        // first young collection.
        for _ in 0..crate::warm_start::CONFIRMATIONS_TO_GRADUATE {
            drive_canary_epoch(&mut p, &mut env, 3);
        }
        assert_eq!(p.advise(pack(1, 0)), Some(5), "the graduated prior still governs");
        assert!(!p.store.load().is_canary(pack(1, 0)), "graduation drops the canary flag");
        assert!(
            !p.warm.any_probationary(&p.decisions),
            "nothing left to probe -> §7.4 shutdown applies again"
        );
        let stats = stats(&p, &env);
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
        let (mut env, mut p) = warm(0, 100);
        assert_eq!(p.advise(pack(1, 0)), Some(0));
        assert!(!p.store.load().is_canary(pack(1, 0)), "gen-0 rows are not canary-flagged");

        // Heavy allocation with zero survivals, epoch after epoch — the
        // evidence that releases a gen>=1 prior.
        for _ in 0..4 {
            drive_canary_epoch(&mut p, &mut env, 0);
        }
        assert_eq!(p.advise(pack(1, 0)), Some(0), "the gen-0 prior holds");
        let stats = stats(&p, &env);
        assert_eq!(stats.profile_blend_decays, 0);
        assert_eq!(stats.profile_rows_released, 0);
        assert_eq!(stats.profile_rows_active, 1);
        assert_eq!(stats.last_change_epoch, 0, "stable from epoch 0");
    }

    #[test]
    fn empty_decisions_never_shut_tracking_down() {
        let (mut env, mut p) = compiled(RolpConfig::default());
        for cycle in 1..=64u64 {
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }
        assert!(p.survivor_tracking_enabled(), "no decisions -> keep learning");
        assert_eq!(stats(&p, &env).survivor_shutdowns, 0);
    }
}
