//! The overhead governor: graceful degradation under profiling pressure.
//!
//! ROLP's headline numbers (§8) hold only while profiling stays cheap:
//! record-path work bounded, OLD-table memory within its §7.5 budget, and
//! call-site profiling limited to the small distinguishing sets §5
//! converges to. When any of those budgets blows — adversarial call
//! patterns, site-id saturation, allocation bursts — a production
//! profiler must shed load rather than sink the application (the
//! always-on discipline DJXPerf argues for, and the unprofiled-goes-to-
//! gen-0 fallback NG2C builds in).
//!
//! The [`Governor`] tracks one [`EpochCost`] per inference epoch against
//! configurable budgets and drives an explicit four-state machine, one
//! step per epoch:
//!
//! ```text
//! Full  ->  Reduced  ->  SitesOnly  ->  Off
//!   (call-site       (stack-state      (all-gen-0 table;
//!    profiling shed,   hashing off,      allocation fast path
//!    conflicts frozen) site-id-only)     is one branch)
//! ```
//!
//! Hysteresis works the other way: after `calm_epochs_to_recover`
//! consecutive under-budget epochs the governor climbs back one step, so
//! a transient burst does not strand the profiler in `Off`. Every
//! transition is emitted as a `governor_transition` trace event by the
//! profiler.
//!
//! Degradation never *remaps* an allocation context: a context either
//! keeps its meaning (site id assignments are saturating and permanent)
//! or is demoted to gen-0 semantics (no decision published for it). That
//! invariant is what `tests/prop_governor.rs` checks under arbitrary
//! fault plans.
//!
//! `Policy` is what a profiler carries: the governor with its
//! per-epoch meter, the fault injector, and the hook-side flags both set.

use rolp_faults::{CycleFaults, FaultInjector, FaultPlan};
use rolp_telemetry::Bucket;
use rolp_vm::VmEnv;

use crate::conflicts::ConflictResolver;
use crate::old_table::{OldTable, WorkerTable};

/// The degradation states, most to least profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GovernorState {
    /// Everything on: call-site profiling, stack-state hashing, full
    /// decision publication.
    Full,
    /// Call-site profiling shed (all deltas zeroed, conflict resolution
    /// frozen at detection-only); contexts keep site id + current TSS.
    Reduced,
    /// Stack-state hashing off: contexts are site-id-only (TSS forced to
    /// 0), so conflicted sites collapse to their site row.
    SitesOnly,
    /// Profiling off: the decision store publishes an all-gen-0 (empty)
    /// table and the allocation fast path degenerates to one branch.
    Off,
}

impl GovernorState {
    /// Stable label used in trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GovernorState::Full => "full",
            GovernorState::Reduced => "reduced",
            GovernorState::SitesOnly => "sites-only",
            GovernorState::Off => "off",
        }
    }

    /// One step more degraded (saturates at `Off`).
    fn degraded(self) -> GovernorState {
        match self {
            GovernorState::Full => GovernorState::Reduced,
            GovernorState::Reduced => GovernorState::SitesOnly,
            _ => GovernorState::Off,
        }
    }

    /// One step less degraded (saturates at `Full`).
    fn recovered(self) -> GovernorState {
        match self {
            GovernorState::Off => GovernorState::SitesOnly,
            GovernorState::SitesOnly => GovernorState::Reduced,
            _ => GovernorState::Full,
        }
    }
}

/// Measured profiling overhead allowed per epoch, as a fraction of busy
/// mutator time (the paper's §8.2 bound).
pub const MAX_MEASURED_OVERHEAD: f64 = 0.05;

/// Per-epoch budgets and hysteresis.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Record-path events (profiled allocations + survivor records +
    /// injected synthetics) allowed per inference epoch.
    pub max_record_events_per_epoch: u64,
    /// OLD-table footprint allowed, in bytes (§7.5 accounting).
    pub max_table_bytes: u64,
    /// Estimated call-site-profiling overhead allowed per epoch, in
    /// simulated nanoseconds (`rolp_vm::cost` slow-branch pricing).
    /// Checked only for epochs with no mutator time, where the measured
    /// overhead ([`MAX_MEASURED_OVERHEAD`]) is undefined.
    pub max_call_overhead_ns_per_epoch: u64,
    /// Consecutive under-budget epochs before climbing back one state.
    pub calm_epochs_to_recover: u32,
    /// State to start in (`Full` normally; tests force `Off` to compare
    /// against a profiler-disabled run bit-for-bit).
    pub start_state: GovernorState,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            // Generous: a healthy run (fig. 8 scale) stays well under
            // these, so the governed bench row tracks the plain ROLP row.
            max_record_events_per_epoch: 2_000_000,
            max_table_bytes: 8 << 20,
            max_call_overhead_ns_per_epoch: 50_000_000,
            calm_epochs_to_recover: 2,
            start_state: GovernorState::Full,
        }
    }
}

/// What one inference epoch cost, measured by the profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochCost {
    /// Record-path events charged to the epoch.
    pub record_events: u64,
    /// OLD-table footprint at evaluation time, in bytes.
    pub table_bytes: u64,
    /// Estimated call-site-profiling overhead for the epoch, in ns.
    pub call_overhead_ns: u64,
    /// Self-measured profiling time this epoch (telemetry
    /// `mutator_profiling` delta), in ns.
    pub measured_profiling_ns: u64,
    /// Busy mutator time this epoch (telemetry `mutator_app +
    /// mutator_profiling + jit_compile` delta), in ns. Zero means "no
    /// measurement available" and falls back to the estimate.
    pub measured_mutator_ns: u64,
}

impl EpochCost {
    /// Measured profiling overhead as a fraction of busy mutator time,
    /// or `None` when no mutator time was observed this epoch.
    pub fn measured_overhead(&self) -> Option<f64> {
        if self.measured_mutator_ns == 0 {
            None
        } else {
            Some(self.measured_profiling_ns as f64 / self.measured_mutator_ns as f64)
        }
    }
}

/// A state change the profiler must apply and trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorTransition {
    /// State before.
    pub from: GovernorState,
    /// State after.
    pub to: GovernorState,
    /// `record-budget` / `table-budget` / `call-budget` on degradation,
    /// `recovered` on hysteresis climb-back.
    pub reason: &'static str,
}

/// The budget-tracking state machine.
#[derive(Debug, Clone)]
pub struct Governor {
    config: GovernorConfig,
    state: GovernorState,
    calm_epochs: u32,
    transitions: u64,
}

impl Governor {
    /// A governor starting in `config.start_state`.
    pub fn new(config: GovernorConfig) -> Self {
        let state = config.start_state;
        Governor { config, state, calm_epochs: 0, transitions: 0 }
    }

    /// Current state.
    pub fn state(&self) -> GovernorState {
        self.state
    }

    /// Transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The first budget `cost` exceeds, if any.
    fn tripped_budget(&self, cost: &EpochCost) -> Option<&'static str> {
        if cost.record_events > self.config.max_record_events_per_epoch {
            return Some("record-budget");
        }
        if cost.table_bytes > self.config.max_table_bytes {
            return Some("table-budget");
        }
        // Overhead: the measured signal when available, the cost-model
        // estimate otherwise.
        if let Some(overhead) = cost.measured_overhead() {
            return (overhead > MAX_MEASURED_OVERHEAD).then_some("overhead-budget");
        }
        (cost.call_overhead_ns > self.config.max_call_overhead_ns_per_epoch)
            .then_some("call-budget")
    }

    /// Feeds one epoch's cost; returns the transition to apply, if the
    /// state changed. Over budget: degrade one step immediately (and
    /// reset the calm streak). Under budget: count a calm epoch and climb
    /// one step back once the hysteresis threshold is met.
    pub fn evaluate(&mut self, cost: &EpochCost) -> Option<GovernorTransition> {
        let from = self.state;
        match self.tripped_budget(cost) {
            Some(reason) => {
                self.calm_epochs = 0;
                let to = from.degraded();
                if to == from {
                    return None;
                }
                self.state = to;
                self.transitions += 1;
                Some(GovernorTransition { from, to, reason })
            }
            None => {
                if from == GovernorState::Full {
                    return None;
                }
                self.calm_epochs += 1;
                if self.calm_epochs < self.config.calm_epochs_to_recover {
                    return None;
                }
                self.calm_epochs = 0;
                let to = from.recovered();
                self.state = to;
                self.transitions += 1;
                Some(GovernorTransition { from, to, reason: "recovered" })
            }
        }
    }
}

/// The governor and fault-injection effects on one profiler: the
/// overhead governor with its per-epoch meter, the seeded fault injector,
/// and what both of them make the hooks do.
#[derive(Default)]
pub(crate) struct Policy {
    governor: Option<Governor>,
    faults: Option<FaultInjector>,
    /// Sticky adversarial TSS forced by a `TssCollision` fault.
    fault_tss: Option<u16>,
    /// Synthetic record-path events charged by the fault injector.
    pub injected_records: u64,
    /// Survivor records discarded by injected merge drops.
    pub dropped_merge_records: u64,
    /// Safepoint merges postponed by injected merge delays.
    pub delayed_merges: u64,
    // Meter readings at the last epoch boundary, for per-epoch deltas.
    epoch_record_base: u64,
    epoch_invocation_base: u64,
    /// Telemetry `mutator_profiling` total.
    epoch_profiling_base: u64,
    /// Telemetry busy-mutator total.
    epoch_busy_base: u64,
}

impl Policy {
    /// A policy for the optional governor and fault plan. The hook
    /// effects follow the governor's state, so a forced start state
    /// (tests, CLI overrides) gates the hooks from the very first
    /// allocation, not the first transition.
    pub fn new(governor: Option<GovernorConfig>, fault_plan: Option<FaultPlan>) -> Self {
        Policy {
            governor: governor.map(Governor::new),
            faults: fault_plan.map(FaultInjector::new),
            ..Default::default()
        }
    }

    /// The overhead governor, if configured.
    pub fn governor(&self) -> Option<&Governor> {
        self.governor.as_ref()
    }

    /// The governor's state; `Full` when ungoverned.
    fn state(&self) -> GovernorState {
        self.governor.as_ref().map_or(GovernorState::Full, Governor::state)
    }

    /// Call-site profiling is shed and the resolver frozen (`Reduced` and
    /// below).
    pub fn call_shed(&self) -> bool {
        self.state() != GovernorState::Full
    }

    /// Profiling is off (`Off`): nothing is recorded, and the store
    /// publishes the all-gen-0 table.
    pub fn profiling_off(&self) -> bool {
        self.state() == GovernorState::Off
    }

    /// The stack state an allocation context carries: 0 once hashing is
    /// stripped (`SitesOnly` and below), else a `TssCollision` fault's
    /// adversarial value, else the thread's own.
    pub fn context_tss(&self, tss: u16) -> u16 {
        if self.state() >= GovernorState::SitesOnly {
            0
        } else {
            self.fault_tss.unwrap_or(tss)
        }
    }

    /// The safepoint merge of the pause's buffered survival records into
    /// `old` (§7.6), under this cycle's faults (deterministic, seedable).
    /// Faults that act before the merge — id exhaustion, forced TSS, flood
    /// records into `old` — land first, so every injected record is part
    /// of the same epoch a real record of that cycle would; a drop fault
    /// then discards the buffered records, a delay fault leaves them
    /// buffered until the next cycle. Returns the number of records
    /// merged, if a merge ran.
    pub fn safepoint(
        &mut self,
        env: &mut VmEnv,
        cycle: u64,
        survivors: &mut WorkerTable,
        old: &mut OldTable,
    ) -> Option<u64> {
        let faults = match self.faults.as_mut() {
            Some(f) => f.on_cycle(cycle),
            None => CycleFaults::default(),
        };
        if faults.exhaust_site_ids {
            env.jit.force_profile_id_exhaustion();
        }
        if faults.forced_tss.is_some() {
            self.fault_tss = faults.forced_tss;
        }
        if !self.profiling_off() {
            for &ctx in &faults.flood_contexts {
                old.record_allocation(ctx);
            }
        }
        // Floods and bursts charge the governor's record budget whether or
        // not profiling is currently off — sustained pressure must keep a
        // degraded profiler degraded.
        let injected = faults.flood_contexts.len() as u64 + faults.burst_events;
        self.injected_records += injected;
        // The synthetic records stand in for record-path work the
        // simulation never executes, so their modeled cost lands in the
        // profiling bucket — that is what pushes the *measured* overhead
        // signal over budget under a pressure-spike plan.
        env.telemetry.add(Bucket::MutatorProfiling, injected * env.cost.profile_alloc_ns);

        if faults.drop_merge {
            self.dropped_merge_records += survivors.drain_entries().len() as u64;
            None
        } else if faults.delay_merge {
            self.delayed_merges += 1;
            None
        } else {
            Some(old.merge_survivals(survivors))
        }
    }

    /// Meters the closing epoch and applies any governor state change, so
    /// a blown budget degrades this epoch's publication, not the next
    /// one's. `records` counts the profiler's own record-path events so
    /// far (profiled allocations + survivor records); injected ones are
    /// added here.
    pub fn end_epoch(
        &mut self,
        env: &mut VmEnv,
        records: u64,
        table_bytes: u64,
        resolver: &ConflictResolver,
    ) {
        let Some(governor) = self.governor.as_mut() else {
            return;
        };
        let record_total = records + self.injected_records;
        let invocations = env.jit.total_invocations();
        // Self-observed signal from the telemetry plane: profiling time
        // and busy mutator time this epoch, as deltas of the live cell
        // totals (no snapshot publish needed).
        let cells = env.telemetry.cells();
        let prof_now = cells.time(Bucket::MutatorProfiling);
        let busy_now = cells.time(Bucket::MutatorApp) + prof_now + cells.time(Bucket::JitCompile);
        let cost = EpochCost {
            record_events: record_total - self.epoch_record_base,
            table_bytes,
            // Estimate: each invocation crosses call sites in proportion
            // to the enabled fraction; an enabled crossing costs the slow
            // branch twice (enter + exit).
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
        let Some(tr) = governor.evaluate(&cost) else {
            return;
        };
        self.apply_state(env, tr, resolver);
        if env.trace.is_enabled() {
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

    /// Applies the hook-side effects of a governor transition, in order
    /// of severity: shed (or restore) call-site profiling, gate the
    /// allocation fast path. Stack-state stripping follows the state.
    fn apply_state(&self, env: &mut VmEnv, tr: GovernorTransition, resolver: &ConflictResolver) {
        let shed = tr.to != GovernorState::Full;
        if shed && tr.from == GovernorState::Full {
            // Reduced entry: zero every call-site delta. The resolver's
            // frozen/probing sets are preserved untouched and re-applied
            // verbatim on recovery, so conflicted contexts keep their
            // meaning while shed.
            let program = std::rc::Rc::clone(&env.program);
            for cs in program.call_sites() {
                env.jit.disable_call_profiling(cs);
            }
        } else if !shed && tr.from != GovernorState::Full {
            // Full recovery: restore exactly the deltas the resolver owns.
            resolver.reapply_to_jit(&mut env.jit);
        }
        // In `Off` the JIT patches the profiling instructions out: the
        // mutator fast path is one branch (`alloc_profiling_enabled`).
        env.jit.set_alloc_profiling(tr.to != GovernorState::Off);
        let encoded = match tr.to {
            GovernorState::Full => 0,
            GovernorState::Reduced => 1,
            GovernorState::SitesOnly => 2,
            GovernorState::Off => 3,
        };
        env.telemetry.set_gauge(rolp_telemetry::GaugeId::GovernorState, encoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> GovernorConfig {
        GovernorConfig {
            max_record_events_per_epoch: 100,
            max_table_bytes: 1 << 20,
            max_call_overhead_ns_per_epoch: 1_000,
            calm_epochs_to_recover: 2,
            start_state: GovernorState::Full,
        }
    }

    fn hot() -> EpochCost {
        EpochCost { record_events: 1_000, ..Default::default() }
    }

    fn calm() -> EpochCost {
        EpochCost::default()
    }

    #[test]
    fn degrades_one_step_per_hot_epoch_and_saturates_at_off() {
        let mut g = Governor::new(tight());
        let t1 = g.evaluate(&hot()).unwrap();
        assert_eq!(
            (t1.from, t1.to, t1.reason),
            (GovernorState::Full, GovernorState::Reduced, "record-budget")
        );
        assert_eq!(g.evaluate(&hot()).unwrap().to, GovernorState::SitesOnly);
        assert_eq!(g.evaluate(&hot()).unwrap().to, GovernorState::Off);
        assert_eq!(g.evaluate(&hot()), None, "already Off");
        assert_eq!(g.state(), GovernorState::Off);
        assert_eq!(g.transitions(), 3);
    }

    #[test]
    fn each_budget_reports_its_own_reason() {
        let mut g = Governor::new(tight());
        let t = g.evaluate(&EpochCost { table_bytes: 2 << 20, ..Default::default() }).unwrap();
        assert_eq!(t.reason, "table-budget");
        let t = g.evaluate(&EpochCost { call_overhead_ns: 2_000, ..Default::default() }).unwrap();
        assert_eq!(t.reason, "call-budget");
    }

    #[test]
    fn hysteresis_requires_consecutive_calm_epochs() {
        let mut g = Governor::new(tight());
        g.evaluate(&hot());
        g.evaluate(&hot());
        assert_eq!(g.state(), GovernorState::SitesOnly);
        assert_eq!(g.evaluate(&calm()), None, "one calm epoch is not enough");
        // A hot epoch resets the streak (and degrades further).
        assert_eq!(g.evaluate(&hot()).unwrap().to, GovernorState::Off);
        assert_eq!(g.evaluate(&calm()), None);
        let t = g.evaluate(&calm()).unwrap();
        assert_eq!(
            (t.from, t.to, t.reason),
            (GovernorState::Off, GovernorState::SitesOnly, "recovered")
        );
        // Full recovery takes two more calm pairs.
        g.evaluate(&calm());
        assert_eq!(g.evaluate(&calm()).unwrap().to, GovernorState::Reduced);
        g.evaluate(&calm());
        assert_eq!(g.evaluate(&calm()).unwrap().to, GovernorState::Full);
        assert_eq!(g.evaluate(&calm()), None, "Full and calm: steady state");
    }

    #[test]
    fn measured_overhead_trips_its_own_budget() {
        let mut g = Governor::new(tight());
        // 8% of busy mutator time spent profiling > the 5% default cap.
        let t = g
            .evaluate(&EpochCost {
                measured_profiling_ns: 8_000,
                measured_mutator_ns: 100_000,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(t.reason, "overhead-budget");
        assert_eq!(t.to, GovernorState::Reduced);
    }

    #[test]
    fn measured_signal_overrides_the_estimate_when_available() {
        let mut g = Governor::new(tight());
        // Estimate says hot (2_000 > 1_000 budget) but the measurement
        // says 1% — measured wins, no transition.
        let cost = EpochCost {
            call_overhead_ns: 2_000,
            measured_profiling_ns: 1_000,
            measured_mutator_ns: 100_000,
            ..Default::default()
        };
        assert_eq!(g.evaluate(&cost), None);
        assert_eq!(g.state(), GovernorState::Full);
    }

    #[test]
    fn measured_mode_falls_back_to_estimate_without_mutator_time() {
        let mut g = Governor::new(tight());
        // No measurement (measured_mutator_ns == 0): the estimate rules.
        let t = g.evaluate(&EpochCost { call_overhead_ns: 2_000, ..Default::default() }).unwrap();
        assert_eq!(t.reason, "call-budget");
    }

    #[test]
    fn forced_off_start_state_stays_off_while_hot() {
        let mut g = Governor::new(GovernorConfig {
            start_state: GovernorState::Off,
            max_record_events_per_epoch: 0,
            max_table_bytes: 0,
            max_call_overhead_ns_per_epoch: 0,
            ..tight()
        });
        assert_eq!(g.state(), GovernorState::Off);
        // Zero budgets: any nonzero cost keeps it pinned.
        assert_eq!(g.evaluate(&EpochCost { record_events: 1, ..Default::default() }), None);
        assert_eq!(g.state(), GovernorState::Off);
    }
}
