//! The overhead governor: profiling turns itself off when it costs too
//! much.
//!
//! ROLP's headline numbers (§8) hold only while profiling stays cheap;
//! the paper bounds its throughput cost at a few percent. The
//! [`Governor`] checks that bound once per inference epoch against the
//! telemetry plane's self-measured profiling overhead and switches
//! between two states:
//!
//! ```text
//! Full  <->  Off
//!  (everything on)   (all-gen-0 table; allocation fast path is one
//!                     branch; call-site profiling shed)
//! ```
//!
//! An epoch whose measured overhead exceeds [`MAX_MEASURED_OVERHEAD`]
//! turns profiling `Off`; `Off` is NG2C's fallback, where unprofiled
//! allocation goes to gen 0. After enough consecutive calm epochs the
//! governor returns to `Full`, so a transient burst does not strand the
//! profiler. Each trip doubles the calm streak the next recovery needs,
//! so a steady overhead just over budget does not flap `Full ↔ Off`
//! every few epochs. Every transition is emitted as a
//! `governor_transition` trace event by the profiler.
//!
//! Turning profiling off never *remaps* an allocation context: the
//! working decision set is retained, and a context either keeps its
//! meaning or gets no decision published for it. That invariant is what
//! `crates/core/tests/prop_governor.rs` checks under arbitrary fault
//! plans.
//!
//! `Policy` is what a profiler carries: the governor with its per-epoch
//! meter, the fault injector, and the hook-side effects of both.

use rolp_faults::{FaultInjector, FaultPlan};
use rolp_telemetry::{Bucket, GaugeId};
use rolp_vm::VmEnv;

use crate::conflicts::ConflictResolver;

/// The governor's two states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GovernorState {
    /// Everything on: call-site profiling, stack-state hashing, full
    /// decision publication.
    #[default]
    Full,
    /// Profiling off: the decision store publishes an all-gen-0 (empty)
    /// table, call-site profiling is shed, and the allocation fast path
    /// degenerates to one branch.
    Off,
}

impl GovernorState {
    /// Stable label used in trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GovernorState::Full => "full",
            GovernorState::Off => "off",
        }
    }
}

/// Measured profiling overhead allowed per epoch, as a fraction of busy
/// mutator time (the paper's §8.2 bound).
pub const MAX_MEASURED_OVERHEAD: f64 = 0.05;

/// Consecutive calm epochs after which an `Off` governor returns to
/// `Full` on its first trip; each later trip doubles it.
const CALM_EPOCHS_TO_RECOVER: u32 = 2;

/// Governor settings.
#[derive(Debug, Clone, Default)]
pub struct GovernorConfig {
    /// State to start in. A governor started `Off` stays `Off` (tests
    /// compare it against a profiler-disabled run bit for bit).
    pub start_state: GovernorState,
}

/// A state change the profiler must apply and trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorTransition {
    /// State before.
    pub from: GovernorState,
    /// State after.
    pub to: GovernorState,
    /// `overhead-budget` when profiling turned off, `recovered` when it
    /// came back.
    pub reason: &'static str,
    /// Measured profiling time of the closing epoch, in ns.
    pub profiling_ns: u64,
    /// Measured busy mutator time of the closing epoch, in ns.
    pub mutator_ns: u64,
}

/// The two-state machine.
#[derive(Debug, Clone)]
pub struct Governor {
    state: GovernorState,
    /// Started `Off`: never leaves it.
    pinned: bool,
    calm_epochs: u32,
    transitions: u64,
}

impl Governor {
    /// A governor starting in `config.start_state`.
    pub fn new(config: GovernorConfig) -> Self {
        let state = config.start_state;
        Governor { state, pinned: state == GovernorState::Off, calm_epochs: 0, transitions: 0 }
    }

    /// Current state.
    pub fn state(&self) -> GovernorState {
        self.state
    }

    /// Transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Feeds one epoch's measured profiling and busy mutator time;
    /// returns the transition to apply, if the state changed. Over budget
    /// in `Full`: turn `Off` at once. In `Off`: a hot epoch restarts the
    /// calm streak, and `CALM_EPOCHS_TO_RECOVER << (trips - 1)` calm ones
    /// in a row (saturating) return to `Full`. An epoch with no mutator
    /// time is calm.
    pub fn evaluate(&mut self, profiling_ns: u64, mutator_ns: u64) -> Option<GovernorTransition> {
        if self.pinned {
            return None;
        }
        let over =
            mutator_ns > 0 && profiling_ns as f64 / mutator_ns as f64 > MAX_MEASURED_OVERHEAD;
        let (to, reason) = match (self.state, over) {
            (GovernorState::Full, false) => return None,
            (GovernorState::Full, true) => (GovernorState::Off, "overhead-budget"),
            (GovernorState::Off, true) => {
                self.calm_epochs = 0;
                return None;
            }
            (GovernorState::Off, false) => {
                self.calm_epochs += 1;
                // `transitions` is odd while `Off`: trip k (0-based) is
                // transition 2k + 1.
                let trip = u32::try_from(self.transitions / 2).unwrap_or(u32::MAX);
                let needed = CALM_EPOCHS_TO_RECOVER.saturating_mul(2u32.saturating_pow(trip));
                if self.calm_epochs < needed {
                    return None;
                }
                self.calm_epochs = 0;
                (GovernorState::Full, "recovered")
            }
        };
        let from = self.state;
        self.state = to;
        self.transitions += 1;
        Some(GovernorTransition { from, to, reason, profiling_ns, mutator_ns })
    }
}

/// The governor and fault-injection effects on one profiler: the
/// overhead governor with its per-epoch meter, the fault injector, and
/// what both of them make the hooks do.
#[derive(Default)]
pub(crate) struct Policy {
    governor: Option<Governor>,
    faults: Option<FaultInjector>,
    /// Synthetic record-path events charged by the fault injector.
    pub injected_records: u64,
    // Telemetry totals at the last epoch boundary, for per-epoch deltas.
    /// Telemetry `mutator_profiling` total.
    epoch_profiling_base: u64,
    /// Telemetry busy-mutator total.
    epoch_busy_base: u64,
}

impl Policy {
    /// A policy for the optional governor and fault plan. The hook
    /// effects follow the governor's state, so an `Off` start state
    /// gates the hooks from the very first allocation.
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

    /// Profiling is off (`Off`): nothing is recorded, call-site
    /// profiling is shed, and the store publishes the all-gen-0 table.
    pub fn profiling_off(&self) -> bool {
        self.governor.as_ref().is_some_and(|g| g.state() == GovernorState::Off)
    }

    /// Applies GC cycle `cycle`'s faults, ahead of the pause's safepoint
    /// merge (§7.6), so every injected event belongs to the same epoch a
    /// real record of that cycle would.
    pub fn inject(&mut self, env: &mut VmEnv, cycle: u64) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let faults = faults.on_cycle(cycle);
        if faults.exhaust_site_ids {
            env.jit.force_profile_id_exhaustion();
        }
        // The burst stands in for record-path work the simulation never
        // executes, so its modeled cost lands in the profiling bucket:
        // that is what pushes the measured overhead over budget. It is
        // charged whether or not profiling is off, so sustained pressure
        // keeps an `Off` profiler off.
        self.injected_records += faults.burst_events;
        env.telemetry
            .add(Bucket::MutatorProfiling, faults.burst_events * env.cost.profile_alloc_ns);
    }

    /// Meters the closing epoch and applies any governor state change, so
    /// a blown budget turns off this epoch's publication, not the next
    /// one's.
    pub fn end_epoch(&mut self, env: &mut VmEnv, resolver: &ConflictResolver) {
        let Some(governor) = self.governor.as_mut() else {
            return;
        };
        // Self-observed signal from the telemetry plane: profiling time
        // and busy mutator time this epoch, as deltas of the live cell
        // totals (no snapshot publish needed).
        let cells = env.telemetry.cells();
        let prof_now = cells.time(Bucket::MutatorProfiling);
        let busy_now = cells.time(Bucket::MutatorApp) + prof_now + cells.time(Bucket::JitCompile);
        let profiling_ns = prof_now - self.epoch_profiling_base;
        let mutator_ns = busy_now - self.epoch_busy_base;
        self.epoch_profiling_base = prof_now;
        self.epoch_busy_base = busy_now;
        let Some(tr) = governor.evaluate(profiling_ns, mutator_ns) else {
            return;
        };
        apply_state(env, tr.to, resolver);
        if env.trace.is_enabled() {
            env.trace.emit_global(
                env.clock.now(),
                rolp_trace::EventKind::GovernorTransition {
                    from: tr.from.label(),
                    to: tr.to.label(),
                    reason: tr.reason,
                    profiling_ns: tr.profiling_ns,
                    mutator_ns: tr.mutator_ns,
                },
            );
        }
    }
}

/// Applies the hook-side effects of entering state `to`: shed (or
/// restore) call-site profiling and gate the allocation fast path.
fn apply_state(env: &mut VmEnv, to: GovernorState, resolver: &ConflictResolver) {
    let off = to == GovernorState::Off;
    if off {
        // Zero every call-site delta. The resolver's frozen/probing sets
        // are kept untouched and re-applied verbatim on recovery, so
        // conflicted contexts keep their meaning.
        let program = std::rc::Rc::clone(&env.program);
        for cs in program.call_sites() {
            env.jit.disable_call_profiling(cs);
        }
    } else {
        // Restore exactly the deltas the resolver owns.
        resolver.reapply_to_jit(&mut env.jit);
    }
    // In `Off` the JIT patches the profiling instructions out: the
    // mutator fast path is one branch (`alloc_profiling_enabled`).
    env.jit.set_alloc_profiling(!off);
    env.telemetry.set_gauge(GaugeId::GovernorState, u64::from(off));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8% of busy mutator time spent profiling: over the 5% budget.
    const HOT: (u64, u64) = (8_000, 100_000);
    /// 1%: under budget.
    const CALM: (u64, u64) = (1_000, 100_000);

    fn eval(g: &mut Governor, (prof, busy): (u64, u64)) -> Option<GovernorTransition> {
        g.evaluate(prof, busy)
    }

    #[test]
    fn measured_overhead_turns_profiling_off_in_one_epoch() {
        let mut g = Governor::new(GovernorConfig::default());
        assert_eq!(eval(&mut g, CALM), None);
        let t = eval(&mut g, HOT).unwrap();
        assert_eq!(
            (t.from, t.to, t.reason, t.profiling_ns, t.mutator_ns),
            (GovernorState::Full, GovernorState::Off, "overhead-budget", 8_000, 100_000)
        );
        assert_eq!(eval(&mut g, HOT), None, "already Off");
        assert_eq!(g.state(), GovernorState::Off);
        assert_eq!(g.transitions(), 1);
    }

    #[test]
    fn exactly_at_budget_or_without_mutator_time_is_calm() {
        let mut g = Governor::new(GovernorConfig::default());
        assert_eq!(g.evaluate(5_000, 100_000), None, "5% is within budget");
        assert_eq!(g.evaluate(5_000, 0), None, "no mutator time: no measurement");
        assert_eq!(g.state(), GovernorState::Full);
    }

    #[test]
    fn recovery_requires_consecutive_calm_epochs() {
        let mut g = Governor::new(GovernorConfig::default());
        eval(&mut g, HOT);
        assert_eq!(eval(&mut g, CALM), None, "one calm epoch is not enough");
        assert_eq!(eval(&mut g, HOT), None, "a hot epoch restarts the streak");
        assert_eq!(eval(&mut g, CALM), None);
        // An epoch without mutator time counts as calm.
        let t = g.evaluate(0, 0).unwrap();
        assert_eq!(
            (t.from, t.to, t.reason),
            (GovernorState::Off, GovernorState::Full, "recovered")
        );
        assert_eq!(eval(&mut g, CALM), None, "Full and calm: steady state");
        assert_eq!(g.transitions(), 2);
    }

    #[test]
    fn steady_overhead_just_over_budget_backs_off_instead_of_flapping() {
        // 6% while profiling, nothing while off: a fixed 2-epoch recovery
        // re-trips every third epoch (67 transitions in 100 epochs).
        let mut g = Governor::new(GovernorConfig::default());
        let mut recoveries = Vec::new();
        for epoch in 1..=100 {
            let profiling = if g.state() == GovernorState::Full { 6_000 } else { 0 };
            if let Some(t) = g.evaluate(profiling, 100_000) {
                if t.to == GovernorState::Full {
                    recoveries.push(epoch);
                }
            }
        }
        assert!(g.transitions() <= 12, "flapped {} times", g.transitions());
        // The first trip still recovers after 2 calm epochs; each later
        // one waits twice as long as the one before.
        assert_eq!(recoveries, [3, 8, 17, 34, 67]);
    }

    #[test]
    fn forced_off_start_state_stays_off() {
        let mut g = Governor::new(GovernorConfig { start_state: GovernorState::Off });
        assert_eq!(g.state(), GovernorState::Off);
        for _ in 0..4 {
            assert_eq!(eval(&mut g, CALM), None);
            assert_eq!(eval(&mut g, HOT), None);
        }
        assert_eq!(g.state(), GovernorState::Off);
        assert_eq!(g.transitions(), 0);
    }
}
