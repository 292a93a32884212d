//! The shared execution environment.
//!
//! [`VmEnv`] bundles everything a collector or profiler needs access to
//! while the world is stopped: the heap, the simulated clock, metric
//! recorders, the cost model, the static program, the dynamic JIT state,
//! the guest threads (whose stacks the end-of-GC reconciliation walks),
//! and the account of concurrent marking work still owed to the clock.

use std::rc::Rc;

use rolp_heap::Heap;
use rolp_metrics::{MemoryTracker, PauseRecorder, SimClock, Throughput};
use rolp_telemetry::{Bucket, CounterId, GaugeId, Telemetry};
use rolp_trace::{EventKind, TraceRecorder};

use crate::cost::CostModel;
use crate::decisions::DecisionStore;
use crate::jit::{JitConfig, JitState};
use crate::program::Program;
use crate::thread::{MutatorThread, ThreadId};

/// The mutable world state shared between mutator, collector, and
/// profiler.
#[derive(Debug)]
pub struct VmEnv {
    /// The managed heap (owns classes and the root handle table).
    pub heap: Heap,
    /// Simulated time.
    pub clock: SimClock,
    /// Stop-the-world pause record.
    pub pauses: PauseRecorder,
    /// Memory watermarks.
    pub memory: MemoryTracker,
    /// Application throughput.
    pub throughput: Throughput,
    /// The cost model charging simulated time.
    pub cost: CostModel,
    /// The immutable guest program.
    pub program: Rc<Program>,
    /// Dynamic JIT state.
    pub jit: JitState,
    /// Guest threads.
    pub threads: Vec<MutatorThread>,
    /// Structured telemetry flight recorder (disabled by default).
    pub trace: TraceRecorder,
    /// Always-on live metrics plane. Every nanosecond charged through
    /// [`VmEnv::charge`] is attributed to the telemetry's current
    /// bucket; pause and idle time are attributed explicitly at their
    /// clock-advance sites.
    pub telemetry: Telemetry,
    /// Published pretenuring decisions. When set, the allocation fast
    /// path resolves each profiled allocation's target generation with a
    /// single index into the current [`crate::DecisionTable`] snapshot
    /// (no profiler borrow, no hash lookup).
    pub decisions: Option<Rc<DecisionStore>>,
    /// Concurrent marking work queued by a collector and not yet paid,
    /// simulated ns (see [`VmEnv::queue_concurrent_mark`]).
    mark_owed_ns: u64,
}

/// Nanoseconds of owed concurrent marking one nanosecond of mutator work
/// pays: the marking thread shares the mutator's core 1:1, so while work
/// is owed the mutator runs at half speed. A mutator that never idles
/// therefore loses exactly the marking work, as if it had stopped for it.
pub const CONCURRENT_MARK_SHARE: u64 = 1;

impl VmEnv {
    /// Creates an environment with `num_threads` idle guest threads.
    pub fn new(
        heap: Heap,
        cost: CostModel,
        program: Program,
        jit_config: JitConfig,
        num_threads: u32,
    ) -> Self {
        let program = Rc::new(program);
        let jit = JitState::new(&program, jit_config);
        let threads = (0..num_threads).map(|i| MutatorThread::new(ThreadId(i))).collect();
        VmEnv {
            heap,
            clock: SimClock::new(),
            pauses: PauseRecorder::new(),
            memory: MemoryTracker::new(),
            throughput: Throughput::new(),
            cost,
            program,
            jit,
            threads,
            trace: TraceRecorder::disabled(),
            telemetry: Telemetry::new(),
            decisions: None,
            mark_owed_ns: 0,
        }
    }

    /// Charges `ns` of mutator time, attributed to the telemetry's
    /// current bucket (see [`Telemetry::span`]). While concurrent marking
    /// is owed, the charge also pays up to `ns` of it (see
    /// [`CONCURRENT_MARK_SHARE`]).
    #[inline]
    pub fn charge(&mut self, ns: u64) {
        self.clock.advance(ns);
        self.telemetry.on_charge(ns);
        if self.mark_owed_ns != 0 {
            self.pay_mark_busy(ns);
        }
    }

    /// The busy share of concurrent marking: the clock advances by what
    /// is paid, attributed to [`Bucket::GcMark`].
    #[cold]
    #[inline(never)]
    fn pay_mark_busy(&mut self, ns: u64) {
        let paid = self.mark_owed_ns.min(ns.saturating_mul(CONCURRENT_MARK_SHARE));
        self.mark_owed_ns -= paid;
        self.clock.advance(paid);
        self.telemetry.add(Bucket::GcMark, paid);
        self.telemetry.set_gauge(GaugeId::ConcurrentMarkOwedNs, self.mark_owed_ns);
    }

    /// Advances the clock by `ns` of idle time (request pacing, think
    /// time, I/O waits). The marking thread has the core to itself then,
    /// so idle time pays owed concurrent marking down for free: the clock
    /// advances by `ns` only, and what was paid is counted under
    /// [`CounterId::ConcurrentMarkIdleNs`], outside the wall-time buckets.
    pub fn idle(&mut self, ns: u64) {
        self.clock.advance_idle(ns);
        self.telemetry.add(Bucket::Idle, ns);
        if self.mark_owed_ns != 0 {
            let paid = self.mark_owed_ns.min(ns);
            self.mark_owed_ns -= paid;
            self.telemetry.bump(CounterId::ConcurrentMarkIdleNs, paid);
            self.telemetry.set_gauge(GaugeId::ConcurrentMarkOwedNs, self.mark_owed_ns);
        }
    }

    /// Queues `ns` of concurrent marking work. It runs beside the mutator
    /// instead of stopping it: later [`VmEnv::charge`]s and
    /// [`VmEnv::idle`]s pay it off, and pauses do not.
    pub fn queue_concurrent_mark(&mut self, ns: u64) {
        self.mark_owed_ns += ns;
        self.telemetry.set_gauge(GaugeId::ConcurrentMarkOwedNs, self.mark_owed_ns);
    }

    /// Updates the memory watermarks from current heap occupancy.
    pub fn sample_memory(&mut self) {
        self.memory.set_committed(self.heap.committed_bytes());
        self.memory.set_used(self.heap.used_bytes());
        self.telemetry.set_gauge(GaugeId::HeapUsedBytes, self.heap.used_bytes());
        self.telemetry.set_gauge(GaugeId::HeapCommittedBytes, self.heap.committed_bytes());
        if self.trace.is_enabled() {
            self.trace.emit_global(
                self.clock.now(),
                EventKind::HeapWatermark {
                    used_bytes: self.heap.used_bytes(),
                    committed_bytes: self.heap.committed_bytes(),
                    free_regions: self.heap.free_regions() as u64,
                    total_regions: self.heap.num_regions() as u64,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use rolp_heap::HeapConfig;

    use super::*;
    use crate::program::ProgramBuilder;

    fn env() -> VmEnv {
        VmEnv::new(
            Heap::new(HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 }),
            CostModel::default(),
            ProgramBuilder::new().build(),
            JitConfig::default(),
            1,
        )
    }

    #[test]
    fn busy_charges_pay_owed_marking_at_most_one_to_one() {
        let mut env = env();
        env.queue_concurrent_mark(1_000);
        env.charge(300);
        assert_eq!(env.clock.now().as_nanos(), 600, "300 ns of work plus 300 ns of marking");
        assert_eq!(env.mark_owed_ns, 700);
        env.charge(5_000);
        assert_eq!(env.clock.now().as_nanos(), 600 + 5_000 + 700, "pays only what is owed");
        assert_eq!(env.mark_owed_ns, 0);
        env.charge(100);
        assert_eq!(env.clock.now().as_nanos(), 6_400, "no debt, no slowdown");
        assert_eq!(env.clock.mutator_time(), env.clock.now(), "busy marking is not a pause");
    }

    #[test]
    fn idle_pays_owed_marking_without_advancing_the_clock_past_the_idle_time() {
        let mut env = env();
        env.queue_concurrent_mark(1_000);
        env.idle(400);
        assert_eq!(env.clock.now().as_nanos(), 400);
        assert_eq!(env.mark_owed_ns, 600);
        env.idle(10_000);
        assert_eq!(env.clock.now().as_nanos(), 10_400);
        assert_eq!(env.clock.total_idle().as_nanos(), 10_400);
        assert_eq!(env.mark_owed_ns, 0);
        let cells = env.telemetry.cells();
        assert_eq!(cells.counter(CounterId::ConcurrentMarkIdleNs), 1_000);
        assert_eq!(cells.time(Bucket::GcMark), 0, "idle-paid work leaves the time buckets");
        assert_eq!(env.telemetry.gauge(GaugeId::ConcurrentMarkOwedNs), 0);
    }

    #[test]
    fn busy_paid_marking_lands_in_gc_mark_and_the_account_balances() {
        let mut env = env();
        env.queue_concurrent_mark(2_000);
        env.charge(500);
        env.idle(700);
        assert_eq!(env.telemetry.gauge(GaugeId::ConcurrentMarkOwedNs), 800);
        {
            let _span = env.telemetry.span(Bucket::MutatorProfiling);
            env.charge(300);
        }
        let cells = env.telemetry.cells();
        assert_eq!(cells.time(Bucket::GcMark), 800);
        assert_eq!(cells.time(Bucket::MutatorApp), 500);
        assert_eq!(cells.time(Bucket::MutatorProfiling), 300, "the span keeps only its work");
        let clock_backed: u64 =
            Bucket::ALL.iter().filter(|b| !b.is_modeled()).map(|&b| cells.time(b)).sum();
        assert_eq!(clock_backed, env.clock.now().as_nanos(), "the buckets partition the clock");
        assert_eq!(
            cells.time(Bucket::GcMark)
                + cells.counter(CounterId::ConcurrentMarkIdleNs)
                + env.telemetry.gauge(GaugeId::ConcurrentMarkOwedNs),
            2_000,
            "busy-paid + idle-paid + owed = queued"
        );
    }
}
