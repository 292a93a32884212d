//! The shared execution environment.
//!
//! [`VmEnv`] bundles everything a collector or profiler needs access to
//! while the world is stopped: the heap, the simulated clock, metric
//! recorders, the cost model, the static program, the dynamic JIT state,
//! and the guest threads (whose stacks the end-of-GC reconciliation
//! walks).

use std::rc::Rc;

use rolp_heap::Heap;
use rolp_metrics::{MemoryTracker, PauseRecorder, SimClock, Throughput};
use rolp_telemetry::{CounterId, GaugeId, Telemetry};
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
    /// Routes decision reads through each thread's
    /// [`crate::DecisionCache`] (on by default). Off, every profiled
    /// allocation loads the table — the reference path the differential
    /// suite compares the cached path against.
    pub microcache_enabled: bool,
}

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
            microcache_enabled: true,
        }
    }

    /// Safepoint entry for the allocation fast path: retires every TLAB
    /// (regions become parsable, frontiers exact) and drains the
    /// per-thread micro-cache counters into telemetry. Collectors call
    /// this at the start of every pause; the runtime calls it once more
    /// at end of run.
    pub fn safepoint_flush_alloc_path(&mut self) {
        self.heap.retire_all_tlabs();
        let (mut hits, mut misses) = (0u64, 0u64);
        for t in &mut self.threads {
            let (h, m) = t.decision_cache.take_counters();
            hits += h;
            misses += m;
        }
        if hits > 0 {
            self.telemetry.bump(CounterId::MicrocacheHits, hits);
        }
        if misses > 0 {
            self.telemetry.bump(CounterId::MicrocacheMisses, misses);
        }
    }

    /// Charges `ns` of mutator time, attributed to the telemetry's
    /// current bucket (see [`Telemetry::span`]).
    #[inline]
    pub fn charge(&mut self, ns: u64) {
        self.clock.advance(ns);
        self.telemetry.on_charge(ns);
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
