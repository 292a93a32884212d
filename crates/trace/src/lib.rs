//! Flight recorder: structured runtime telemetry for the ROLP reproduction.
//!
//! Every layer of the runtime emits [`TraceEvent`]s stamped with the
//! simulated clock: the collectors report stop-the-world pauses with their
//! cause and per-generation copy volumes, the profiler reports inference
//! epochs, conflict-resolution batches, and pretenuring-decision changes,
//! the JIT reports compilations and call-site-profiling toggles, and the
//! heap reports occupancy watermarks.
//!
//! ## Overhead discipline
//!
//! Tracing must never perturb the behaviour it observes:
//!
//! - **Default off.** A disabled [`TraceRecorder`] owns no buffers; every
//!   emit is a single branch and performs **zero allocations** (asserted
//!   by `tests/no_alloc.rs`).
//! - **One stream.** The runtime runs every guest thread on one OS
//!   thread, so mutator-side events (JIT compiles, stamped with their
//!   guest thread and a per-thread sequence number) and safepoint-side
//!   events (pauses, profiler epochs) are appended to the same stream. No
//!   event is ever dropped.
//! - **Deterministic order.** [`TraceRecorder::finish`] sorts the stream
//!   by (timestamp, thread id, per-thread sequence number), a key unique
//!   per event, so a run's trace is bit-reproducible for a fixed seed.
//!
//! Exporters live in [`export`]: a JSONL event log (one flat object per
//! line) and the Chrome `trace_event` format loadable in
//! `chrome://tracing` or Perfetto. One payload writer feeds both, so an
//! instant's Chrome `args` hold exactly its JSONL payload fields.

pub mod export;
pub mod json;

use rolp_metrics::SimTime;

/// Thread id the recorder uses for safepoint-side (world-stopped) events.
pub const GLOBAL_THREAD: u32 = u32::MAX;

/// One structured telemetry event. All payload variants are `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A stop-the-world pause (young/mixed/full evacuation, or a
    /// concurrent collector's handshake), with the work it performed.
    GcPause {
        /// Pause kind label (`young` / `mixed` / `full` / `handshake`).
        kind: &'static str,
        /// Why the collector ran (`eden-full`, `alloc-failure`,
        /// `evac-failure`, `remark`, `initial-mark`, `relocate`, ...).
        cause: &'static str,
        /// Pause duration in simulated nanoseconds.
        duration_ns: u64,
        /// Bytes copied during the pause.
        bytes_copied: u64,
        /// Objects that survived (were copied).
        survivors: u64,
        /// Regions in the collection set.
        regions_in_cset: u64,
        /// Collection-set regions released.
        regions_released: u64,
        /// Regions reclaimed with zero survivors ("died together").
        regions_fully_dead: u64,
        /// Bytes copied per destination generation: index 0 = young
        /// (eden/survivor), 1..=14 = dynamic generations, 15 = old.
        gen_bytes: [u64; 16],
    },
    /// Heap occupancy watermark (sampled around pauses and windows).
    HeapWatermark {
        /// Bytes allocated in assigned regions.
        used_bytes: u64,
        /// Bytes committed (assigned regions x region size).
        committed_bytes: u64,
        /// Free regions.
        free_regions: u64,
        /// Total regions.
        total_regions: u64,
    },
    /// A method was JIT-compiled (entry counter or on-stack replacement).
    JitCompile {
        /// Method id.
        method: u32,
        /// True for on-stack replacement.
        osr: bool,
    },
    /// A call site's profiling cell was toggled (conflict resolution §5).
    CallProfiling {
        /// Call-site id.
        call_site: u32,
        /// True when the slow (profiled) branch was enabled.
        enabled: bool,
    },
    /// One §4 inference pass over the OLD table.
    ProfilerInference {
        /// Inference epoch (1-based).
        epoch: u64,
        /// Rows in the OLD table at the snapshot.
        old_rows: u64,
        /// OLD table footprint in bytes (§7.5).
        old_bytes: u64,
        /// Conflicted sites newly detected this pass.
        new_conflicts: u64,
        /// Conflicted sites still unresolved.
        unresolved_conflicts: u64,
        /// Active pretenuring decisions after the pass.
        decisions: u64,
        /// Total §6 fragmentation demotions so far.
        demotions: u64,
    },
    /// A §5 conflict-resolution batch transition.
    ConflictBatch {
        /// `enable` (probe started), `shrink` (half disabled), `disable`
        /// (batch failed), or `freeze` (batch kept permanently).
        action: &'static str,
        /// Call sites affected by the transition.
        size: u64,
    },
    /// A pretenuring decision changed for one allocation context.
    DecisionChange {
        /// The packed 32-bit allocation context's row key.
        context: u32,
        /// Previous target generation (0 = young / none).
        from_gen: u8,
        /// New target generation.
        to_gen: u8,
        /// `inferred` (§4), `demoted` (§6), or `released` (an imported
        /// prior the blend decay dropped).
        reason: &'static str,
    },
    /// Survivor tracking was switched on or off (§7.4).
    SurvivorTracking {
        /// New state.
        enabled: bool,
    },
    /// A pause's buffered survival records merged into the global OLD
    /// table at the safepoint ending it (§5.2, §7.6).
    OldTableMerge {
        /// GC cycle the merge closed.
        cycle: u64,
        /// Total survival records merged.
        total_records: u64,
    },
    /// A new immutable decision snapshot was atomically published at the
    /// end of an inference epoch (or an offline warm start).
    DecisionPublish {
        /// Snapshot version (0 = the initial empty table).
        version: u64,
        /// Row keys whose resolved decision differs from the previous
        /// version.
        changed_rows: u64,
        /// Active decisions in the snapshot.
        decisions: u64,
    },
    /// An offline decision profile was imported and validated against the
    /// running program at startup (warm start).
    ProfileImport {
        /// Decision entries in the profile.
        entries: u64,
        /// Entries whose source location resolved in this program.
        applied: u64,
        /// Entries rejected by shape validation.
        rejected: u64,
        /// Frozen distinguishing call sites re-applied (§5).
        call_sites: u64,
        /// The profile carried a program-shape fingerprint.
        had_fingerprint: bool,
        /// The fingerprint matched the running program.
        fingerprint_matched: bool,
    },
    /// One epoch's confidence-weighted decay of imported decisions:
    /// imported rows whose target generation accumulates garbage lose
    /// confidence and are eventually released to live learning.
    ProfileBlend {
        /// Inference epoch (1-based).
        epoch: u64,
        /// Imported rows whose confidence decayed this epoch.
        decayed: u64,
        /// Imported rows released to live learning this epoch.
        released: u64,
        /// Imported rows still held after this epoch.
        remaining: u64,
    },
    /// The open-loop service harness (`rolp-serve`) entered a new traffic
    /// phase (diurnal rate ramp and/or hot-tenant migration).
    ServePhaseShift {
        /// Phase index (0-based) within the schedule.
        phase: u32,
        /// Offered arrival rate for the phase, requests per second.
        rate_rps: u64,
        /// Requests fired before the shift.
        requests_before: u64,
    },
}

impl EventKind {
    /// Stable machine name, used as the JSONL `type` discriminator and the
    /// Chrome trace category.
    pub fn type_name(&self) -> &'static str {
        match self {
            EventKind::GcPause { .. } => "gc_pause",
            EventKind::HeapWatermark { .. } => "heap_watermark",
            EventKind::JitCompile { .. } => "jit_compile",
            EventKind::CallProfiling { .. } => "call_profiling",
            EventKind::ProfilerInference { .. } => "profiler_inference",
            EventKind::ConflictBatch { .. } => "conflict_batch",
            EventKind::DecisionChange { .. } => "decision_change",
            EventKind::SurvivorTracking { .. } => "survivor_tracking",
            EventKind::OldTableMerge { .. } => "old_table_merge",
            EventKind::DecisionPublish { .. } => "decision_publish",
            EventKind::ProfileImport { .. } => "profile_import",
            EventKind::ProfileBlend { .. } => "profile_blend",
            EventKind::ServePhaseShift { .. } => "serve_phase_shift",
        }
    }
}

/// A timestamped event with its origin thread and per-thread sequence
/// number (the merge tiebreaker).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub ts: SimTime,
    /// Emitting guest thread, or [`GLOBAL_THREAD`] for safepoint events.
    pub thread: u32,
    /// Per-thread monotonic sequence number.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

/// The per-run flight recorder.
///
/// Construct with [`TraceRecorder::disabled`] (the default: no buffers, no
/// allocations, every emit is a branch) or [`TraceRecorder::enabled`].
#[derive(Debug, Default)]
pub struct TraceRecorder {
    enabled: bool,
    /// Next sequence number per guest thread.
    thread_seq: Vec<u64>,
    events: Vec<TraceEvent>,
    global_seq: u64,
    /// Cause annotation the collector sets before entering shared
    /// evacuation machinery; consumed by the next pause emission.
    gc_cause: Option<&'static str>,
}

impl TraceRecorder {
    /// A recorder that drops everything and never allocates.
    pub fn disabled() -> Self {
        TraceRecorder::default()
    }

    /// A recorder for `num_threads` guest threads.
    pub fn enabled(num_threads: u32) -> Self {
        TraceRecorder {
            enabled: true,
            thread_seq: vec![0; num_threads as usize],
            events: Vec::new(),
            global_seq: 0,
            gc_cause: None,
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits a mutator-side event from guest `thread`; events from
    /// threads the recorder was not built for are ignored. A no-op
    /// (single branch) when disabled.
    #[inline]
    pub fn emit_thread(&mut self, thread: u32, ts: SimTime, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let Some(next) = self.thread_seq.get_mut(thread as usize) else {
            return;
        };
        let seq = *next;
        *next += 1;
        self.events.push(TraceEvent { ts, thread, seq, kind });
    }

    /// Emits a safepoint-side event (the world is stopped; appending here
    /// is GC bookkeeping).
    #[inline]
    pub fn emit_global(&mut self, ts: SimTime, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let seq = self.global_seq;
        self.global_seq += 1;
        self.events.push(TraceEvent { ts, thread: GLOBAL_THREAD, seq, kind });
    }

    /// Annotates the cause of the next GC pause (set by the collector's
    /// policy code, consumed by the shared evacuation machinery).
    #[inline]
    pub fn set_gc_cause(&mut self, cause: &'static str) {
        if self.enabled {
            self.gc_cause = Some(cause);
        }
    }

    /// Takes the pending pause cause, defaulting to `"allocation"`.
    #[inline]
    pub fn take_gc_cause(&mut self) -> &'static str {
        self.gc_cause.take().unwrap_or("allocation")
    }

    /// Returns every recorded event, globally ordered by `(timestamp,
    /// thread id, sequence)`. The key is unique per event (`seq` is
    /// monotone within a thread), so the order does not depend on the
    /// order the events were emitted in.
    pub fn finish(mut self) -> Vec<TraceEvent> {
        self.events.sort_by_key(|e| (e.ts, e.thread, e.seq));
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> EventKind {
        EventKind::JitCompile { method: ns as u32, osr: false }
    }

    #[test]
    fn finish_orders_thread_events_deterministically() {
        // Two recorders fed the same events in different emission orders
        // must produce identical streams.
        let mut a = TraceRecorder::enabled(3);
        let mut b = TraceRecorder::enabled(3);
        let t = SimTime::from_nanos;
        // Same (thread, ts) pairs, emitted in different wall orders.
        let feed = [(2u32, 50u64), (0, 10), (1, 10), (0, 50), (2, 10)];
        for &(thread, ts) in &feed {
            a.emit_thread(thread, t(ts), ev(ts));
        }
        for &(thread, ts) in feed.iter().rev() {
            b.emit_thread(thread, t(ts), ev(ts));
        }
        let order_a: Vec<(u64, u32)> =
            a.finish().iter().map(|e| (e.ts.as_nanos(), e.thread)).collect();
        let order_b: Vec<(u64, u32)> =
            b.finish().iter().map(|e| (e.ts.as_nanos(), e.thread)).collect();
        // Ordered by (ts, thread, seq) in both.
        assert_eq!(order_a, vec![(10, 0), (10, 1), (10, 2), (50, 0), (50, 2)]);
        assert_eq!(order_b, order_a);
    }

    #[test]
    fn finish_interleaves_thread_and_global_events_by_timestamp() {
        let t = SimTime::from_nanos;
        let mut r = TraceRecorder::enabled(1);
        r.emit_global(t(7), EventKind::SurvivorTracking { enabled: false });
        r.emit_thread(0, t(5), ev(5));
        r.emit_global(t(9), EventKind::SurvivorTracking { enabled: true });
        r.emit_thread(0, t(9), ev(9));
        let events = r.finish();
        let types: Vec<&str> = events.iter().map(|e| e.kind.type_name()).collect();
        // At equal timestamps a guest thread sorts before GLOBAL_THREAD.
        assert_eq!(
            types,
            vec!["jit_compile", "survivor_tracking", "jit_compile", "survivor_tracking"]
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = TraceRecorder::disabled();
        r.emit_thread(0, SimTime::ZERO, ev(1));
        r.emit_global(SimTime::ZERO, ev(2));
        r.set_gc_cause("eden-full");
        assert_eq!(r.take_gc_cause(), "allocation", "cause not latched when disabled");
        assert!(r.finish().is_empty());
    }

    #[test]
    fn gc_cause_is_consumed_once() {
        let mut r = TraceRecorder::enabled(1);
        r.set_gc_cause("eden-full");
        assert_eq!(r.take_gc_cause(), "eden-full");
        assert_eq!(r.take_gc_cause(), "allocation");
    }

    #[test]
    fn emit_to_unknown_thread_is_ignored() {
        let mut r = TraceRecorder::enabled(1);
        r.emit_thread(5, SimTime::ZERO, ev(1));
        assert!(r.finish().is_empty());
    }
}
