//! Metric identifiers: time buckets, counters, gauges, histograms.
//!
//! Everything is a small dense enum so the cells are fixed-size
//! arrays indexed without hashing, and so the set of exported series is
//! closed and documented in one place.

use std::fmt;

/// The bucket a span of attributed time lands in.
///
/// The first nine buckets partition *clock-backed* time: every
/// nanosecond the simulated clock advances is charged to exactly one of
/// them. The `Profiler*` buckets hold *modeled* self-cost of the epoch
/// pipeline's safepoint stages (which do not advance the simulated
/// clock) and are reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Bucket {
    /// Guest computation, allocation, field access — the application.
    MutatorApp,
    /// ROLP profiling instructions on mutator paths (call-site TSS
    /// updates, allocation-site table increments). The numerator of the
    /// measured-overhead metric.
    MutatorProfiling,
    /// JIT compilation charged to mutator time.
    JitCompile,
    /// Request pacing / think time (excluded from busy time).
    Idle,
    /// Time spent marking: the initial-mark, remark and full-GC mark
    /// pauses, plus concurrent marking paid while the mutator was busy
    /// (the mutator's half of the core; idle-paid marking advances no
    /// clock and is counted under [`CounterId::ConcurrentMarkIdleNs`]).
    GcMark,
    /// Pause time spent evacuating/copying (plus roots and per-region
    /// bookkeeping).
    GcEvac,
    /// Pause time spent scanning remembered sets.
    GcRemset,
    /// Pause time spent on ROLP survivor tracking (the collector half of
    /// profiling overhead).
    GcProfiling,
    /// Pause time not decomposed further (safepoint entry/exit,
    /// concurrent-collector handshakes).
    GcOther,
    /// Modeled: merging per-worker survivor observations at epoch end.
    ProfilerMerge,
    /// Modeled: lifetime inference over the OLD table.
    ProfilerInfer,
    /// Modeled: conflict resolution / context expansion.
    ProfilerResolve,
    /// Modeled: building + publishing the decision table.
    ProfilerPublish,
}

impl Bucket {
    /// Number of buckets.
    pub const COUNT: usize = 13;

    /// Every bucket, in index order.
    pub const ALL: [Bucket; Bucket::COUNT] = [
        Bucket::MutatorApp,
        Bucket::MutatorProfiling,
        Bucket::JitCompile,
        Bucket::Idle,
        Bucket::GcMark,
        Bucket::GcEvac,
        Bucket::GcRemset,
        Bucket::GcProfiling,
        Bucket::GcOther,
        Bucket::ProfilerMerge,
        Bucket::ProfilerInfer,
        Bucket::ProfilerResolve,
        Bucket::ProfilerPublish,
    ];

    /// Dense array index.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used in JSONL keys and Prometheus labels.
    pub const fn label(self) -> &'static str {
        match self {
            Bucket::MutatorApp => "mutator_app",
            Bucket::MutatorProfiling => "mutator_profiling",
            Bucket::JitCompile => "jit_compile",
            Bucket::Idle => "idle",
            Bucket::GcMark => "gc_mark",
            Bucket::GcEvac => "gc_evac",
            Bucket::GcRemset => "gc_remset",
            Bucket::GcProfiling => "gc_profiling",
            Bucket::GcOther => "gc_other",
            Bucket::ProfilerMerge => "profiler_merge",
            Bucket::ProfilerInfer => "profiler_infer",
            Bucket::ProfilerResolve => "profiler_resolve",
            Bucket::ProfilerPublish => "profiler_publish",
        }
    }

    /// True for the `Profiler*` buckets, whose time is modeled (derived
    /// from work counts and cost constants) rather than clock-backed.
    pub const fn is_modeled(self) -> bool {
        matches!(
            self,
            Bucket::ProfilerMerge
                | Bucket::ProfilerInfer
                | Bucket::ProfilerResolve
                | Bucket::ProfilerPublish
        )
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// Allocations that installed an allocation context.
    ProfiledAllocs,
    /// Allocations that took the unprofiled fast path.
    UnprofiledAllocs,
    /// JIT method compilations (including OSR).
    JitCompiles,
    /// Stop-the-world pauses recorded.
    GcPauses,
    /// Profiler inference epochs completed.
    EpochsInferred,
    /// Offline-profile decision entries applied at import.
    ProfileEntriesImported,
    /// Imported-row confidence halvings under the blend decay.
    ProfileBlendDecays,
    /// Requests completed by the open-loop service harness (`rolp-serve`).
    ServeRequests,
    /// Served requests whose coordinated-omission-corrected latency
    /// missed the primary SLO threshold.
    ServeSloMisses,
    /// TLAB refills (chunk carves from region frontiers) on the
    /// allocation fast path.
    TlabRefills,
    /// Retired: counted hits of the per-thread decision micro-cache,
    /// which no longer exists. Never bumped (always 0); kept only
    /// because the `rolpbench/` harness still reads it.
    MicrocacheHits,
    /// Retired with [`CounterId::MicrocacheHits`]: never bumped, kept
    /// only for `rolpbench`.
    MicrocacheMisses,
    /// Concurrent marking work paid during mutator idle time,
    /// nanoseconds. It advanced no clock, so no time bucket holds it:
    /// `gc_mark`'s concurrent share plus this plus the
    /// `concurrent_mark_owed_ns` gauge is the marking work queued.
    ConcurrentMarkIdleNs,
    /// Reference fields marking cleared in unreachable objects, so that
    /// no dead object roots garbage through a remembered set.
    RefsScrubbed,
    /// Survivor regions an evacuation kept in place and relabeled to a
    /// tenured space instead of copying their objects.
    RegionsKeptInPlace,
}

impl CounterId {
    /// Number of counters.
    pub const COUNT: usize = 15;

    /// Every counter, in index order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::ProfiledAllocs,
        CounterId::UnprofiledAllocs,
        CounterId::JitCompiles,
        CounterId::GcPauses,
        CounterId::EpochsInferred,
        CounterId::ProfileEntriesImported,
        CounterId::ProfileBlendDecays,
        CounterId::ServeRequests,
        CounterId::ServeSloMisses,
        CounterId::TlabRefills,
        CounterId::MicrocacheHits,
        CounterId::MicrocacheMisses,
        CounterId::ConcurrentMarkIdleNs,
        CounterId::RefsScrubbed,
        CounterId::RegionsKeptInPlace,
    ];

    /// Dense array index.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label.
    pub const fn label(self) -> &'static str {
        match self {
            CounterId::ProfiledAllocs => "profiled_allocs",
            CounterId::UnprofiledAllocs => "unprofiled_allocs",
            CounterId::JitCompiles => "jit_compiles",
            CounterId::GcPauses => "gc_pauses",
            CounterId::EpochsInferred => "epochs_inferred",
            CounterId::ProfileEntriesImported => "profile_entries_imported",
            CounterId::ProfileBlendDecays => "profile_blend_decays",
            CounterId::ServeRequests => "serve_requests",
            CounterId::ServeSloMisses => "serve_slo_misses",
            CounterId::TlabRefills => "tlab_refills",
            CounterId::MicrocacheHits => "microcache_hits",
            CounterId::MicrocacheMisses => "microcache_misses",
            CounterId::ConcurrentMarkIdleNs => "concurrent_mark_idle_ns",
            CounterId::RefsScrubbed => "refs_scrubbed",
            CounterId::RegionsKeptInPlace => "regions_kept_in_place",
        }
    }
}

/// Last-write-wins point-in-time gauges (process-wide, set at
/// safepoints/sampling windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum GaugeId {
    /// Live heap bytes at the last sample.
    HeapUsedBytes,
    /// Committed heap bytes at the last sample.
    HeapCommittedBytes,
    /// Version of the currently published decision table.
    DecisionVersion,
    /// Concurrent marking work queued and not yet paid, nanoseconds. A
    /// gauge, not a counter: mutator time pays it down.
    ConcurrentMarkOwedNs,
}

impl GaugeId {
    /// Number of gauges.
    pub const COUNT: usize = 4;

    /// Every gauge, in index order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::HeapUsedBytes,
        GaugeId::HeapCommittedBytes,
        GaugeId::DecisionVersion,
        GaugeId::ConcurrentMarkOwedNs,
    ];

    /// Dense array index.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label.
    pub const fn label(self) -> &'static str {
        match self {
            GaugeId::HeapUsedBytes => "heap_used_bytes",
            GaugeId::HeapCommittedBytes => "heap_committed_bytes",
            GaugeId::DecisionVersion => "decision_version",
            GaugeId::ConcurrentMarkOwedNs => "concurrent_mark_owed_ns",
        }
    }
}

/// Latency histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum HistId {
    /// Stop-the-world pause durations, nanoseconds.
    GcPauseNs,
    /// Individual JIT compile durations, nanoseconds.
    JitCompileNs,
    /// Modeled per-epoch profiler pipeline cost, nanoseconds.
    ProfilerEpochNs,
    /// Coordinated-omission-corrected request latency (completion minus
    /// *intended* arrival) in the open-loop service harness, nanoseconds.
    ServeLatencyNs,
    /// Queueing delay (actual start minus intended arrival) in the
    /// open-loop service harness, nanoseconds.
    ServeQueueNs,
}

impl HistId {
    /// Number of histogram series.
    pub const COUNT: usize = 5;

    /// Every histogram series, in index order.
    pub const ALL: [HistId; HistId::COUNT] = [
        HistId::GcPauseNs,
        HistId::JitCompileNs,
        HistId::ProfilerEpochNs,
        HistId::ServeLatencyNs,
        HistId::ServeQueueNs,
    ];

    /// Dense array index.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label.
    pub const fn label(self) -> &'static str {
        match self {
            HistId::GcPauseNs => "gc_pause_ns",
            HistId::JitCompileNs => "jit_compile_ns",
            HistId::ProfilerEpochNs => "profiler_epoch_ns",
            HistId::ServeLatencyNs => "serve_latency_ns",
            HistId::ServeQueueNs => "serve_queue_ns",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Bucket::ALL.iter().map(|b| b.label()).collect();
        labels.extend(CounterId::ALL.iter().map(|c| c.label()));
        labels.extend(GaugeId::ALL.iter().map(|g| g.label()));
        labels.extend(HistId::ALL.iter().map(|h| h.label()));
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "duplicate metric label");
    }

    #[test]
    fn modeled_buckets_are_exactly_the_profiler_stages() {
        let modeled: Vec<Bucket> = Bucket::ALL.iter().copied().filter(|b| b.is_modeled()).collect();
        assert_eq!(
            modeled,
            vec![
                Bucket::ProfilerMerge,
                Bucket::ProfilerInfer,
                Bucket::ProfilerResolve,
                Bucket::ProfilerPublish
            ]
        );
    }
}
