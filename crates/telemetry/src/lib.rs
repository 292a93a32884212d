//! Always-on live metrics plane for the ROLP reproduction.
//!
//! The paper's headline overhead claim ("profiling stays under ~5%",
//! §8.3) should be checkable *while a run executes*, not only by offline
//! post-processing of the flight recorder. This crate is the substrate
//! for that: every simulated nanosecond a run charges is attributed to
//! exactly one [`Bucket`] (mutator work, profiling instructions, JIT
//! compiles, GC pause phases, profiler epoch stages, idle pacing), so
//! self-observed profiler overhead is a first-class live metric the
//! overhead governor can act on.
//!
//! The design:
//!
//! - **Per-thread cells** ([`ThreadCells`]): plain relaxed atomics —
//!   time-per-bucket counters, event counters, and log-bucketed latency
//!   histogram cells sharing `rolp_metrics::Histogram`'s exact bucket
//!   layout. Recording is lock-free and allocation-free.
//! - **Safepoint aggregation**: [`Registry::publish`] sums the cells
//!   into an immutable, versioned [`MetricsSnapshot`] (histogram cells
//!   convert losslessly via `Histogram::from_bucket_counts`).
//! - **Publication** ([`SnapshotStore`]): every published snapshot is
//!   kept in order behind one mutex (the `--metrics-out` stream and the
//!   crash guard read the whole history); the current snapshot is the
//!   last, handed out as an `Arc` a reader may hold across publishes.
//! - **RAII attribution spans** ([`Telemetry::span`]): a guard swaps the
//!   thread's *current bucket*; whatever the run charges while the guard
//!   lives lands in that bucket. Guards nest, restore on drop, and cost
//!   one `Cell` swap plus one reference-count bump — no allocation.
//!
//! Snapshots render to a flat JSONL row ([`MetricsSnapshot::to_jsonl`])
//! and Prometheus text exposition ([`MetricsSnapshot::to_prometheus`]).

pub mod bucket;
pub mod cell;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use bucket::{Bucket, CounterId, GaugeId, HistId};
pub use cell::{HistogramCell, ThreadCells};
pub use registry::Registry;
pub use snapshot::{MetricsSnapshot, SnapshotStore};
pub use span::{SpanGuard, Telemetry};
