//! Always-on live metrics plane for the ROLP reproduction.
//!
//! The paper's headline overhead claim ("profiling stays under ~5%",
//! §8.3) should be checkable *while a run executes*, not only by offline
//! post-processing of the flight recorder. This crate is the substrate
//! for that: every simulated nanosecond a run charges is attributed to
//! exactly one [`Bucket`] (mutator work, profiling instructions, JIT
//! compiles, GC pause phases, profiler epoch stages, idle pacing), so
//! self-observed profiler overhead is a first-class live metric.
//!
//! The design:
//!
//! - **One cell block** ([`Cells`]), owned by the [`Telemetry`] plane:
//!   `Cell<u64>` time-per-bucket and event counters, and one
//!   `RefCell<rolp_metrics::Histogram>` per latency series. The runtime
//!   runs on one OS thread, so recording is a plain load and store with
//!   no allocation; the plane is neither `Send` nor `Sync`.
//! - **Publication by copy** ([`Telemetry::publish`]): the cells and
//!   gauges are copied into an immutable, versioned [`MetricsSnapshot`]
//!   appended to the plane's `Rc` history. Every snapshot is kept (the
//!   `--metrics-out` stream and the crash guard read the whole history);
//!   the current one is the last, and a reader may hold it across later
//!   publishes.
//! - **RAII attribution spans** ([`Telemetry::span`]): a guard swaps the
//!   plane's *current bucket*; whatever the run charges while the guard
//!   lives lands in that bucket. Guards nest, restore on drop, and cost
//!   one `Cell` swap plus one reference-count bump — no allocation.
//!
//! Snapshots render to a flat JSONL row ([`MetricsSnapshot::to_jsonl`])
//! and Prometheus text exposition ([`MetricsSnapshot::to_prometheus`]).

pub mod bucket;
pub mod plane;
pub mod snapshot;

pub use bucket::{Bucket, CounterId, GaugeId, HistId};
pub use plane::{Cells, SpanGuard, Telemetry};
pub use snapshot::MetricsSnapshot;
