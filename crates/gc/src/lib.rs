//! Garbage collectors for the ROLP reproduction.
//!
//! The paper evaluates ROLP against four collector configurations on the
//! same JVM; this crate provides all of them over the `rolp-heap`
//! substrate:
//!
//! - [`regional::RegionalCollector::g1`] — the G1 baseline: regional young
//!   collections, concurrent-style marking, mixed collections.
//! - [`regional::RegionalCollector::ng2c`] — NG2C: G1 plus 16 generations
//!   with pretenuring, driven by hand annotations or by ROLP's advice
//!   through [`observer::GcHooks`].
//! - [`cms::CmsCollector`] — CMS: concurrent mark-sweep old generation
//!   with no compaction until a stop-the-world full GC.
//! - [`concurrent::ConcurrentCollector`] — the ZGC/C4 class: everything
//!   concurrent, tiny pauses, barrier and memory taxes.
//!
//! Shared machinery: [`mark`] (tracing) and [`evac`] (evacuation, full
//! compaction, remembered-set validation and maintenance, pause
//! accounting).
//!
//! Every collector runs on the runtime's one OS thread. The GC worker
//! count (`CostModel::gc_workers`) only divides the modeled pause work,
//! as HotSpot's parallel workers would.

pub mod cms;
pub mod concurrent;
pub mod evac;
pub mod mark;
pub mod observer;
pub mod regional;

pub use cms::{CmsCollector, CmsConfig, CmsStats};
pub use concurrent::{ConcurrentCollector, ConcurrentConfig, ConcurrentStats};
pub use evac::{
    evacuate, evacuate_keeping, full_compact, rebuild_remsets, EvacOutcome, EvacStats, KeepInPlace,
};
pub use mark::{mark_liveness, MarkResult};
pub use observer::{GcCycleInfo, GcHooks, NullHooks};
pub use regional::{RegionalCollector, RegionalConfig, RegionalStats};
