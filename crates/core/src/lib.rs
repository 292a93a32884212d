//! # ROLP — Runtime Object Lifetime Profiler
//!
//! A from-scratch Rust reproduction of *Runtime Object Lifetime Profiler
//! for Latency Sensitive Big Data Applications* (EuroSys '19). ROLP
//! profiles allocation contexts online — allocation-site id plus an
//! incrementally maintained thread-stack-state hash, stored in the spare
//! 32 header bits of every object — infers per-context object lifetimes
//! from age histograms, and feeds the estimates to a pretenuring collector
//! (NG2C) so objects with similar lifetimes are co-located and die
//! together, cutting GC tail latency at negligible throughput and memory
//! cost.
//!
//! Module map (paper section in parentheses):
//!
//! - [`context`] — the 32-bit allocation context (§3.1).
//! - [`geometry`] — the §7.5 table shape.
//! - [`old_table`] — the Object Lifetime Distribution table (§3.3, §7.5,
//!   §7.6): the exact table the runtime profiles into at every guest
//!   thread count, and its sorted safepoint merge of survival records.
//! - [`inference`] — lifetime inference, conflict detection (§4), and the
//!   pure [`learn`] step (upward merge, §6 demotion).
//! - [`conflicts`] — the call-site-enabling conflict resolver (§5).
//! - [`filters`] — package filters (§7.3).
//! - [`survivor`] — survivor-tracking shutdown (§7.4).
//! - [`governor`] — the overhead governor: profiling turns off when its
//!   measured overhead exceeds the budget (Full ↔ Off).
//! - [`warm_start`] — the imported offline profile, blended with live
//!   evidence.
//! - [`profiler`] — the assembled profiler (§3, §6, §7), a shell over the
//!   epoch pipeline.
//! - [`leak`] — the leak-detection use-case (§2.2).
//! - [`runtime`] — the five evaluated runtime configurations (§8).
//!
//! ## Quickstart
//!
//! ```
//! use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
//! use rolp_heap::HeapConfig;
//! use rolp_vm::{ProgramBuilder, ThreadId};
//!
//! // Declare a guest program: one hot method with one allocation site.
//! let mut b = ProgramBuilder::new();
//! let main = b.method("app.Main::run", 100, false);
//! let worker = b.method("app.Worker::step", 80, false);
//! let call = b.call_site(main, worker);
//! let site = b.alloc_site(worker, 1);
//! let program = b.build();
//!
//! // Assemble the ROLP + NG2C runtime.
//! let config = RuntimeConfig {
//!     collector: CollectorKind::RolpNg2c,
//!     heap: HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
//!     ..Default::default()
//! };
//! let mut rt = JvmRuntime::new(config, program);
//! let class = rt.vm.env.heap.classes.register("app.Item");
//!
//! // Run guest code: allocate through the profiled site.
//! for _ in 0..1_000 {
//!     let mut ctx = rt.ctx(ThreadId(0));
//!     ctx.call(call, |ctx| {
//!         let h = ctx.alloc(site, class, 0, 4);
//!         ctx.release(h);
//!         ctx.complete_ops(1);
//!     });
//! }
//! let report = rt.report();
//! assert!(report.ops == 1_000);
//! ```

pub mod conflicts;
pub mod context;
pub mod filters;
pub mod geometry;
pub mod governor;
pub mod inference;
pub mod leak;
pub mod offline;
pub mod old_table;
pub mod profiler;
pub mod report;
pub mod runtime;
pub mod survivor;
pub mod warm_start;

pub use conflicts::{worst_case_resolution_time_ms, ConflictResolver, ConflictStats};
pub use filters::PackageFilters;
pub use geometry::{TableGeometry, FULL_SCALE_ROWS};
pub use governor::{Governor, GovernorConfig, GovernorState, GovernorTransition};
pub use inference::{classify_row, find_peaks, infer, learn, InferenceOutcome, RowVerdict};
pub use leak::{LeakReport, LeakSuspect};
pub use offline::{
    program_fingerprint, CallSiteEntry, DecisionProfile, ProfileEntry, ProfileParseError,
    ProfileValidation, ResolvedProfile, PROFILE_FORMAT_V1,
};
pub use old_table::{OldTable, WorkerTable, AGE_COLUMNS};
pub use profiler::{ProfilingLevel, RolpConfig, RolpProfiler, RolpStats, TableBackend};
pub use report::{render_decisions, render_summary, render_telemetry, stats_json};
pub use runtime::{CollectorKind, JvmRuntime, RunReport, RuntimeConfig};
pub use survivor::SurvivorTracking;
