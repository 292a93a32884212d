//! Guest-program execution engine with JIT simulation for the ROLP
//! reproduction.
//!
//! The paper's profiler lives inside a JVM; this crate is that JVM's
//! execution side, rebuilt as a deterministic simulation:
//!
//! - [`program`] — static method/call-site/allocation-site declarations.
//! - [`jit`] — hotness counters, compilation, inlining, OSR, and the
//!   per-call-site delta cells ROLP toggles.
//! - [`thread`] — guest threads and the 16-bit thread stack state.
//! - [`mutator`] — the [`mutator::MutatorCtx`] guest code runs against,
//!   charging the [`cost::CostModel`] and routing allocations through a
//!   pluggable [`mutator::CollectorApi`].
//! - [`profiler`] — the hook trait ROLP implements.
//! - [`mod@env`] — the world state shared with collectors.

pub mod cost;
pub mod decisions;
pub mod env;
pub mod jit;
pub mod mutator;
pub mod profiler;
pub mod program;
pub mod thread;

pub use cost::CostModel;
pub use decisions::{DecisionStore, DecisionTable, CANARY_STRIDE};
pub use env::{VmEnv, CONCURRENT_MARK_SHARE};
pub use jit::{JitConfig, JitEvent, JitState};
pub use mutator::{AllocRequest, CollectorApi, GuestException, MutatorCtx, Vm};
pub use profiler::{NullProfiler, VmProfiler};
pub use program::{AllocSiteId, CallSiteId, MethodId, Program, ProgramBuilder};
pub use thread::{Frame, MutatorThread, ThreadId};
