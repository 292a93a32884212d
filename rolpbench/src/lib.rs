//! The end-to-end benchmark of the ROLP reproduction.
//!
//! Four workloads ([`workloads::WorkloadId`]) are measured on two clocks:
//! the deterministic *simulated* clock, which carries the paper's claims
//! and repeats exactly per seed, and the *host* clock, which is what this
//! Rust program costs to run. [`report`] names every metric; [`trace`]
//! holds the outside-in decorators of the traced rep that split host time
//! by layer. `README.md` describes the workloads, the metrics and the
//! measuring protocol.

pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
