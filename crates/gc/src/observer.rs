//! Collector-side hook points for the profiler.
//!
//! The paper's ROLP↔NG2C integration (§3.3, §6, §7.1, §7.4) needs three
//! channels, all bundled in [`GcHooks`]:
//!
//! 1. *Pretenuring advice*: at allocation time NG2C asks for the estimated
//!    lifetime of the allocation context and places the object in that
//!    dynamic generation.
//! 2. *Survivor tracking*: during evacuation, each surviving object's
//!    allocation context and age are reported so the OLD table can move
//!    the object from its age column to the next. The profiler can turn
//!    this off for stable workloads (§7.4) — the collector then also stops
//!    paying the per-survivor profiling cost.
//! 3. *End-of-cycle callback*: while the world is still stopped, the
//!    profiler reconciles thread stack states (§7.2.3), runs lifetime
//!    inference every 16 cycles (§4), and reacts to fragmentation (§6).

use rolp_heap::{ObjectHeader, RegionKind};
use rolp_metrics::{PauseKind, SimTime};
use rolp_vm::VmEnv;

/// Summary of one completed GC cycle, passed to [`GcHooks::on_gc_end`].
#[derive(Debug, Clone)]
pub struct GcCycleInfo {
    /// Cycle ordinal (1-based; the paper's unit of object age).
    pub cycle: u64,
    /// Pause classification.
    pub kind: PauseKind,
    /// Bytes copied in this cycle.
    pub bytes_copied: u64,
    /// Objects that survived (were copied).
    pub survivors: u64,
    /// Pause duration.
    pub duration: SimTime,
    /// Garbage fraction of the tenured spaces (old + dynamic) after the
    /// cycle, per the freshest liveness information; 0.0 when unknown.
    pub tenured_fragmentation: f64,
    /// Garbage fraction per dynamic generation (index = generation 1..=14;
    /// index 0 and 15 unused), for the §6 lifetime-demotion signal.
    pub dynamic_gen_garbage: [f64; 16],
}

/// The profiler-facing hooks a collector calls. All methods have inert
/// defaults so plain collectors can run with [`NullHooks`].
pub trait GcHooks {
    /// Estimated lifetime (target generation 0..=15) for an allocation
    /// context, or `None` when there is no estimate (paper §7.1: 0 =
    /// young, 1..=14 = dynamic generation, 15 = old).
    fn advise(&self, _context: u32) -> Option<u8> {
        None
    }

    /// Whether survivor tracking is currently enabled (§7.4).
    fn survivor_tracking_enabled(&self) -> bool {
        false
    }

    /// One object survived a collection; `header` is its pre-copy header
    /// (context + age before the increment), `from` the kind of region it
    /// was copied out of. An object in a survivor region the collection
    /// keeps in place (DESIGN §6 item 10) is reported exactly as copying
    /// it would be: same header, same `from`, in the same order. `worker`
    /// is always 0: the collector runs on the
    /// runtime's one OS thread. The parameter is kept only because
    /// `rolpbench/src/trace.rs` forwards it; it goes with the rolpbench
    /// update planned under ROADMAP's "Two clocks" item. Note that, as in
    /// HotSpot, only young-generation copies advance an object's age —
    /// once promoted or pretenured, an object's recorded age freezes,
    /// which is why the paper corrects shrinking lifetimes through
    /// fragmentation (§6) rather than through age data.
    fn on_survivor(&mut self, _header: ObjectHeader, _from: RegionKind, _worker: u32) {}

    /// A GC cycle finished; the world is still stopped.
    fn on_gc_end(&mut self, _env: &mut VmEnv, _info: &GcCycleInfo) {}

    /// A marking pass completed; `context_live` is the live-object census
    /// per allocation context (the §2.2 leak-detection signal).
    fn on_liveness(&mut self, _context_live: &std::collections::HashMap<u32, u64>) {}
}

/// Hooks that do nothing (plain G1/CMS/ZGC configurations).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHooks;

impl GcHooks for NullHooks {}
