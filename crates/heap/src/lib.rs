//! Region-based managed heap for the ROLP reproduction.
//!
//! This crate is the substrate the paper takes for granted: the HotSpot
//! heap. Objects live in word-addressed regions, carry the exact 64-bit
//! header of the paper's Fig. 2 (lock bits, biased-lock bit, 4-bit age,
//! identity hash, and the 32 bits ROLP borrows for the allocation context),
//! and are really traced and really copied during collection.
//!
//! Layout of an object (in 8-byte words):
//!
//! ```text
//! word 0   header            (see [`header`])
//! word 1   size/refs/class   (size_words:u32 | ref_words:u16 | class:u16)
//! word 2.. ref fields        (packed [`ObjectRef`]s, `NULL` allowed)
//! ...      data words        (opaque payload)
//! ```
//!
//! The crate provides mechanism only; *policy* (when to collect, where to
//! copy) lives in `rolp-gc`. Mutator roots are indirected through a
//! [`HandleTable`] so collectors can move objects without the guest program
//! holding stale pointers.

pub mod class;
pub mod handles;
pub mod header;
pub mod heap;
pub mod object;
pub mod region;
pub mod remset;
pub mod stats;
pub mod verify;

pub use class::{ClassId, ClassTable};
pub use handles::{Handle, HandleTable};
pub use header::ObjectHeader;
pub use heap::{
    AllocFailure, Heap, HeapConfig, HeapStats, SpaceKind, TlabAlloc, DEFAULT_TLAB_BYTES,
};
pub use object::ObjectRef;
pub use region::{Region, RegionId, RegionKind};
pub use stats::{HeapUsage, SpaceUsage};

/// Formats a byte count in KiB/MiB for the stats renderer.
pub(crate) fn fmt_kib(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1}MiB", bytes as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1}KiB", bytes as f64 / 1024.0)
    }
}
