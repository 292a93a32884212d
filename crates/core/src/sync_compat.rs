//! Synchronization primitives, switchable to `loom` for model checking.
//!
//! The safepoint merge protocol in [`crate::concurrent`] is written
//! against this module instead of `std` directly so the `loom` CI job can
//! explore its interleavings: building with `--features loom` swaps the
//! atomics and `UnsafeCell` for the model checker's
//! instrumented equivalents (the vendored `loom` is an API-compatible
//! stress-testing subset — see `vendor/loom`). Production builds compile
//! straight to `std` with zero overhead.

#[cfg(feature = "loom")]
pub use loom::sync::atomic::{AtomicBool, Ordering};

#[cfg(not(feature = "loom"))]
pub use std::sync::atomic::{AtomicBool, Ordering};

/// An `UnsafeCell` with loom's closure-based access API.
///
/// Loom's `UnsafeCell` tracks reads/writes to detect data races during
/// model checking; the `std` flavor below erases to a plain cell so the
/// production path pays nothing for the instrumentation seam.
#[cfg(feature = "loom")]
pub use loom::cell::UnsafeCell;

#[cfg(not(feature = "loom"))]
#[derive(Debug, Default)]
pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(feature = "loom"))]
impl<T> UnsafeCell<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        UnsafeCell(std::cell::UnsafeCell::new(value))
    }

    /// Mutable access through a raw pointer (loom API shape).
    ///
    /// # Safety contract (checked by loom under `--features loom`)
    ///
    /// The caller must guarantee exclusive access.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}
