//! Asserts the overhead discipline: with tracing disabled (the default),
//! emitting events performs ZERO heap allocations.
//!
//! Lives in its own integration-test binary so no other test's allocations
//! can perturb the counter, and runs its checks from a single `#[test]` so
//! the harness cannot interleave them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rolp_metrics::SimTime;
use rolp_trace::{EventKind, TraceRecorder};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    (after - before, result)
}

#[test]
fn emit_paths_do_not_allocate() {
    // Disabled recorder: the acceptance criterion — the mutator fast path
    // must see zero allocations when tracing is off.
    let mut disabled = TraceRecorder::disabled();
    let (n, _) = allocations_during(|| {
        for i in 0..10_000u64 {
            disabled.emit_thread(
                (i % 8) as u32,
                SimTime::from_nanos(i),
                EventKind::JitCompile { method: i as u32, osr: false },
            );
            disabled
                .emit_global(SimTime::from_nanos(i), EventKind::SurvivorTracking { enabled: true });
            disabled.set_gc_cause("eden-full");
        }
    });
    assert_eq!(n, 0, "disabled recorder allocated {n} times");
}
