//! Differential test plane for the allocation fast path.
//!
//! The TLAB + decision-micro-cache + batched-age-0 path is an
//! *optimization*, not a semantic change: any allocation stream replayed
//! through the fast path must be observationally identical to the
//! per-allocation reference path (TLABs disabled, micro-cache disabled,
//! unbatched OLD-table increments). This suite generates arbitrary
//! streams and holds the fast path to that contract at one and at two
//! guest threads:
//!
//! - published `DecisionTable` digests are identical (the micro-cache
//!   never serves stale advice that changes an outcome),
//! - OLD-table contents (touched rows and full age histograms) are
//!   identical (batched flushing loses nothing the reference records),
//! - GC scheduling is identical (the fast path declines exactly when the
//!   slow path would have collected), and
//! - with a single mutator thread, heap object *placement* is bit-exact
//!   (TLAB retirement restores the precise shared-path frontier).

use proptest::prelude::*;
use rolp::runtime::{CollectorKind, JvmRuntime, RunReport, RuntimeConfig};
use rolp_heap::{HeapConfig, RegionKind};
use rolp_vm::{AllocSiteId, CallSiteId, ProgramBuilder, ThreadId};

/// One step of a generated allocation stream.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Worker method (selects the call path and therefore the TSS).
    worker: usize,
    /// Allocation site within the worker.
    site: usize,
    /// Reference fields of the allocated object.
    refs: u16,
    /// Data words of the allocated object.
    data: u32,
    /// Slot in the keep-alive table; the previous occupant is released,
    /// so slot reuse frequency controls object lifetime.
    hold_slot: usize,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..3, 0usize..2, 0u16..3, 0u32..12, 0usize..96).prop_map(
        |(worker, site, refs, data, hold_slot)| Op { worker, site, refs, data, hold_slot },
    )
}

/// How a run reads back for comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    /// FNV digest of the published decision table.
    decision_digest: u64,
    /// Full OLD-table contents: sorted touched rows with age histograms.
    old_rows: Vec<(u32, [u32; 16])>,
    /// Pretenuring decisions count.
    decisions: usize,
    /// GC cycles: the fast path must not perturb the collection schedule.
    gc_cycles: u64,
    /// Completed guest operations.
    ops: u64,
    /// Object placement: `(region, offset, size, kind)` for every live
    /// object, after the end-of-run safepoint retired all buffers.
    placement: Vec<(u32, u32, u32, String)>,
}

fn replay(stream: &[Op], rounds: usize, threads: u32, fast: bool) -> Observation {
    let mut b = ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let mut calls: Vec<CallSiteId> = Vec::new();
    let mut sites: Vec<Vec<AllocSiteId>> = Vec::new();
    for i in 0..3usize {
        let m = b.method(format!("app.Worker{i}::step"), 60 + 10 * i as u32, false);
        calls.push(b.call_site(main, m));
        sites.push((0..2).map(|j| b.alloc_site(m, j + 1)).collect());
    }
    let program = b.build();

    let mut config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: HeapConfig { region_bytes: 16 * 1024, max_heap_bytes: 4 << 20 },
        threads,
        seed: 7,
        ..Default::default()
    };
    if !fast {
        // The reference path: shared-state lookup and a per-allocation
        // OLD-table increment on every single allocation.
        config.tlab_bytes = 0;
        config.microcache = false;
        config.rolp.batch_age0 = false;
    }

    let mut rt = JvmRuntime::new(config, program);
    let class = rt.vm.env.heap.classes.register("app.Item");
    let mut held: Vec<Option<rolp_heap::Handle>> = vec![None; 96];

    let mut i = 0u64;
    for _ in 0..rounds {
        for op in stream {
            let thread = ThreadId((i % threads as u64) as u32);
            i += 1;
            let mut ctx = rt.ctx(thread);
            ctx.call(calls[op.worker], |ctx| {
                let h = ctx.alloc(sites[op.worker][op.site], class, op.refs, op.data);
                if let Some(old) = held[op.hold_slot].replace(h) {
                    ctx.release(old);
                }
                ctx.complete_ops(1);
            });
        }
    }

    let report: RunReport = rt.report();
    let rolp = report.rolp.expect("profiled run");

    let p = rt.profiler.as_ref().expect("profiler").borrow();
    let old_rows: Vec<(u32, [u32; 16])> =
        p.old.touched_rows().into_iter().map(|r| (r, p.old.histogram(r))).collect();
    let decision_digest = p.decision_store().load().digest();
    drop(p);

    let heap = &rt.vm.env.heap;
    let mut placement = Vec::new();
    for (id, region) in heap.regions() {
        if matches!(region.kind, RegionKind::Free | RegionKind::HumongousCont) {
            continue;
        }
        for obj in heap.objects_in_region(id) {
            placement.push((
                id.0,
                obj.offset(),
                heap.size_words(obj),
                format!("{:?}", region.kind),
            ));
        }
    }

    Observation {
        decision_digest,
        old_rows,
        decisions: rolp.decisions,
        gc_cycles: report.gc_cycles,
        ops: report.ops,
        placement,
    }
}

fn assert_equivalent(stream: &[Op], rounds: usize, threads: u32) {
    let fast = replay(stream, rounds, threads, true);
    let reference = replay(stream, rounds, threads, false);

    assert_eq!(
        fast.decision_digest, reference.decision_digest,
        "published decision digests diverged (threads={threads})"
    );
    assert_eq!(
        fast.old_rows, reference.old_rows,
        "OLD-table contents diverged (threads={threads})"
    );
    assert_eq!(fast.decisions, reference.decisions);
    assert_eq!(
        fast.gc_cycles, reference.gc_cycles,
        "the fast path changed the GC schedule (threads={threads})"
    );
    assert_eq!(fast.ops, reference.ops);
    if threads == 1 {
        // Single-threaded, TLAB retirement rolls every buffer back to the
        // exact shared-path frontier: placement is bit-identical.
        assert_eq!(fast.placement, reference.placement, "heap placement diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Arbitrary streams, one guest thread: full observational identity
    /// including bit-exact placement.
    #[test]
    fn prop_alloc_path_sequential(stream in prop::collection::vec(op_strategy(), 64..256)) {
        assert_equivalent(&stream, 24, 1);
    }

    /// Arbitrary streams, two guest threads sharing the one OLD table.
    #[test]
    fn prop_alloc_path_shared(stream in prop::collection::vec(op_strategy(), 64..256)) {
        assert_equivalent(&stream, 24, 2);
    }
}

/// A long deterministic soak of the same contract on the default
/// configuration: quick to rerun in CI's `alloc-micro` job.
#[test]
fn fast_path_matches_reference_on_default_config() {
    let stream: Vec<Op> = (0..192u64)
        .map(|i| {
            // Small multiplicative hash: spreads ops without rand.
            let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            Op {
                worker: (r % 3) as usize,
                site: ((r >> 3) % 2) as usize,
                refs: ((r >> 5) % 3) as u16,
                data: ((r >> 7) % 12) as u32,
                hold_slot: ((r >> 11) % 96) as usize,
            }
        })
        .collect();
    assert_equivalent(&stream, 40, 1);
}
