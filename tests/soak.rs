//! Soak test: sustained mixed workload under ROLP with periodic
//! whole-heap verification (structure + remembered-set completeness after
//! full compactions).
//!
//! The iteration count is env-bounded: set `ROLP_SOAK_ITERS` to shorten
//! (or lengthen) the soak without editing the test. The run is fully
//! seed-deterministic — the runtime seed is pinned below, so two runs of
//! the same binary see the same allocation stream.

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp_heap::verify::verify_heap;
use rolp_heap::HeapConfig;
use rolp_vm::ThreadId;
use rolp_workloads::{CassandraMix, CassandraParams, CassandraWorkload, Workload};

/// Deterministic seed for every soak run (also the default runtime seed,
/// pinned here explicitly so a config-default change cannot silently
/// change what this test exercises).
const SOAK_SEED: u64 = 42;

/// Soak length: `ROLP_SOAK_ITERS` ticks, default 200k.
fn soak_iters() -> u64 {
    std::env::var("ROLP_SOAK_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000)
}

fn soak_workload() -> CassandraWorkload {
    CassandraWorkload::new(CassandraParams {
        mix: CassandraMix::WriteIntensive,
        memtable_flush_entries: 2_500,
        key_space: 25_000,
        row_cache_entries: 1_200,
        op_pacing_ns: 1_000,
        ..Default::default()
    })
}

#[test]
fn sustained_kv_load_keeps_the_heap_valid() {
    let mut w = soak_workload();
    let config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 24 << 20 },
        threads: 2,
        seed: SOAK_SEED,
        ..Default::default()
    };
    let program = w.build_program();
    let mut rt = JvmRuntime::new(config, program);
    w.setup(&mut rt);

    let iters = soak_iters();
    let mut last_cycles = 0;
    for i in 0..iters {
        let mut ctx = rt.ctx(ThreadId((i % 2) as u32));
        w.tick(&mut ctx);

        // Verify at (roughly) every 25th GC cycle — expensive, so sparse.
        let cycles = rt.vm.collector.gc_cycles();
        if cycles >= last_cycles + 25 {
            last_cycles = cycles;
            let errors = verify_heap(&rt.vm.env.heap, false);
            assert!(
                errors.is_empty(),
                "heap invariants violated after {cycles} cycles: {:?}",
                errors.first()
            );
        }
    }
    if iters >= 200_000 {
        assert!(last_cycles >= 50, "the soak must actually exercise many collections");
    }

    // Final deep check including remembered-set completeness right after a
    // marking-grade event: run a full compaction and verify everything.
    let mut hooks = rolp_gc::NullHooks;
    rolp_gc::full_compact(&mut rt.vm.env, &mut hooks);
    let errors = verify_heap(&rt.vm.env.heap, true);
    assert!(errors.is_empty(), "post-compaction heap invalid: {:?}", errors.first());

    // The workload's own data structures survived it all.
    if iters >= 200_000 {
        assert!(w.flushes >= 10);
        let report = rt.report();
        let rolp = report.rolp.expect("rolp stats");
        assert!(rolp.inferences >= 3);
        assert!(rolp.decisions >= 2);
    }
}
