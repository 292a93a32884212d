//! Soak test: sustained mixed workload under ROLP with periodic
//! whole-heap verification (structure + remembered-set completeness after
//! full compactions).
//!
//! Iteration counts are env-bounded: set `ROLP_SOAK_ITERS` to shorten (or
//! lengthen) the soaks without editing the test. Both runs are fully
//! seed-deterministic — the runtime seed is pinned below, so two runs of
//! the same binary see the same allocation stream.

use rolp::governor::{GovernorConfig, GovernorState};
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

/// Fault-plan soak: a sustained allocation burst pushes the measured
/// profiling overhead over budget, so the governor turns profiling `Off`;
/// the burst then subsides and calm epochs bring it back to `Full` — with
/// whole-heap verification running throughout. Turning profiling off
/// under injected pressure never corrupts the heap, and the profiler
/// recovers on its own.
#[test]
fn fault_plan_soak_cycles_full_to_off_and_back() {
    let mut w = soak_workload();
    let mut config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 24 << 20 },
        threads: 2,
        seed: SOAK_SEED,
        ..Default::default()
    };
    // 500k injected events/cycle for cycles 24..80, each priced like a
    // profiled allocation, put the measured profiling overhead far over
    // its 5% budget: the epoch ending at cycle 32 turns profiling off.
    // After cycle 80 the plan is quiet, and two calm epochs turn it back
    // on.
    config.rolp.fault_plan =
        Some(rolp_faults::FaultPlan::parse("burst@24..80x500000").expect("valid plan"));
    config.rolp.governor = Some(GovernorConfig::default());

    let program = w.build_program();
    let mut rt = JvmRuntime::new(config, program);
    w.setup(&mut rt);

    let iters = soak_iters();
    let mut seen_states = std::collections::BTreeSet::new();
    let mut last_verified = 0;
    let mut i = 0u64;
    // Run until the governor has had time to turn off and back on
    // (recovery at cycle 112 with 16-cycle epochs), bounded by 2x the
    // soak budget.
    while rt.vm.collector.gc_cycles() < 160 && i < iters * 2 {
        let mut ctx = rt.ctx(ThreadId((i % 2) as u32));
        w.tick(&mut ctx);
        i += 1;

        let state =
            rt.profiler.as_ref().expect("rolp run").borrow().governor_state().expect("governed");
        seen_states.insert(state.label());

        let cycles = rt.vm.collector.gc_cycles();
        if cycles >= last_verified + 25 {
            last_verified = cycles;
            let errors = verify_heap(&rt.vm.env.heap, false);
            assert!(
                errors.is_empty(),
                "heap invariants violated under faults after {cycles} cycles: {:?}",
                errors.first()
            );
        }
    }
    assert!(
        rt.vm.collector.gc_cycles() >= 160,
        "soak too short to cycle the governor: {} cycles after {i} ticks",
        rt.vm.collector.gc_cycles()
    );

    // The governor visited Off and came back.
    assert!(seen_states.contains("off"), "states seen: {seen_states:?}");
    assert!(seen_states.contains("full"));
    let final_state = rt.profiler.as_ref().unwrap().borrow().governor_state().expect("governed");
    assert_eq!(final_state, GovernorState::Full, "profiling came back after the burst");

    let report = rt.report();
    let stats = report.rolp.expect("rolp stats");
    assert_eq!(stats.governor_transitions, 2, "Full -> Off -> Full");
    assert!(stats.injected_fault_events > 0);

    // The heap survived the whole ride.
    let mut hooks = rolp_gc::NullHooks;
    rolp_gc::full_compact(&mut rt.vm.env, &mut hooks);
    let errors = verify_heap(&rt.vm.env.heap, true);
    assert!(errors.is_empty(), "post-compaction heap invalid: {:?}", errors.first());
}
