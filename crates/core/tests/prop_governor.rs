//! Property tests for the overhead governor under arbitrary fault plans.
//!
//! Two guarantees (DESIGN.md §13):
//!
//! 1. **Turning profiling off never remaps a context.** A surviving
//!    allocation context either keeps its published meaning or falls back
//!    to gen-0 semantics (no decision) — it is never advised to a
//!    *different* generation than the working set holds for it.
//! 2. **`Off` is the disabled profiler, bit for bit.** A governor pinned
//!    in `Off` produces exactly the run a profiler that matches nothing
//!    produces: same clock, same pauses, same placement, same watermarks.

use proptest::prelude::*;
use rolp::context::site_of;
use rolp::governor::{GovernorConfig, GovernorState};
use rolp::profiler::{RolpConfig, RolpProfiler};
use rolp_faults::{FaultKind, FaultPlan};
use rolp_gc::{GcCycleInfo, GcHooks};
use rolp_heap::{ObjectHeader, RegionKind};
use rolp_metrics::{PauseKind, SimTime};
use rolp_vm::{CostModel, JitConfig, ProgramBuilder, ThreadId, VmEnv, VmProfiler};

fn cycle_info(cycle: u64) -> GcCycleInfo {
    GcCycleInfo {
        cycle,
        kind: PauseKind::Young,
        bytes_copied: 0,
        survivors: 0,
        duration: SimTime::from_millis(5),
        tenured_fragmentation: 0.0,
        dynamic_gen_garbage: [0.0; 16],
    }
}

fn fault_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (1u64..48).prop_map(|at_cycle| FaultKind::SiteIdExhaustion { at_cycle }),
        (1u64..48, 1u64..32, 1u64..300_000).prop_map(|(from_cycle, len, events_per_cycle)| {
            FaultKind::AllocBurst { from_cycle, until_cycle: from_cycle + len, events_per_cycle }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Drive a governed profiler through 64 GC cycles of load under an
    /// arbitrary fault plan. The driver charges no mutator time, so every
    /// cycle a burst covers is all profiling: bursts turn profiling off,
    /// and calm epochs after them turn it back on. Nothing may panic, the
    /// site's profile id may never change, and published advice may never
    /// contradict the retained working set.
    #[test]
    fn surviving_contexts_never_change_meaning(
        faults in prop::collection::vec(fault_strategy(), 0..4),
    ) {
        let mut b = ProgramBuilder::new();
        let m = b.method("app.data.Maker::make", 100, false);
        let site = b.alloc_site(m, 1);
        let program = b.build();
        let heap = rolp_heap::Heap::new(rolp_heap::HeapConfig {
            region_bytes: 4096,
            max_heap_bytes: 1 << 20,
        });
        let mut env = VmEnv::new(heap, CostModel::default(), program, JitConfig::default(), 1);
        let program = std::rc::Rc::clone(&env.program);

        let mut p = RolpProfiler::new(RolpConfig {
            governor: Some(GovernorConfig::default()),
            fault_plan: Some(FaultPlan { name: "prop".into(), faults }),
            survivor_shutdown: false,
            ..Default::default()
        });
        p.on_jit_compile(&program, &mut env.jit, m);
        let pid = env.jit.alloc_site(site).profile_id.expect("site gets an id");

        for cycle in 1..=64u64 {
            for i in 0..8u16 {
                let ctx = p.on_alloc(pid, i % 2, ThreadId(0));
                prop_assert_eq!(site_of(ctx), pid, "the governor must not remap the site id");
                let h = ObjectHeader::new(1).with_allocation_context(ctx);
                p.on_survivor(h, RegionKind::Eden, 0);
                p.on_survivor(h.with_age(1), RegionKind::Eden, 1);
            }
            p.on_gc_end(&mut env, &cycle_info(cycle));
        }

        // The saturating id assignment survived whatever was injected.
        prop_assert_eq!(env.jit.alloc_site(site).profile_id, Some(pid));

        let state = p.governor_state().expect("governed run reports a state");
        for (&ctx, &gen) in p.decisions() {
            match p.advise(ctx) {
                // Demoted to gen-0 semantics: allowed (that is `Off`).
                None => {}
                // Still published: must mean exactly what the working set
                // says — never remapped to another generation.
                Some(g) => prop_assert_eq!(g, gen, "context {:#010x} was remapped", ctx),
            }
            if state == GovernorState::Off {
                prop_assert_eq!(
                    p.advise(ctx), None,
                    "Off must publish the all-gen-0 table"
                );
            }
        }
    }
}

/// A deterministic synthetic workload through the full runtime: allocate
/// through a profiled call path, hold a sliding window live so objects
/// survive collections, release the rest. The heap is verified at the
/// end-of-run safepoint before the report is taken.
fn run_workload(config: rolp::runtime::RuntimeConfig) -> rolp::runtime::RunReport {
    run_workload_n(config, 20_000)
}

fn run_workload_n(config: rolp::runtime::RuntimeConfig, iters: u64) -> rolp::runtime::RunReport {
    use rolp::runtime::JvmRuntime;

    let mut b = ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let worker = b.method("app.Worker::step", 80, false);
    let call = b.call_site(main, worker);
    let site = b.alloc_site(worker, 1);
    let site2 = b.alloc_site(main, 2);
    let program = b.build();

    let mut rt = JvmRuntime::new(config, program);
    let class = rt.vm.env.heap.classes.register("app.Item");
    let mut ring = std::collections::VecDeque::new();
    for _ in 0..iters {
        let mut ctx = rt.ctx(ThreadId(0));
        ctx.call(call, |ctx| {
            let h = ctx.alloc(site, class, 0, 4);
            ctx.release(h);
            let held = ctx.alloc(site2, class, 0, 4);
            ring.push_back(held);
            if ring.len() > 64 {
                ctx.release(ring.pop_front().unwrap());
            }
            ctx.complete_ops(1);
        });
    }
    let report = rt.report();
    let errors = rolp_heap::verify::verify_heap(&rt.vm.env.heap, false);
    assert!(errors.is_empty(), "heap invalid at end of run: {:?}", errors.first());
    report
}

/// Guarantee 2: a governor started (and so pinned) in `Off` is
/// indistinguishable from a profiler whose filters match
/// nothing — identical clock, pauses, heap watermarks, and throughput.
/// Checked in both allocation modes: the TLAB fast path (the default)
/// and the shared slow path, since governor `Off` patches out profiling
/// but must leave the allocation machinery untouched.
fn assert_governor_off_is_disabled_profiler(tlab_bytes: usize) {
    use rolp::runtime::{CollectorKind, RuntimeConfig};
    use rolp::PackageFilters;

    let base = || RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
        tlab_bytes,
        ..Default::default()
    };

    let mut governed_cfg = base();
    governed_cfg.rolp.governor = Some(GovernorConfig { start_state: GovernorState::Off });
    let governed = run_workload(governed_cfg);

    let mut disabled_cfg = base();
    disabled_cfg.rolp.filters = PackageFilters::include(&["no.such.pkg"]);
    let disabled = run_workload(disabled_cfg);

    // The governed run really was pinned off the whole time.
    let stats = governed.rolp.as_ref().expect("rolp stats");
    assert_eq!(stats.governor_state, Some("off"));
    assert_eq!(stats.profiled_allocations, 0, "nothing recorded while Off");
    assert_eq!(stats.decisions, 0);

    // Bit-for-bit run equality.
    assert_eq!(governed.elapsed, disabled.elapsed, "identical simulated clock");
    assert_eq!(governed.total_paused, disabled.total_paused, "identical pause time");
    assert_eq!(governed.ops, disabled.ops);
    assert_eq!(governed.gc_cycles, disabled.gc_cycles);
    assert_eq!(governed.pauses, disabled.pauses);
    assert_eq!(governed.max_used_bytes, disabled.max_used_bytes);
    assert_eq!(governed.max_committed_bytes, disabled.max_committed_bytes);
}

#[test]
fn governor_off_is_bit_for_bit_the_disabled_profiler() {
    // Fast path on (the default configuration).
    assert_governor_off_is_disabled_profiler(rolp_heap::DEFAULT_TLAB_BYTES);
}

#[test]
fn governor_off_is_bit_for_bit_the_disabled_profiler_without_fast_path() {
    assert_governor_off_is_disabled_profiler(0);
}

/// Canned fault plans with the allocation fast path enabled: turning
/// profiling `Off` and back on must never corrupt the heap or disturb
/// TLAB bookkeeping. Mirrors the fault-matrix CI job, which
/// drives the same canned plans through the CLI with TLABs both on and
/// off, and checks the same: the final state is `full` or `off`, and
/// `pressure-spike` reaches `Off` and recovers.
#[test]
fn canned_fault_plans_survive_with_tlabs_enabled() {
    for &plan in FaultPlan::canned_names() {
        let mut cfg = rolp::runtime::RuntimeConfig {
            collector: rolp::runtime::CollectorKind::RolpNg2c,
            heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
            ..Default::default()
        };
        assert!(cfg.tlab_bytes > 0, "fast path must be on by default");
        cfg.rolp.fault_plan = Some(FaultPlan::parse(plan).expect("canned plan"));
        cfg.rolp.governor = Some(GovernorConfig::default());

        // Long enough to pass the burst window (cycles 16..48) and the
        // two calm epochs after it; the heap is verified at the end-of-run
        // safepoint.
        let report = run_workload_n(cfg, 400_000);
        let stats = report.rolp.expect("rolp stats");
        assert!(
            matches!(stats.governor_state, Some("full" | "off")),
            "{plan}: governed run must report a final state: {stats:?}"
        );
        assert!(report.gc_cycles > 0, "{plan}: the plan must exercise collections");
        if plan == "pressure-spike" {
            assert!(stats.injected_fault_events > 0, "{plan}: the burst must fire: {stats:?}");
            assert!(
                stats.governor_transitions >= 2,
                "{plan}: must reach Off and recover: {stats:?}"
            );
        }
    }
}
