//! A multimodal allocation site that only one declared call path reaches
//! is decided at its first inference epoch instead of being probed: no
//! call site can split its contexts, so §5 probing would be wasted. The
//! same program with a second caller of the factory still takes the §5
//! path (conflict detected, OLD table expanded). A decided single-path
//! site that turns multimodal again keeps its decision and stays out of
//! the resolver too.

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp::{RolpConfig, RolpStats};
use rolp_vm::ThreadId;

/// The §7.5 OLD table with no expansion block.
const BASE_TABLE_BYTES: u64 = 4 << 20;

/// GC cycles a held factory object lives: a clear second mode next to the
/// transient one, as in the DaCapo conflict factories.
const HELD_CYCLES: u64 = 8;

/// Unprofiled churn allocations per iteration.
const CHURN: u32 = 8;

/// Churn that makes GCs twice as frequent, for the re-conflict case.
const HEAVY_CHURN: u32 = 16;

/// The profiler's default inference period (§4: the maximum object age).
const DEFAULT_PERIOD: u64 = 16;

/// The serving runs' inference period, for the re-conflict case. Objects
/// allocated before the epoch-1 publish are promoted at the next
/// evacuation, which records their last young survival into the next
/// window; a window this short holds few enough age-0 entries that
/// those survivals form a second peak, so the decided factory row goes
/// multimodal again.
const SHORT_PERIOD: u64 = 2;

/// Final published `(row key, generation)` list and profiler counters.
type Outcome = (Vec<(u32, u8)>, RolpStats);

/// Drives a program whose hot factory alternates transient and held
/// objects, rotating iterations across `threads` guest threads. `churn`
/// unprofiled allocations per iteration in the never-compiled root keep
/// young survivors from overflowing. With `two_callers`, the held objects
/// come through a second worker and call site instead, so the two
/// lifetimes arrive on two call paths. The profiler infers every
/// `inference_period` GC cycles.
fn run(threads: u32, two_callers: bool, churn: u32, inference_period: u64) -> Outcome {
    let mut b = rolp_vm::ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let worker = b.method("app.Worker::step", 80, false);
    let maker = b.method("app.Factory::make", 60, false);
    let call_worker = b.call_site(main, worker);
    let call_maker = b.call_site(worker, maker);
    let held_path = two_callers.then(|| {
        let other = b.method("app.Other::step", 80, false);
        (b.call_site(main, other), b.call_site(other, maker))
    });
    let site_factory = b.alloc_site(maker, 3);
    let site_churn = b.alloc_site(main, 1);
    let program = b.build();

    let cfg = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 18 },
        threads,
        rolp: RolpConfig { inference_period, ..Default::default() },
        ..Default::default()
    };

    let mut rt = JvmRuntime::new(cfg, program);
    let class = rt.vm.env.heap.classes.register("app.Item");
    let mut held = std::collections::VecDeque::new();
    for i in 0..100_000u64 {
        let mut ctx = rt.ctx(ThreadId((i % u64::from(threads)) as u32));
        let cycle = ctx.gc_cycles();
        while held.front().is_some_and(|&(expiry, _)| expiry <= cycle) {
            let (_, h) = held.pop_front().unwrap();
            ctx.release(h);
        }
        for _ in 0..churn {
            let h = ctx.alloc(site_churn, class, 0, 4);
            ctx.release(h);
        }
        let keep = i % 2 == 1;
        let (outer, inner) = match held_path {
            Some(path) if keep => path,
            _ => (call_worker, call_maker),
        };
        ctx.call(outer, |ctx| {
            ctx.call(inner, |ctx| {
                let f = ctx.alloc(site_factory, class, 0, 4);
                if keep {
                    held.push_back((cycle + HELD_CYCLES, f));
                } else {
                    ctx.release(f);
                }
            });
        });
        ctx.complete_ops(1);
    }

    let report = rt.report();
    let profiler = rt.profiler.as_ref().expect("rolp collector has a profiler");
    let decisions = profiler.borrow().decision_store().load().iter().collect();
    (decisions, report.rolp.expect("rolp stats"))
}

#[test]
fn single_path_conflict_is_decided_at_the_first_epoch_at_any_thread_count() {
    let (one, stats_one) = run(1, false, CHURN, DEFAULT_PERIOD);
    let (four, stats_four) = run(4, false, CHURN, DEFAULT_PERIOD);
    for stats in [&stats_one, &stats_four] {
        assert_eq!(stats.conflicts.single_path, 1, "{stats:?}");
        assert_eq!(stats.conflicts.detected, 0, "{stats:?}");
        assert_eq!(stats.conflicts.probe_rounds, 0, "{stats:?}");
        assert_eq!(stats.last_change_epoch, 1, "{stats:?}");
        assert_eq!(stats.old_table_bytes, BASE_TABLE_BYTES, "{stats:?}");
    }
    assert_eq!(one.len(), 1, "the factory row is published: {one:?}");
    assert!(one[0].1 > 0, "the factory row is pretenured: {one:?}");
    assert_eq!(one, four, "1 and 4 guest threads publish the same table");
}

#[test]
fn two_callers_keep_the_conflict_path() {
    let (_, stats) = run(1, true, CHURN, DEFAULT_PERIOD);
    assert_eq!(stats.conflicts.single_path, 0, "{stats:?}");
    assert_eq!(stats.conflicts.detected, 1, "{stats:?}");
    assert!(stats.conflicts.probe_rounds >= 1, "{stats:?}");
    assert_eq!(stats.old_table_bytes, 2 * BASE_TABLE_BYTES, "one expansion block: {stats:?}");
}

#[test]
fn decided_single_path_site_that_re_conflicts_stays_out_of_the_resolver() {
    let (table, stats) = run(1, false, HEAVY_CHURN, SHORT_PERIOD);
    assert_eq!(stats.conflicts.single_path, 1, "{stats:?}");
    assert_eq!(stats.conflicts.detected, 0, "{stats:?}");
    assert_eq!(stats.conflicts.probe_rounds, 0, "{stats:?}");
    assert_eq!(stats.conflicts.exhausted, 0, "{stats:?}");
    assert_eq!(stats.old_table_bytes, BASE_TABLE_BYTES, "no expansion block: {stats:?}");
    assert_eq!(stats.last_change_epoch, 1, "the epoch-1 decision stays put: {stats:?}");
    assert_eq!(table.len(), 1, "the site-wide factory row is published: {table:?}");
}

#[test]
fn a_single_path_site_counts_once_however_often_it_re_conflicts() {
    let mut resolver = rolp::ConflictResolver::new(0);
    for _epoch in 0..3 {
        resolver.note_single_path(7);
    }
    resolver.note_single_path(9);
    assert_eq!(resolver.stats().single_path, 2);
    assert_eq!(resolver.stats().detected, 0);
}
