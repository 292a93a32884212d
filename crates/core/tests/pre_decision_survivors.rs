//! Objects a hot context allocated before its first decision was
//! published must not ratchet that decision upward. Left ageing in the
//! young generation, they survive into every fresh OLD-table window as a
//! band of columns that moves up by the inference period each epoch, and
//! the §6.2 upward merge raised the context's generation epoch after
//! epoch (3 → 5 → 9 → 13 on the served mix; 2 → 4 → 8 in this run when
//! young survivors wait for the tenuring age). Promoted into their
//! generation at their next evacuation, they leave no such band.

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp::RolpConfig;
use rolp_vm::ThreadId;

/// GC cycles a held hot object lives.
const LIFETIME_CYCLES: u64 = 12;

/// One in this many hot objects is held; the rest die young.
const HELD_EVERY: u64 = 4;

/// GC cycles between inference passes: three epochs per lifetime.
const INFERENCE_PERIOD: u64 = 4;

/// Unprofiled churn allocations per iteration. They drive the GCs; the
/// hot live set stays far below the survivor space, so no survivor is
/// promoted by overflow.
const CHURN: u32 = 8;

/// The generations published for the hot context, in order, each listed
/// once per change, and the GC cycles the run took.
fn published_generations() -> (Vec<u8>, u64) {
    let mut b = rolp_vm::ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let table = b.method("app.Memtable::insert", 80, false);
    let call_insert = b.call_site(main, table);
    let site_cell = b.alloc_site(table, 11);
    let site_churn = b.alloc_site(main, 1);
    let program = b.build();

    let cfg = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 },
        rolp: RolpConfig { inference_period: INFERENCE_PERIOD, ..Default::default() },
        ..Default::default()
    };
    let mut rt = JvmRuntime::new(cfg, program);
    let class = rt.vm.env.heap.classes.register("app.Cell");
    let store =
        rt.profiler.as_ref().expect("rolp collector has a profiler").borrow().decision_store();

    let mut held = std::collections::VecDeque::new();
    let mut generations: Vec<u8> = Vec::new();
    let mut cycles = 0;
    for i in 0..3_000u64 {
        let mut ctx = rt.ctx(ThreadId(0));
        cycles = ctx.gc_cycles();
        while held.front().is_some_and(|&(expiry, _)| expiry <= cycles) {
            let (_, h) = held.pop_front().unwrap();
            ctx.release(h);
        }
        for _ in 0..CHURN {
            let h = ctx.alloc(site_churn, class, 0, 64);
            ctx.release(h);
        }
        ctx.call(call_insert, |ctx| {
            let cell = ctx.alloc(site_cell, class, 0, 4);
            if i % HELD_EVERY == 0 {
                held.push_back((cycles + LIFETIME_CYCLES, cell));
            } else {
                ctx.release(cell);
            }
        });
        ctx.complete_ops(1);

        let snapshot = store.load();
        let rows: Vec<(u32, u8)> = snapshot.iter().collect();
        assert!(rows.len() <= 1, "only the hot site is profiled: {rows:?}");
        if let Some(&(_, gen)) = rows.first() {
            if generations.last() != Some(&gen) {
                generations.push(gen);
            }
        }
    }
    (generations, cycles)
}

#[test]
fn pre_decision_survivors_do_not_ratchet_the_published_generation() {
    let (generations, cycles) = published_generations();
    assert!(
        cycles >= 8 * INFERENCE_PERIOD,
        "the run spans several epochs after the first decision: {cycles} cycles"
    );
    let first = *generations.first().expect("the hot context is decided");
    assert!(first >= 1, "the hot context is pretenured: {generations:?}");
    assert!(
        generations.iter().all(|&g| g <= first),
        "the published generation never rises after the first decision: {generations:?}"
    );
}
