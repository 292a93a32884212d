//! Golden pin for the runtime's published decisions: one guest program
//! driven through the full runtime (JIT, GC cycles, epoch pipeline,
//! decision publication) at 1 and at 4 guest threads must publish exactly
//! the recorded [`rolp_vm::DecisionTable`] state — version, digest,
//! `(row key, generation)` list and epoch count. A change to the OLD
//! table, the worker merge, inference or publication that moves any
//! published decision fails here.

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp_vm::ThreadId;

/// Final published state: `(version, digest, decisions, epochs)`.
type Published = (u64, u64, Vec<(u32, u8)>, u64);

/// Drives a program with three allocation demographics (transient,
/// middle-aged ring, factory conflict) long enough for several inference
/// epochs, rotating iterations across `threads` guest threads, and
/// returns the final published decision state.
fn run(threads: u32) -> Published {
    let mut b = rolp_vm::ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let worker = b.method("app.Worker::step", 80, false);
    let maker = b.method("app.Factory::make", 60, false);
    let call_worker = b.call_site(main, worker);
    let call_maker = b.call_site(worker, maker);
    let site_transient = b.alloc_site(worker, 1);
    let site_ring = b.alloc_site(main, 2);
    let site_factory = b.alloc_site(maker, 3);
    let program = b.build();

    let cfg = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 18 },
        threads,
        ..Default::default()
    };

    let mut rt = JvmRuntime::new(cfg, program);
    let class = rt.vm.env.heap.classes.register("app.Item");
    let mut ring = std::collections::VecDeque::new();
    let mut factory_held = std::collections::VecDeque::new();
    for i in 0..50_000u64 {
        let mut ctx = rt.ctx(ThreadId((i % u64::from(threads)) as u32));
        ctx.call(call_worker, |ctx| {
            let h = ctx.alloc(site_transient, class, 0, 4);
            ctx.release(h);
            let held = ctx.alloc(site_ring, class, 0, 4);
            ring.push_back(held);
            if ring.len() > 96 {
                ctx.release(ring.pop_front().unwrap());
            }
            // The factory site alternates between transient and held
            // objects — the §7.5 conflict that forces an expansion.
            ctx.call(call_maker, |ctx| {
                let f = ctx.alloc(site_factory, class, 0, 4);
                if i % 2 == 0 {
                    ctx.release(f);
                } else {
                    factory_held.push_back(f);
                    if factory_held.len() > 48 {
                        ctx.release(factory_held.pop_front().unwrap());
                    }
                }
            });
            ctx.complete_ops(1);
        });
    }

    let profiler = rt.profiler.as_ref().expect("rolp collector has a profiler");
    let p = profiler.borrow();
    let snapshot = p.decision_store().load();
    (snapshot.version(), snapshot.digest(), snapshot.iter().collect(), p.inferences())
}

/// Both thread counts learn the same two site rows at generation 0.
const DECISIONS: [(u32, u8); 2] = [(1 << 16, 0), (2 << 16, 0)];
const DIGEST: u64 = 0x7bb7_e7e7_462b_bb6e;

#[test]
fn one_guest_thread_publishes_the_recorded_decisions() {
    let (version, digest, decisions, epochs) = run(1);
    assert_eq!(epochs, 7, "epoch count");
    assert_eq!(version, 7, "publication count");
    assert_eq!(decisions, DECISIONS);
    assert_eq!(digest, DIGEST);
}

#[test]
fn four_guest_threads_publish_the_recorded_decisions() {
    let (version, digest, decisions, epochs) = run(4);
    assert_eq!(epochs, 9, "epoch count");
    assert_eq!(version, 9, "publication count");
    assert_eq!(decisions, DECISIONS);
    assert_eq!(digest, DIGEST);
}
