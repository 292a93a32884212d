//! Diagnostic probes (ignored by default): run one workload under ROLP
//! and dump the profiler's internal state — decisions, OLD-table rows,
//! stats, and the biggest pauses with timestamps. Invaluable when tuning
//! workloads or investigating why a decision did or did not form.
//!
//! ```sh
//! cargo test --release -p rolp-bench --test debug_probe -- --ignored --nocapture
//! ```

use rolp::runtime::{CollectorKind, JvmRuntime};
use rolp_metrics::SimScale;
use rolp_workloads::{CassandraMix, RunBudget, Workload};

#[test]
#[ignore]
fn probe_lucene_rolp_decisions() {
    let scale = SimScale::new(64);
    let w = rolp_bench::lucene(scale);
    probe(Box::new(w), scale, 200);
}

#[test]
#[ignore]
fn probe_graphchi_rolp_decisions() {
    let scale = SimScale::new(64);
    let w = rolp_bench::graphchi(rolp_workloads::GraphAlgo::ConnectedComponents, scale);
    probe(Box::new(w), scale, 200);
}

fn probe(mut w: Box<dyn Workload>, scale: SimScale, secs: u64) {
    let heap = rolp_bench::bigdata_heap(scale);
    let config = {
        let mut c = rolp_bench::runtime_config(CollectorKind::RolpNg2c, heap, scale);
        c.rolp.filters = w.profiling_filters();
        c
    };
    let program = w.build_program();
    let mut rt = JvmRuntime::new(config, program);
    w.setup(&mut rt);

    let budget = RunBudget::scaled_run(secs);
    let mut ops = 0u64;
    loop {
        let mut ctx = rt.ctx(rolp_vm::ThreadId(0));
        ops += w.tick(&mut ctx);
        if rt.vm.env.clock.now() >= budget.sim_time {
            break;
        }
    }
    let p = rt.profiler.clone().unwrap();
    let p = p.borrow();
    println!("ops={ops} cycles={}", rt.vm.collector.gc_cycles());
    println!("decisions:");
    for (k, g) in p.decisions() {
        println!("  ctx {:#010x} (site {}, tss {}) -> gen {}", k, k >> 16, k & 0xFFFF, g);
    }
    println!("touched rows now:");
    for key in p.old.touched_rows() {
        let h = p.old.histogram(key);
        println!("  site {:>3} tss {:>5}: {:?}", key >> 16, key & 0xFFFF, h);
    }
    let stats = p.stats(&rt.vm.env.program, &rt.vm.env.jit);
    println!("stats: {stats:#?}");
    // Pause-kind summary.
    use rolp_metrics::PauseKind::*;
    for k in [Young, Mixed, Full, ConcurrentHandshake] {
        let evs: Vec<_> =
            rt.vm.env.pauses.events().iter().filter(|e| e.kind == k).cloned().collect();
        if !evs.is_empty() {
            let max = evs.iter().map(|e| e.duration.as_millis_f64()).fold(0.0, f64::max);
            println!("{}: {} pauses, max {:.1} ms", k.label(), evs.len(), max);
            // last few big ones with timestamps
            let mut big: Vec<_> =
                evs.iter().filter(|e| e.duration.as_millis_f64() > 20.0).collect();
            if big.len() > 6 {
                let n = big.len();
                big = big.split_off(n - 6);
            }
            for e in big {
                println!(
                    "    at {:>8.1}s: {:.1} ms",
                    e.at.as_secs_f64(),
                    e.duration.as_millis_f64()
                );
            }
        }
    }
}

#[test]
#[ignore]
fn probe_cassandra_rolp_decisions() {
    let scale = SimScale::new(128);
    let mut w = rolp_bench::cassandra(CassandraMix::WriteIntensive, scale);
    let heap = rolp_bench::bigdata_heap(scale);
    let config = {
        let mut c = rolp_bench::runtime_config(CollectorKind::RolpNg2c, heap, scale);
        c.rolp.filters = w.profiling_filters();
        c
    };
    let program = w.build_program();
    let mut rt = JvmRuntime::new(config, program);
    w.setup(&mut rt);

    let budget = RunBudget::scaled_run(60);
    let mut ops = 0u64;
    loop {
        let mut ctx = rt.ctx(rolp_vm::ThreadId(0));
        ops += w.tick(&mut ctx);
        if rt.vm.env.clock.now() >= budget.sim_time {
            break;
        }
    }
    let p = rt.profiler.clone().unwrap();
    let p = p.borrow();
    println!("ops={ops} cycles={}", rt.vm.collector.gc_cycles());
    println!("decisions:");
    for (k, g) in p.decisions() {
        println!("  ctx {:#010x} (site {}, tss {}) -> gen {}", k, k >> 16, k & 0xFFFF, g);
    }
    println!("touched rows now:");
    for key in p.old.touched_rows() {
        let h = p.old.histogram(key);
        println!("  site {:>3} tss {:>5}: {:?}", key >> 16, key & 0xFFFF, h);
    }
    let stats = p.stats(&rt.vm.env.program, &rt.vm.env.jit);
    println!("stats: {stats:#?}");
}
