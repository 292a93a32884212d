//! Figure 7: worst-case conflict-resolution time.
//!
//! The §5 algorithm converges in `ceil(1/P)` probing rounds of 16 GC
//! cycles each; the paper plots the worst case per DaCapo benchmark for
//! P ∈ {5%, 10%, 20%, 50%} using the measured average GC interval. This
//! harness does the same — it measures each benchmark's GC interval and
//! jitted-call-site count from a short ROLP run, applies the model, and
//! then cross-checks the model against an *actual* resolution on a
//! conflict-bearing benchmark.

use rolp::runtime::{CollectorKind, RuntimeConfig};
use rolp::worst_case_resolution_time_ms;
use rolp_bench::{banner, scale, TextTable};
use rolp_vm::CostModel;
use rolp_workloads::{all_benchmarks, benchmark, execute, DacapoBench, DacapoSpec, RunBudget};

const P_VALUES: [f64; 4] = [0.05, 0.10, 0.20, 0.50];

/// Measured inputs for the model: jitted call sites and mean GC interval.
fn measure(spec: &DacapoSpec, scale: rolp_metrics::SimScale) -> (usize, f64) {
    let mut bench = DacapoBench::new(spec.clone(), 7);
    let config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: spec.heap_config(scale),
        cost: CostModel::scaled(scale),
        ..Default::default()
    };
    let ops = spec.ops.min(6_000);
    let out = execute(&mut bench, config, &RunBudget::smoke(ops));
    let rolp = out.report.rolp.expect("rolp stats");
    let cycles = out.report.gc_cycles.max(1);
    let interval_ms = out.report.elapsed.as_millis_f64() / cycles as f64;
    (rolp.conflicts.frozen_sites as usize + rolp.installed_call_sites, interval_ms)
}

fn main() {
    let scale = scale();
    banner("Figure 7: worst-case conflict resolution time (ms) vs P", scale);

    let mut table = TextTable::new(vec![
        "benchmark",
        "jitted calls",
        "GC interval",
        "P=5%",
        "P=10%",
        "P=20%",
        "P=50%",
    ]);
    for spec in all_benchmarks() {
        let (call_sites, interval_ms) = measure(&spec, scale);
        let mut row =
            vec![spec.name.to_string(), call_sites.to_string(), format!("{interval_ms:.0}ms")];
        for p in P_VALUES {
            let ms = worst_case_resolution_time_ms(call_sites, p, interval_ms, 16);
            row.push(format!("{:.1}s", ms / 1_000.0));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "shape check: time scales with 1/P (P=5% is 10x P=50%); the paper reports\n\
         worst cases up to ~520 s at P=20%, under two minutes for most benchmarks.\n"
    );

    // Cross-check: measure an actual resolution on pmd (6 conflicts).
    // Scale the op budget with the heap so the run spans enough GC cycles
    // for several resolution rounds at any experiment scale.
    let ops = 16_000_000 / scale.divisor();
    let spec = DacapoSpec { ops, ..benchmark("pmd").expect("pmd exists") };
    let mut bench = DacapoBench::new(spec.clone(), 7);
    let config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: spec.heap_config(scale),
        cost: CostModel::scaled(scale),
        ..Default::default()
    };
    let out = execute(&mut bench, config, &RunBudget::smoke(spec.ops));
    let rolp = out.report.rolp.expect("rolp stats");
    println!(
        "cross-check [pmd, P=20%]: detected {} conflict site(s), resolved {}, \
         {} probe rounds, over {} GC cycles ({} elapsed)",
        rolp.conflicts.detected,
        rolp.conflicts.resolved,
        rolp.conflicts.probe_rounds,
        out.report.gc_cycles,
        out.report.elapsed,
    );
    println!(
        "model predicts <= {} probe rounds at P=20% (ceil(1/P) = 5 per conflict; conflicts\n\
         are worked sequentially, plus shrink rounds to find each minimal set S)",
        5 * rolp.conflicts.detected.max(1)
    );
}
