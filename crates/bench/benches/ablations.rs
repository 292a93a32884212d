//! Ablation studies for the design choices the paper calls out.
//!
//! 1. *Hot-code-only profiling* (§3.2) vs profiling everything from the
//!    first execution (Memento-style, §9.1) — throughput overhead.
//! 2. *Skip-inlined-calls* (§7.2.1) on/off — profiled-site count and
//!    conflict resolvability.
//! 3. *Survivor-tracking shutdown* (§7.4) on/off — mean pause time once
//!    the workload is stable.
//! 4. *Allocation-site-only contexts* vs site + thread-stack-state — why
//!    conflicts need call-path information (§1, §9.2: Memento's binary
//!    decision problem).
//! 5. *Unsynchronized OLD counters* (§7.6) — injected increment loss vs
//!    decision stability.

use rolp::runtime::{CollectorKind, RuntimeConfig};
use rolp::ProfilingLevel;
use rolp_bench::{banner, scale, TextTable};
use rolp_metrics::SimScale;
use rolp_vm::{CostModel, JitConfig};
use rolp_workloads::{
    benchmark, execute, CassandraMix, DacapoBench, DacapoSpec, RunBudget, Workload,
};

fn dacapo_config(spec: &DacapoSpec, scale: SimScale) -> RuntimeConfig {
    RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: spec.heap_config(scale),
        cost: CostModel::scaled(scale),
        ..Default::default()
    }
}

/// Ablation 1: profile only hot (jitted) code, as ROLP does, vs
/// instrumenting interpreted code from the first execution, as Memento
/// does (paper §9.1). A high compile threshold keeps a large share of the
/// code base interpreted so the coverage/cost trade is visible.
fn hot_code_only(scale: SimScale) {
    println!("--- Ablation 1: hot-code-only vs interpret-time profiling (Sections 3.2, 9.1) ---");
    let spec = DacapoSpec { ops: 6_000, ..benchmark("fop").expect("fop") };
    let mut table =
        TextTable::new(vec!["mode", "exec time", "profiled allocs", "unprofiled allocs"]);
    for (label, interp) in [("hot-only (ROLP)", false), ("interpreted too (Memento-style)", true)] {
        let mut bench = DacapoBench::new(spec.clone(), 3);
        let mut config = dacapo_config(&spec, scale);
        config.jit = JitConfig {
            compile_threshold: 2_000,
            profile_interpreted: interp,
            ..Default::default()
        };
        let out = execute(&mut bench, config, &RunBudget::smoke(spec.ops));
        let r = out.report.rolp.expect("rolp");
        table.row(vec![
            label.to_string(),
            format!("{}", out.report.elapsed),
            r.profiled_allocations.to_string(),
            r.unprofiled_allocations.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expect: interpret-time profiling covers every allocation but pays a much\n\
         higher per-allocation cost; ROLP trades a little coverage for speed\n"
    );
}

/// Ablation 2: inlined call sites never carry profiling code.
fn skip_inlined(scale: SimScale) {
    println!("--- Ablation 2: skip-inlined-calls optimization (Section 7.2.1) ---");
    let spec = DacapoSpec { ops: 6_000, ..benchmark("fop").expect("fop") };
    let mut table = TextTable::new(vec!["mode", "exec time", "profilable call sites"]);
    for (label, inline_size) in [("inlining on (<=36 bytecodes)", 36u32), ("inlining off", 0)] {
        let mut bench = DacapoBench::new(spec.clone(), 3);
        let mut config = dacapo_config(&spec, scale);
        config.jit = JitConfig { inline_size, ..Default::default() };
        config.rolp.level = ProfilingLevel::SlowCallProfiling; // make call cost visible
        let out = execute(&mut bench, config, &RunBudget::smoke(spec.ops));
        let r = out.report.rolp.expect("rolp");
        table.row(vec![
            label.to_string(),
            format!("{}", out.report.elapsed),
            r.installed_call_sites.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("expect: disabling inlining exposes many more profiled call sites and costs time\n");
}

/// Ablation 3: survivor-tracking shutdown.
fn survivor_shutdown(scale: SimScale) {
    println!("--- Ablation 3: survivor-tracking shutdown (Section 7.4) ---");
    let heap = rolp_bench::bigdata_heap(scale);
    let budget = rolp_bench::bigdata_budget(scale);
    let mut table = TextTable::new(vec![
        "mode",
        "stable mean ms",
        "p99 ms",
        "off/on switches",
        "survivor records",
    ]);
    for (label, shutdown) in [("shutdown enabled", true), ("always tracking", false)] {
        let mut w = rolp_bench::cassandra(CassandraMix::WriteIntensive, scale);
        let mut config = rolp_bench::runtime_config(CollectorKind::RolpNg2c, heap.clone(), scale);
        config.rolp.survivor_shutdown = shutdown;
        config.rolp.filters = w.profiling_filters();
        let out = execute(&mut w, config, &budget);
        let r = out.report.rolp.expect("rolp");
        // Stable phase: the last third of the run.
        let stable_from = rolp_metrics::SimTime::from_nanos(budget.sim_time.as_nanos() * 2 / 3);
        let stable: Vec<f64> = out
            .raw_pauses
            .events_between(stable_from, budget.sim_time)
            .map(|e| e.duration.as_millis_f64())
            .collect();
        let stable_mean =
            if stable.is_empty() { 0.0 } else { stable.iter().sum::<f64>() / stable.len() as f64 };
        table.row(vec![
            label.to_string(),
            format!("{stable_mean:.2}"),
            format!("{:.2}", out.pauses.percentile_ms(99.0)),
            format!("{}/{}", r.survivor_shutdowns, r.survivor_reactivations),
            r.survivor_records.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("expect: shutdown trims the per-survivor table-lookup share of stable-phase pauses\n");
}

/// Ablation 4: allocation-site-only contexts cannot separate call paths.
fn site_only_contexts(scale: SimScale) {
    println!("--- Ablation 4: site-only vs site+stack-state contexts (Sections 1, 5) ---");
    // GC-cycle budget, not op budget: conflict detection needs inference
    // rounds, whose cadence scales with the heap.
    let ops = 9_600_000 / scale.divisor();
    let spec = DacapoSpec { ops, ..benchmark("pmd").expect("pmd") };
    let mut table =
        TextTable::new(vec!["mode", "conflicts detected", "resolved", "distinguishing sites kept"]);
    for (label, level) in [
        ("site-only (no call tracking)", ProfilingLevel::FastCallProfiling),
        ("site + stack state (real)", ProfilingLevel::Real),
    ] {
        let mut bench = DacapoBench::new(spec.clone(), 3);
        let mut config = dacapo_config(&spec, scale);
        config.rolp.level = level;
        let out = execute(&mut bench, config, &RunBudget::smoke(spec.ops));
        let r = out.report.rolp.expect("rolp");
        table.row(vec![
            label.to_string(),
            r.conflicts.detected.to_string(),
            r.conflicts.resolved.to_string(),
            r.conflicts.frozen_sites.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expect: conflicts are detected either way (the multimodal curves are visible\n\
         in the site rows), but only thread-stack-state tracking can separate the\n\
         call paths and resolve them — the paper's Section 1 argument against\n\
         site-only indicators\n"
    );
}

/// Ablation 5: §7.6 unsynchronized-counter loss — *measured*, not
/// simulated. Real OS mutator threads hammer the shared OLD table with
/// racy relaxed increments; per-epoch reconciliation against exact
/// per-thread tallies reports how many increments the races actually
/// lost, and the merged histograms are compared cell-by-cell against the
/// single-threaded reference.
fn old_table_loss(_scale: SimScale) {
    use rolp_bench::concurrent::{
        compare_to_reference, run_concurrent, run_reference, ConcurrentConfig,
    };
    println!("--- Ablation 5: unsynchronized OLD-table increments (Section 7.6) ---");
    let mut table = TextTable::new(vec![
        "mutator threads",
        "intended increments",
        "lost (measured)",
        "loss",
        "histogram deviation",
    ]);
    for threads in [1usize, 2, 4, 8] {
        let config = ConcurrentConfig { mutator_threads: threads, ..Default::default() };
        let run = run_concurrent(&config);
        let reference = run_reference(&config);
        let report = compare_to_reference(&run.histograms, &reference.histograms);
        assert!(
            report.within_bound(run.total_lost),
            "loss bound violated: deviation {} > measured loss {}",
            report.total_abs_dev,
            run.total_lost
        );
        table.row(vec![
            threads.to_string(),
            run.total_intended.to_string(),
            run.total_lost.to_string(),
            rolp_bench::fmt_pct(run.total_lost as f64 / run.total_intended.max(1) as f64, 2),
            report.total_abs_dev.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "expect: contention may drop some age-0 counts, but the merged histograms\n\
         never exceed the reference and deviate by at most the measured loss —\n\
         the decisions the profiler derives from the shape are unaffected\n"
    );
}

fn main() {
    let scale = scale();
    banner("Ablations: the paper's design choices, isolated", scale);
    hot_code_only(scale);
    skip_inlined(scale);
    survivor_shutdown(scale);
    site_only_contexts(scale);
    old_table_loss(scale);
}
