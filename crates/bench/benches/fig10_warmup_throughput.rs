//! Figure 10: Cassandra WI warmup pause timeline (left), and throughput
//! and max memory usage normalized to G1 (middle, right).
//!
//! Left: pause times over the warmup window of a Cassandra WI run under
//! ROLP, bucketed per time slice. The paper's three phases must be
//! visible: (1) no lifetime information yet — G1-like pauses; (2) first
//! inference results — pauses drop as NG2C starts pretenuring; (3) more
//! profiling information — pauses stabilize low (paper: ~350 s; here
//! scaled with the GC-cycle compression).
//!
//! Middle/right: for every big-data workload, throughput and max memory
//! of CMS / ZGC / NG2C / ROLP normalized to G1. Paper shape: ROLP within
//! ~5-6% of G1 throughput with negligible memory overhead, while ZGC pays
//! a large throughput tax and more memory for its tiny pauses.
//!
//! CI hooks:
//! - `ROLP_BENCH_WARMUP=1` runs the warm-start comparison instead: the
//!   warmup window of Cassandra WI under ROLP started cold, warm (from a
//!   profile the cold run exported), and drifted-warm (from a profile
//!   learned on Cassandra RI — same program shape, different traffic).
//!   Reports the warmup-window p99 and time-to-stable-decisions (first
//!   epoch after which the published decision table stops changing) for
//!   each.
//! - `ROLP_BENCH_JSON=<file>` (warmup mode only) writes those rows as
//!   JSON for `scripts/warmup_gate.py --bench`.

use rolp::runtime::CollectorKind;
use rolp_bench::{
    banner, bigdata_budget, bigdata_heap, bigdata_workloads, run_one, scale, throughput_budget,
    TextTable,
};
use rolp_metrics::SimTime;
use rolp_workloads::{CassandraMix, RunBudget, RunOutcome};

/// One warm-start row for the warmup gate.
struct WarmupRow {
    label: &'static str,
    warmup_p99_ms: f64,
    epochs_to_stable: u64,
    pauses: usize,
    gc_cycles: u64,
    ops: u64,
}

fn warmup_row(label: &'static str, out: &RunOutcome, window: SimTime) -> WarmupRow {
    let rolp = out.report.rolp.as_ref().expect("warmup rows are ROLP runs");
    WarmupRow {
        label,
        warmup_p99_ms: rolp_bench::warmup_p99_ms(out, window),
        epochs_to_stable: rolp.last_change_epoch,
        pauses: out.raw_pauses.count(),
        gc_cycles: out.report.gc_cycles,
        ops: out.report.ops,
    }
}

fn render_warmup_json(scale_divisor: u64, rows: &[WarmupRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scale\": {scale_divisor},\n  \"results\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"Cassandra WI\", \"collector\": \"{}\", \
             \"pauses\": {}, \"gc_cycles\": {}, \"ops\": {}, \
             \"warmup_p99_ms\": {:.3}, \"epochs_to_stable\": {}}}{}",
            r.label,
            r.pauses,
            r.gc_cycles,
            r.ops,
            r.warmup_p99_ms,
            r.epochs_to_stable,
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `ROLP_BENCH_WARMUP=1` mode: cold vs warm vs drifted-warm starts
/// over the Cassandra WI warmup window.
fn warmup_comparison(scale: rolp_metrics::SimScale) {
    let heap = bigdata_heap(scale);
    let full = bigdata_budget(scale);
    let warmup_window = SimTime::from_nanos(full.sim_time.as_nanos() / 2);
    let budget =
        RunBudget { sim_time: warmup_window, warmup_discard: SimTime::ZERO, max_ops: u64::MAX };
    let seed = rolp_bench::default_seed();

    // Cold: no prior profile; the run also exports what it learned.
    let mut w = rolp_bench::cassandra(CassandraMix::WriteIntensive, scale);
    let (cold, wi_profile) =
        rolp_bench::run_one_learning(&mut w, heap.clone(), scale, &budget, 4, seed);

    // Warm: a restarted service replaying the cold run's profile.
    let mut w = rolp_bench::cassandra(CassandraMix::WriteIntensive, scale);
    let warm =
        rolp_bench::run_one_warm(&mut w, heap.clone(), scale, &budget, 4, seed, wi_profile.clone());

    // Drifted-warm: the profile was learned under read-intensive traffic,
    // then the restarted service sees write-intensive traffic. Same
    // program shape (the fingerprint matches), different demography — the
    // confidence-weighted blend must converge instead of replaying stale
    // decisions forever.
    let mut w = rolp_bench::cassandra(CassandraMix::ReadIntensive, scale);
    let (_, ri_profile) =
        rolp_bench::run_one_learning(&mut w, heap.clone(), scale, &budget, 4, seed);
    let mut w = rolp_bench::cassandra(CassandraMix::WriteIntensive, scale);
    let drifted = rolp_bench::run_one_warm(&mut w, heap, scale, &budget, 4, seed, ri_profile);

    let rows = vec![
        warmup_row("ROLP (cold)", &cold, warmup_window),
        warmup_row("ROLP (warm)", &warm, warmup_window),
        warmup_row("ROLP (drifted-warm)", &drifted, warmup_window),
    ];

    println!("--- Fig. 10 (warm start): Cassandra WI warmup window, cold vs warm ---");
    let mut t = TextTable::new(vec![
        "run",
        "warmup p99 ms",
        "stable at epoch",
        "pauses",
        "gc cycles",
        "ops",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.to_string(),
            format!("{:.1}", r.warmup_p99_ms),
            r.epochs_to_stable.to_string(),
            r.pauses.to_string(),
            r.gc_cycles.to_string(),
            r.ops.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "shape check: the warm start stabilizes earlier than cold with a\n\
         lower warmup-window p99 (no warmup cliff; under the multi-thread\n\
         TLAB fast path borderline rows may re-estimate by a quantile\n\
         bin, so epoch 0 is not guaranteed here); the drifted-warm start\n\
         decays stale entries instead of replaying them forever, so it\n\
         still beats cold over the warmup window."
    );

    if let Ok(path) = std::env::var("ROLP_BENCH_JSON") {
        let rendered = render_warmup_json(scale.divisor(), &rows);
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("stats: {} run(s) written to {path} (ROLP_BENCH_JSON)", rows.len());
    }
}

fn main() {
    let scale = scale();
    if std::env::var("ROLP_BENCH_WARMUP").is_ok_and(|v| v != "0") {
        banner("Figure 10 (warm start): cold vs warm vs drifted-warm warmup", scale);
        warmup_comparison(scale);
        return;
    }
    banner("Figure 10: warmup pauses (left), throughput & max memory vs G1 (mid/right)", scale);

    // --- Left: warmup timeline under ROLP ---
    let heap = bigdata_heap(scale);
    let full = bigdata_budget(scale);
    let warmup_window = SimTime::from_nanos(full.sim_time.as_nanos() / 2);
    let budget =
        RunBudget { sim_time: warmup_window, warmup_discard: SimTime::ZERO, max_ops: u64::MAX };
    let mut w = rolp_bench::cassandra(CassandraMix::WriteIntensive, scale);
    let out = run_one(&mut w, CollectorKind::RolpNg2c, heap.clone(), scale, &budget);

    println!("--- Fig. 10 (left): Cassandra WI warmup pause times under ROLP ---");
    let slices = 24u64;
    let slice_ns = warmup_window.as_nanos() / slices;
    let mut timeline = TextTable::new(vec!["window", "pauses", "mean ms", "max ms"]);
    for i in 0..slices {
        let from = SimTime::from_nanos(i * slice_ns);
        let to = SimTime::from_nanos((i + 1) * slice_ns);
        let evs: Vec<_> = out.raw_pauses.events_between(from, to).collect();
        let (mut sum, mut max) = (0.0f64, 0.0f64);
        for e in &evs {
            let ms = e.duration.as_millis_f64();
            sum += ms;
            max = max.max(ms);
        }
        let mean = if evs.is_empty() { 0.0 } else { sum / evs.len() as f64 };
        timeline.row(vec![
            format!("{:>5.0}-{:<5.0}s", from.as_secs_f64(), to.as_secs_f64()),
            evs.len().to_string(),
            format!("{mean:.1}"),
            format!("{max:.1}"),
        ]);
    }
    println!("{}", timeline.render());
    println!(
        "shape check: pauses start G1-like, drop after the first inference\n\
         rounds, and stabilize low once pretenuring covers the hot contexts\n\
         (the paper's three warmup phases, ~350 s there, compressed here).\n"
    );

    // --- Middle/right: throughput and max memory normalized to G1 ---
    let budget = throughput_budget(scale);
    let systems =
        [CollectorKind::Cms, CollectorKind::Zgc, CollectorKind::Ng2c, CollectorKind::RolpNg2c];
    let mut thr = TextTable::new(vec!["workload", "CMS", "ZGC", "NG2C", "ROLP"]);
    let mut mem = TextTable::new(vec!["workload", "CMS", "ZGC", "NG2C", "ROLP"]);

    let names: Vec<String> = bigdata_workloads(scale).iter().map(|w| w.name()).collect();
    for (wi, name) in names.iter().enumerate() {
        let g1 = {
            let mut ws = bigdata_workloads(scale);
            run_one(ws[wi].as_mut(), CollectorKind::G1, heap.clone(), scale, &budget)
        };
        let g1_thr = g1.report.ops_per_busy_sec.max(1e-9);
        let g1_mem = g1.report.max_committed_bytes.max(1) as f64;

        let mut thr_row = vec![name.clone()];
        let mut mem_row = vec![name.clone()];
        for &kind in &systems {
            let mut ws = bigdata_workloads(scale);
            let out = run_one(ws[wi].as_mut(), kind, heap.clone(), scale, &budget);
            thr_row.push(format!("{:.3}", out.report.ops_per_busy_sec / g1_thr));
            mem_row.push(format!("{:.3}", out.report.max_committed_bytes as f64 / g1_mem));
        }
        thr.row(thr_row);
        mem.row(mem_row);
        eprintln!("  {name} done");
    }
    println!("--- Fig. 10 (middle): throughput normalized to G1 (higher = better) ---");
    println!("{}", thr.render());
    println!("--- Fig. 10 (right): max memory usage normalized to G1 (lower = better) ---");
    println!("{}", mem.render());
    println!(
        "shape check: ROLP within ~6% of G1 throughput with negligible memory\n\
         overhead (the OLD table); ZGC trades a visible throughput/memory tax\n\
         for its sub-10 ms pauses (paper Section 8.5)."
    );
}
