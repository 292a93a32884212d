//! Figures 8 and 9: pause-time percentiles and pause-duration histograms.
//!
//! Reproduces the paper's headline result. For each of the six big-data
//! workloads (Cassandra WI/RW/RI, Lucene, GraphChi CC/PR) and each of the
//! four plotted collectors (CMS, G1, NG2C, ROLP — ZGC is omitted exactly
//! as in the paper because its pauses never exceed 10 ms), one run is
//! performed and two views are printed:
//!
//! - Fig. 8: pause duration at the 50th..100th percentiles (ms), after
//!   discarding the warmup window.
//! - Fig. 9: number of pauses per duration interval (fewer pauses to the
//!   right = better).
//!
//! Expected shape (paper §8.4): ROLP ≈ NG2C ≪ G1 < CMS at the tail, with
//! ROLP needing no programmer effort.
//!
//! CI hooks:
//! - `ROLP_BENCH_QUICK=1` runs a smoke subset (first workload, G1 + ROLP
//!   only) sized for a per-PR gate. Each of its rows pools one run per
//!   seed of `rolp_bench::CASSANDRA_SEEDS` (generator and runtime seeded
//!   alike), so a gate compares pooled percentiles, not one seed's.
//! - `ROLP_BENCH_JSON=<file>` writes the per-run pause statistics as
//!   JSON; `scripts/bench_gate.py` compares it against the committed
//!   `BENCH_baseline.json` and fails the build on a p99 regression.

use rolp::runtime::CollectorKind;
use rolp_bench::{
    banner, bigdata_budget, bigdata_heap, bigdata_workloads, fig9_labels, run_one_threads, scale,
    TextTable, FIG8_PERCENTILES, FIG9_INTERVALS_MS,
};
use rolp_metrics::{Histogram, SimTime};
use rolp_workloads::{RunOutcome, Workload};

/// One run's machine-readable summary for the regression gate.
struct JsonRow {
    workload: String,
    collector: &'static str,
    pauses: usize,
    gc_cycles: u64,
    ops: u64,
    /// Self-measured profiling overhead (mutator-attributed profiling
    /// time / busy mutator time) from the run's final telemetry
    /// snapshot; `scripts/metrics_gate.py` fails the build if a ROLP
    /// row exceeds the paper's ~5% bound.
    profiling_overhead: f64,
    percentiles_ms: Vec<(f64, f64)>,
    /// p99 of the pauses inside the warmup window (before the discard
    /// point) — present on ROLP rows so `scripts/bench_gate.py` can
    /// compare the warmup cliff across cold and warm starts.
    warmup_p99_ms: Option<f64>,
    /// First epoch after which the published decision table stopped
    /// changing (0 = stable from the start, i.e. a fully-warm start).
    epochs_to_stable: Option<u64>,
    /// Primary-SLO attainment of the service-mode rows (quick mode),
    /// corrected for coordinated omission.
    slo_attainment: Option<f64>,
    /// Corrected p99 request latency of the service-mode rows, ms.
    served_p99_ms: Option<f64>,
}

/// One gate row's runs, pooled over the seed set: percentiles come from
/// the merged pause histograms (after the warmup discard), the warmup p99
/// from every run's warmup-window pauses, counts are summed, and the
/// stable epoch is the latest of any run.
#[derive(Default)]
struct Pool {
    pauses: Histogram,
    warmup_ms: Vec<f64>,
    count: usize,
    gc_cycles: u64,
    ops: u64,
    overhead_sum: f64,
    stable: Option<u64>,
}

impl Pool {
    fn add(&mut self, out: &RunOutcome, warmup: SimTime) {
        self.pauses.merge(out.pauses.histogram());
        self.count += out.pauses.count();
        self.gc_cycles += out.report.gc_cycles;
        self.ops += out.report.ops;
        self.overhead_sum += out.report.profiling_overhead;
        if let Some(r) = &out.report.rolp {
            self.warmup_ms.extend(rolp_bench::warmup_pauses_ms(out, warmup));
            self.stable = Some(self.stable.unwrap_or(0).max(r.last_change_epoch));
        }
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        self.pauses.percentile(p) as f64 / 1e6
    }
}

fn render_json(scale_divisor: u64, rows: &[JsonRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scale\": {scale_divisor},\n  \"results\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"collector\": \"{}\", \"pauses\": {}, \
             \"gc_cycles\": {}, \"ops\": {}, \"profiling_overhead\": {:.6}",
            r.workload, r.collector, r.pauses, r.gc_cycles, r.ops, r.profiling_overhead
        ));
        for (p, ms) in &r.percentiles_ms {
            // "99.9" -> "p99_9": keys must be identifier-ish for the gate.
            let key = format!("{p}").replace('.', "_");
            s.push_str(&format!(", \"p{key}_ms\": {ms:.3}"));
        }
        if let Some(w) = r.warmup_p99_ms {
            s.push_str(&format!(", \"warmup_p99_ms\": {w:.3}"));
        }
        if let Some(e) = r.epochs_to_stable {
            s.push_str(&format!(", \"epochs_to_stable\": {e}"));
        }
        if let Some(a) = r.slo_attainment {
            s.push_str(&format!(", \"slo_attainment\": {a:.6}"));
        }
        if let Some(p) = r.served_p99_ms {
            s.push_str(&format!(", \"served_p99_ms\": {p:.3}"));
        }
        s.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let scale = scale();
    let quick = std::env::var("ROLP_BENCH_QUICK").is_ok_and(|v| v != "0");
    let json_out = std::env::var("ROLP_BENCH_JSON").ok();
    banner("Figures 8 & 9: application pause distribution (6 workloads x 4 collectors)", scale);
    let heap = bigdata_heap(scale);
    let budget = bigdata_budget(scale);
    println!(
        "heap: {} per run, run length: {} simulated (warmup discard {})",
        rolp_bench::fmt_bytes(heap.max_heap_bytes),
        budget.sim_time,
        budget.warmup_discard,
    );
    if quick {
        println!(
            "quick mode: first workload, G1 + ROLP (4 guest threads) + ROLP-seq \
             (1 guest thread) + ROLP (warm) (warm-started from the plain ROLP \
             run's profile); every row pools seeds {}-{} (ROLP_BENCH_QUICK)",
            rolp_bench::CASSANDRA_SEEDS.start(),
            rolp_bench::CASSANDRA_SEEDS.end()
        );
    }

    /// How one gate row is driven.
    #[derive(Clone, Copy)]
    enum Mode {
        Plain,
        /// Plain ROLP that also exports its learned decision profile.
        Learn,
        /// ROLP warm-started from the profile the `Learn` row exported.
        Warm,
    }

    // (collector, guest threads, gate label, mode). Quick mode adds a
    // 1-guest-thread ROLP run (`ROLP-seq`) so the gate also covers a
    // different allocation interleaving and GC cadence, and a
    // warm-started ROLP run so the gate covers the profile import/blend
    // path. The warm row must come *after* plain ROLP: the shape-check
    // lookup below takes the first match per CollectorKind, and the warm
    // row consumes the profile the plain (`Learn`) row exports.
    let collectors: Vec<(CollectorKind, u32, &'static str, Mode)> = if quick {
        vec![
            (CollectorKind::G1, 4, CollectorKind::G1.label(), Mode::Plain),
            (CollectorKind::RolpNg2c, 4, CollectorKind::RolpNg2c.label(), Mode::Learn),
            (CollectorKind::RolpNg2c, 1, "ROLP-seq", Mode::Plain),
            (CollectorKind::RolpNg2c, 4, "ROLP (warm)", Mode::Warm),
        ]
    } else {
        [CollectorKind::Cms, CollectorKind::G1, CollectorKind::Ng2c, CollectorKind::RolpNg2c]
            .into_iter()
            .map(|k| (k, 4, k.label(), Mode::Plain))
            .collect()
    };
    let mut json_rows: Vec<JsonRow> = Vec::new();

    let mut names: Vec<String> = bigdata_workloads(scale).iter().map(|w| w.name()).collect();
    // Quick mode pools each gate row over a fixed seed set; the full
    // figure runs each preset once.
    let seeds: Vec<u64> = if quick {
        names.truncate(1);
        rolp_bench::CASSANDRA_SEEDS.collect()
    } else {
        vec![rolp_bench::default_seed()]
    };
    for (wi, name) in names.iter().enumerate() {
        let mut fig8 = TextTable::new(
            std::iter::once("system".to_string())
                .chain(FIG8_PERCENTILES.iter().map(|p| format!("p{p}")))
                .collect::<Vec<_>>(),
        );
        let mut fig9 = TextTable::new(
            std::iter::once("system".to_string()).chain(fig9_labels()).collect::<Vec<_>>(),
        );
        let mut tail_ms: Vec<(CollectorKind, f64)> = Vec::new();
        // Per seed: the profile the plain ROLP row learned.
        let mut learned: Vec<rolp::DecisionProfile> = Vec::new();
        let mut warm_info: Vec<(&'static str, f64, u64)> = Vec::new();

        for &(kind, threads, label, mode) in &collectors {
            let mut pool = Pool::default();
            for (si, &seed) in seeds.iter().enumerate() {
                // Fresh workload instance per run (independent state).
                let mut workloads = bigdata_workloads(scale);
                let mut seeded;
                let w: &mut dyn Workload = if quick {
                    seeded = rolp_bench::cassandra_seeded(scale, seed);
                    &mut seeded
                } else {
                    workloads[wi].as_mut()
                };
                let start = std::time::Instant::now();
                let out = match mode {
                    Mode::Learn => {
                        let (out, profile) = rolp_bench::run_one_learning(
                            w,
                            heap.clone(),
                            scale,
                            &budget,
                            threads,
                            seed,
                        );
                        learned.push(profile);
                        out
                    }
                    Mode::Warm => rolp_bench::run_one_warm(
                        w,
                        heap.clone(),
                        scale,
                        &budget,
                        threads,
                        seed,
                        learned.get(si).cloned().expect("warm row must follow the learning row"),
                    ),
                    Mode::Plain => {
                        run_one_threads(w, kind, heap.clone(), scale, &budget, threads, seed)
                    }
                };
                let wall = start.elapsed();
                pool.add(&out, budget.warmup_discard);
                {
                    use rolp_metrics::PauseKind::*;
                    for k in [Young, Mixed, Full, ConcurrentHandshake] {
                        let evs: Vec<_> =
                            out.raw_pauses.events().iter().filter(|e| e.kind == k).collect();
                        if !evs.is_empty() {
                            let max =
                                evs.iter().map(|e| e.duration.as_millis_f64()).fold(0.0, f64::max);
                            eprintln!("    {}: {} pauses, max {:.1} ms", k.label(), evs.len(), max);
                        }
                    }
                }
                if let Some(r) = &out.report.rolp {
                    eprintln!(
                        "    rolp: {} inferences, {} decisions, {} profiled allocs, {} survivor \
                         recs, conflicts {:?}, shutdowns {}/{}",
                        r.inferences,
                        r.decisions,
                        r.profiled_allocations,
                        r.survivor_records,
                        r.conflicts,
                        r.survivor_shutdowns,
                        r.survivor_reactivations
                    );
                }
                eprintln!(
                    "  [{name} / {label} / seed {seed}] {} pauses (p99 {:.1} ms), {} GC cycles, \
                     ops {}, wall {:.1?}",
                    out.pauses.count(),
                    out.pauses.percentile_ms(99.0),
                    out.report.gc_cycles,
                    out.report.ops,
                    wall
                );
            }

            let (warmup_p99, stable) = match pool.stable {
                Some(e) => (Some(rolp_bench::p99_ms(pool.warmup_ms.clone())), Some(e)),
                None => (None, None),
            };
            if let (Some(w99), Some(e)) = (warmup_p99, stable) {
                warm_info.push((label, w99, e));
            }
            let mut row = vec![label.to_string()];
            for p in FIG8_PERCENTILES {
                row.push(format!("{:.1}", pool.percentile_ms(p)));
            }
            fig8.row(row);
            json_rows.push(JsonRow {
                workload: name.clone(),
                collector: label,
                pauses: pool.count,
                gc_cycles: pool.gc_cycles,
                ops: pool.ops,
                profiling_overhead: pool.overhead_sum / seeds.len() as f64,
                percentiles_ms: FIG8_PERCENTILES
                    .iter()
                    .map(|&p| (p, pool.percentile_ms(p)))
                    .collect(),
                warmup_p99_ms: warmup_p99,
                epochs_to_stable: stable,
                slo_attainment: None,
                served_p99_ms: None,
            });

            let bounds_ns: Vec<u64> = FIG9_INTERVALS_MS.iter().map(|ms| ms * 1_000_000).collect();
            let counts = pool.pauses.interval_counts(&bounds_ns);
            let mut row9 = vec![label.to_string()];
            row9.extend(counts.iter().map(|c| c.to_string()));
            fig9.row(row9);

            tail_ms.push((kind, pool.percentile_ms(99.9)));
        }

        println!("--- Fig. 8: {name} — pause-time percentiles (ms) ---");
        println!("{}", fig8.render());
        println!("--- Fig. 9: {name} — pauses per duration interval ---");
        println!("{}", fig9.render());

        let get =
            |k: CollectorKind| tail_ms.iter().find(|(c, _)| *c == k).map(|(_, v)| *v).unwrap();
        if quick {
            let (g1, rolp) = (get(CollectorKind::G1), get(CollectorKind::RolpNg2c));
            let reduction = if g1 > 0.0 { (1.0 - rolp / g1) * 100.0 } else { 0.0 };
            println!(
                "shape check [{name}]: p99.9 G1 {g1:.1} ms, ROLP {rolp:.1} ms -> \
                 ROLP reduces G1 tail by {reduction:.0}%"
            );
            let find = |l: &str| warm_info.iter().find(|(n, _, _)| *n == l);
            if let (Some(&(_, cold_w, cold_e)), Some(&(_, warm_w, warm_e))) =
                (find("ROLP"), find("ROLP (warm)"))
            {
                println!(
                    "warm start [{name}]: warmup-window p99 cold {cold_w:.1} ms \
                     (stable by epoch {cold_e}) vs warm {warm_w:.1} ms (stable by \
                     epoch {warm_e})"
                );
            }
            println!();
        } else {
            let (cms, g1, ng2c, rolp) = (
                get(CollectorKind::Cms),
                get(CollectorKind::G1),
                get(CollectorKind::Ng2c),
                get(CollectorKind::RolpNg2c),
            );
            let reduction = if g1 > 0.0 { (1.0 - rolp / g1) * 100.0 } else { 0.0 };
            println!(
                "shape check [{name}]: p99.9 CMS {cms:.1} ms, G1 {g1:.1} ms, NG2C {ng2c:.1} ms, \
                 ROLP {rolp:.1} ms -> ROLP reduces G1 tail by {reduction:.0}%\n"
            );
        }
    }

    // Service-mode rows (quick mode): the open-loop rolp-serve harness
    // under ROLP and G1 on the same diurnal schedule, pooled over a fixed
    // seed set and gated on primary SLO attainment and corrected p99 so
    // service tail latency regresses as loudly as batch pause
    // percentiles do.
    if quick {
        let served = rolp_bench::run_served(scale);
        println!(
            "--- service mode: open-loop SLO comparison (1/{} scale, pooled over seeds {}-{}) ---",
            scale.divisor() * 8,
            rolp_bench::SERVED_SEEDS.start(),
            rolp_bench::SERVED_SEEDS.end()
        );
        for row in &served {
            println!(
                "  [{}] {} requests, attainment {:.4} @ primary SLO, \
                 corrected p99 {:.2} ms, pause p99 {:.2} ms",
                row.collector,
                row.requests,
                row.slo_attainment,
                row.served_p99_ms,
                row.pause_p99_ms
            );
            json_rows.push(JsonRow {
                workload: "Served mix".to_string(),
                collector: row.collector,
                pauses: row.pauses,
                gc_cycles: row.gc_cycles,
                ops: row.ops,
                profiling_overhead: row.profiling_overhead,
                percentiles_ms: vec![(99.0, row.pause_p99_ms)],
                warmup_p99_ms: None,
                epochs_to_stable: None,
                slo_attainment: Some(row.slo_attainment),
                served_p99_ms: Some(row.served_p99_ms),
            });
        }
        let rolp_att = served.iter().find(|r| r.collector.starts_with("ROLP"));
        let g1_att = served.iter().find(|r| r.collector.starts_with("G1"));
        if let (Some(r), Some(g)) = (rolp_att, g1_att) {
            println!(
                "service shape check: ROLP attainment {:.4} vs G1 {:.4}, \
                 served p99 {:.2} ms vs {:.2} ms\n",
                r.slo_attainment, g.slo_attainment, r.served_p99_ms, g.served_p99_ms
            );
        }
    }

    if let Some(path) = json_out {
        let rendered = render_json(scale.divisor(), &json_rows);
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("stats: {} run(s) written to {path} (ROLP_BENCH_JSON)", json_rows.len());
    }
}
