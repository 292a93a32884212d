//! Shared harness for the paper's tables and figures.
//!
//! Every bench target (`fig6_*`, `fig7_*`, `fig8_9_*`, `fig10_*`,
//! `table1_*`, `table2_*`, `ablations`) builds on these helpers: workload
//! construction at the experiment scale, runtime-configuration assembly
//! per collector, and shared formatting.
//!
//! Scaling: the paper's testbed (6 GB heaps, 30-minute runs, 10 k ops/s)
//! is divided by the experiment scale (default 16, override with
//! `ROLP_BENCH_SCALE`). Copy bandwidth scales with the heap so pause
//! *magnitudes* stay comparable; run *durations* are scaled less
//! aggressively (by scale/4) so each run still contains enough GC cycles
//! for stable percentiles.
//!
//! The crate also holds the paper's §7.6 lost-update measurement, the
//! only code in the repository that runs OS threads: [`shared_table`]
//! (the relaxed-atomic OLD table) and [`concurrent`] (racing mutator and
//! GC-worker threads checked against the single-threaded
//! [`rolp::OldTable`]). Ablation 5 and `tests/lost_update_bound.rs` run
//! it.

pub mod concurrent;
pub mod shared_table;

pub use shared_table::SharedOldTable;

use rolp::runtime::{CollectorKind, RuntimeConfig};
use rolp_heap::HeapConfig;
use rolp_metrics::{SimScale, SimTime};
use rolp_vm::CostModel;
use rolp_workloads::{CassandraMix, CassandraWorkload, RunBudget, RunOutcome, Workload};

pub use rolp_metrics::table::{fmt_bytes, fmt_pct, TextTable};
pub use rolp_workloads::presets::{bigdata_heap, bigdata_workloads, cassandra, graphchi, lucene};

/// The experiment scale (default 1/16; `ROLP_BENCH_SCALE` overrides).
pub fn scale() -> SimScale {
    SimScale::from_env(16)
}

/// Run budget for the pause-distribution experiments: the paper's 30 min
/// with a warmup discard, time-scaled by `scale/8` (see module docs).
///
/// The discard is a quarter of the run rather than the paper's sixth:
/// ROLP's learning time is a fixed number of GC cycles (~3 inference
/// windows), so compressing the run compresses the steady state but not
/// the warmup — the discard must still cover it, as the paper's 300 s
/// discard covers its ~350 s stabilization (Fig. 10).
pub fn bigdata_budget(scale: SimScale) -> RunBudget {
    let divisor = (scale.divisor() / 8).max(1);
    let secs = (1_800 / divisor).max(120);
    RunBudget {
        sim_time: SimTime::from_secs(secs),
        warmup_discard: SimTime::from_secs(secs / 4),
        max_ops: u64::MAX,
    }
}

/// A shorter budget for throughput/memory comparisons (Fig. 10 mid/right).
pub fn throughput_budget(scale: SimScale) -> RunBudget {
    let budget = bigdata_budget(scale);
    RunBudget {
        sim_time: SimTime::from_nanos(budget.sim_time.as_nanos() / 3),
        warmup_discard: SimTime::from_nanos(budget.warmup_discard.as_nanos() / 3),
        max_ops: u64::MAX,
    }
}

/// Assembles the runtime configuration for one collector at scale.
pub fn runtime_config(kind: CollectorKind, heap: HeapConfig, scale: SimScale) -> RuntimeConfig {
    RuntimeConfig {
        collector: kind,
        heap,
        cost: CostModel::scaled(scale),
        threads: 4,
        side_table_scale: scale.divisor(),
        ..Default::default()
    }
}

/// Runs one workload under one collector with the given budget, at the
/// default bench thread count (4 guest threads).
///
/// When `ROLP_TRACE_DIR` is set, the run records a flight-recorder trace
/// and writes `<dir>/<workload>-<collector>.trace.json` (Chrome
/// `trace_event` format) so any bench run can be inspected in Perfetto
/// without code changes.
pub fn run_one(
    workload: &mut dyn Workload,
    kind: CollectorKind,
    heap: HeapConfig,
    scale: SimScale,
    budget: &RunBudget,
) -> RunOutcome {
    run_one_threads(workload, kind, heap, scale, budget, 4, default_seed())
}

/// The runtime seed (JIT randomness) of every single-seed bench run:
/// [`RuntimeConfig`]'s default.
pub fn default_seed() -> u64 {
    RuntimeConfig::default().seed
}

/// [`run_one`] with an explicit guest-thread count — the bench-side
/// analogue of the CLI's `--mutator-threads` — and runtime seed. The
/// guest threads share one OS thread and the profiler's one `OldTable`;
/// the count changes how allocation interleaves, and with it the GC
/// cadence.
pub fn run_one_threads(
    workload: &mut dyn Workload,
    kind: CollectorKind,
    heap: HeapConfig,
    scale: SimScale,
    budget: &RunBudget,
    threads: u32,
    seed: u64,
) -> RunOutcome {
    let trace_dir = std::env::var("ROLP_TRACE_DIR").ok();
    let mut config = runtime_config(kind, heap, scale);
    config.threads = threads;
    config.seed = seed;
    config.trace_enabled = trace_dir.is_some();
    let name = workload.name();
    let out = rolp_workloads::execute(workload, config, budget);
    if let Some(dir) = trace_dir {
        let slug: String = format!("{}-{}", name, kind.label())
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
            .collect();
        let path = std::path::Path::new(&dir).join(format!("{slug}.trace.json"));
        if let Err(e) = std::fs::write(&path, rolp_trace::export::to_chrome_trace(&out.trace)) {
            eprintln!("warning: cannot write trace {}: {e}", path.display());
        }
    }
    out
}

/// [`run_one_threads`] for ROLP, additionally extracting the learned
/// [`rolp::DecisionProfile`] at the end of the run — the bench-side
/// analogue of the CLI's `--profile-out`. The outcome is identical to a
/// plain ROLP run (extraction happens after the final tick, before the
/// report), so this can substitute for `run_one_threads` in a gate row.
pub fn run_one_learning(
    workload: &mut dyn Workload,
    heap: HeapConfig,
    scale: SimScale,
    budget: &RunBudget,
    threads: u32,
    seed: u64,
) -> (RunOutcome, rolp::DecisionProfile) {
    let mut config = runtime_config(CollectorKind::RolpNg2c, heap, scale);
    config.threads = threads;
    config.seed = seed;
    let mut profile = rolp::DecisionProfile::default();
    let out = rolp_workloads::execute_hooked(
        workload,
        config,
        budget,
        |_| {},
        |rt| {
            if let Some(p) = rt.profiler.as_ref() {
                profile = rolp::DecisionProfile::from_profiler(
                    &p.borrow(),
                    &rt.vm.env.program,
                    &rt.vm.env.jit,
                );
            }
        },
    );
    (out, profile)
}

/// [`run_one_threads`] for ROLP warm-started from a previously learned
/// profile — the bench-side analogue of the CLI's `--profile-in`.
pub fn run_one_warm(
    workload: &mut dyn Workload,
    heap: HeapConfig,
    scale: SimScale,
    budget: &RunBudget,
    threads: u32,
    seed: u64,
    profile: rolp::DecisionProfile,
) -> RunOutcome {
    let mut config = runtime_config(CollectorKind::RolpNg2c, heap, scale);
    config.threads = threads;
    config.seed = seed;
    config.rolp.offline_profile = Some(profile);
    rolp_workloads::execute(workload, config, budget)
}

/// p99 of the pauses recorded inside `[0, window)` of a run — the
/// warmup-window tail the Fig. 10 warm-start comparison and
/// `scripts/warmup_gate.py` gate on. Computed from the raw (undiscarded)
/// recorder so the warmup itself is visible.
pub fn warmup_p99_ms(out: &RunOutcome, window: SimTime) -> f64 {
    p99_ms(warmup_pauses_ms(out, window))
}

/// The durations of the pauses recorded inside `[0, window)` of a run,
/// milliseconds, in record order.
pub fn warmup_pauses_ms(out: &RunOutcome, window: SimTime) -> Vec<f64> {
    out.raw_pauses
        .events_between(SimTime::ZERO, window)
        .map(|e| e.duration.as_millis_f64())
        .collect()
}

/// The exact (nearest-rank) p99 of `ms`; 0 when empty.
pub fn p99_ms(mut ms: Vec<f64>) -> f64 {
    if ms.is_empty() {
        return 0.0;
    }
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((ms.len() as f64) * 0.99).ceil() as usize;
    ms[idx.saturating_sub(1).min(ms.len() - 1)]
}

/// The seeds the quick Cassandra Fig. 8/9 rows pool: each seed drives
/// the Cassandra generator and the runtime (JIT randomness), and every
/// gate row merges its runs' pause histograms (see the bench's quick
/// mode). One seed cannot judge a change: over seeds 1–32 one run's
/// ROLP pause p99 spreads over 33.55–37.75 ms, while the pooled p99 of
/// the four disjoint 8-seed sets in 1–32 reads 36.70, 37.75, 36.70 and
/// 36.70 ms, one histogram bucket (about 3%) against the gate's 15%.
/// G1's pooled p99 reads 79.69 / 77.60 / 79.69 / 77.60 ms and ROLP's
/// pooled warmup p99 87.91–88.06 ms over the same sets.
pub const CASSANDRA_SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

/// The write-intensive Cassandra workload of [`cassandra`] with its
/// generator seeded by `seed`.
pub fn cassandra_seeded(scale: SimScale, seed: u64) -> CassandraWorkload {
    let mut params = cassandra(CassandraMix::WriteIntensive, scale).params().clone();
    params.seed = seed;
    CassandraWorkload::new(params)
}

/// The run seeds the served rows pool (see [`run_served`]).
pub const SERVED_SEEDS: std::ops::RangeInclusive<u64> = 1..=32;

/// One service-mode gate row: SLO attainment and served tail latency
/// pooled over the open-loop `rolp-serve` runs of a seed set (quick-mode
/// Fig. 8/9 only).
pub struct ServedRow {
    /// Gate label (`ROLP (served)` / `G1 (served)`).
    pub collector: &'static str,
    /// Requests completed, summed over the pool.
    pub requests: u64,
    /// GC pauses observed, summed over the pool.
    pub pauses: usize,
    /// GC cycles completed, summed over the pool.
    pub gc_cycles: u64,
    /// Guest operations completed, summed over the pool.
    pub ops: u64,
    /// Self-measured profiling overhead, the mean over the pool.
    pub profiling_overhead: f64,
    /// Exact attainment of the primary (10 ms) SLO, corrected for
    /// coordinated omission: summed hits over summed requests.
    pub slo_attainment: f64,
    /// Corrected p99 request latency of the merged histogram,
    /// milliseconds.
    pub served_p99_ms: f64,
    /// GC-pause p99 of the merged histogram, milliseconds (the `p99_ms`
    /// gate column).
    pub pause_p99_ms: f64,
}

/// Runs the service-mode comparison the `slo_gate.py` acceptance rests
/// on — the same diurnal schedule under ROLP and G1 — once per seed in
/// [`SERVED_SEEDS`], and returns one gate row per collector pooled over
/// them. The serving harness runs 8x smaller than the batch rows: the
/// open-loop schedule is the only load, so the heap has to churn within
/// tens of simulated seconds.
///
/// The rows pool because one seed cannot judge a change. Over seeds
/// 1–32 plus 42, seed 42's ROLP served p99 was the 2nd lowest of 33, in
/// a 59.8–77.6 ms spread, so a single-seed row failed or passed its +15%
/// gate by seed. Percentiles come from the merged latency and pause
/// histograms and attainment from the summed counts, as rolpbench pools
/// its run seeds. The pooled ROLP served p99 is 71.30 ms over seeds
/// 1–32 and over 1–64; over the four disjoint 16-seed sets in 1–64 it
/// moves by one histogram bucket (about 3%), well inside the gate's 15%. Mutants that drop one context's published decision
/// were checked with and without DESIGN §6 item 9's decided-site rule:
/// dropping context 262144 or 196608 fails the pooled gate either way,
/// while dropping 242557 failed the single-seed row on seed 42 alone
/// (62.9 → 77.6 ms) and left the pool unmoved.
pub fn run_served(scale: SimScale) -> Vec<ServedRow> {
    use rolp_metrics::Histogram;
    use rolp_serve::{default_tenants, parse_phases, serve, ServeConfig};
    let serve_scale = SimScale::new(scale.divisor() * 8);
    [CollectorKind::RolpNg2c, CollectorKind::G1]
        .into_iter()
        .map(|kind| {
            let mut row = ServedRow {
                collector: match kind {
                    CollectorKind::RolpNg2c => "ROLP (served)",
                    _ => "G1 (served)",
                },
                requests: 0,
                pauses: 0,
                gc_cycles: 0,
                ops: 0,
                profiling_overhead: 0.0,
                slo_attainment: 0.0,
                served_p99_ms: 0.0,
                pause_p99_ms: 0.0,
            };
            let (mut latency, mut pauses) = (Histogram::new(), Histogram::new());
            let mut hits = 0u64;
            for seed in SERVED_SEEDS {
                let mut cfg = ServeConfig::new(kind, serve_scale);
                cfg.phases = parse_phases("20s@1500x3/1;20s@1500x1/3").expect("schedule parses");
                cfg.inference_period = Some(2);
                cfg.seed = seed;
                let out = serve(&cfg, &mut default_tenants(serve_scale));
                latency.merge(out.latency.corrected());
                pauses.merge(out.pauses.histogram());
                hits += out.latency.attainment()[0].1;
                row.requests += out.requests;
                row.pauses += out.pauses.count();
                row.gc_cycles += out.report.gc_cycles;
                row.ops += out.report.ops;
                row.profiling_overhead += out.report.profiling_overhead;
            }
            row.profiling_overhead /= SERVED_SEEDS.count() as f64;
            row.slo_attainment = hits as f64 / latency.count() as f64;
            row.served_p99_ms = latency.percentile(99.0) as f64 / 1e6;
            row.pause_p99_ms = pauses.percentile(99.0) as f64 / 1e6;
            row
        })
        .collect()
}

/// The Fig. 8 percentiles.
pub const FIG8_PERCENTILES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0];

/// The Fig. 9 pause-duration interval bounds, in milliseconds.
pub const FIG9_INTERVALS_MS: [u64; 7] = [0, 10, 25, 50, 100, 250, 500];

/// Renders the Fig. 9 interval labels.
pub fn fig9_labels() -> Vec<String> {
    let b = FIG9_INTERVALS_MS;
    let mut out: Vec<String> = b.windows(2).map(|w| format!("[{},{})ms", w[0], w[1])).collect();
    out.push(format!("[{},inf)ms", b[b.len() - 1]));
    out
}

/// Prints a standard experiment header.
pub fn banner(title: &str, scale: SimScale) {
    println!();
    println!("=== {title} ===");
    println!(
        "scale: 1/{} of the paper's testbed (override with ROLP_BENCH_SCALE)",
        scale.divisor()
    );
    println!();
}
