//! The benchmark's metrics: names, units, and how each is computed from
//! the reps of one workload. `BENCHMARK.json` lists the same names.

use rolp_telemetry::Bucket;

use crate::stats::Spread;
use crate::trace::LayerTimes;
use crate::workloads::{Pooled, Rep, WorkloadId};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (for host metrics, the median over reps).
    pub value: f64,
    /// Quartiles of a host metric over the reps.
    pub spread: Option<Spread>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value, spread: None }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn host(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    let spread = Spread::of(values);
    Metric { name, unit, value: spread.median, spread: Some(spread) }
}

fn per_rep(reps: &[Rep], f: fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// End-to-end metrics of one workload: simulated ones from its pooled runs,
/// host ones as medians over its untraced reps and its set-up samples.
pub fn end_to_end(sim: &Pooled, reps: &[Rep], setup_s: &[f64]) -> Vec<Metric> {
    vec![
        metric("pause_p50_ms", "ms", sim.pause_p50_ms),
        metric("pause_tail_ms", "ms", sim.pause_tail_ms),
        metric("latency_tail_ms", "ms", sim.latency_tail_ms),
        metric("slo_attainment", "fraction", ratio(sim.within_slo as f64, sim.latencies as f64)),
        metric("ops_per_sim_s", "ops/s", sim.ops as f64 / sim.sim_s),
        metric("max_committed_mb", "MB", sim.max_committed_mb),
        host("setup_s", "s", setup_s),
        host("host_rss_mb", "MB", &per_rep(reps, |r| r.rss_mb)),
    ]
}

/// Host time of the untraced reps, medians with quartiles: printed with
/// every run and part of the per-layer metrics, but not gated (README,
/// "Noise and bounds").
pub fn host_time(reps: &[Rep]) -> Vec<Metric> {
    vec![
        host("workloads.host_s_per_sim_s", "s/s", &per_rep(reps, |r| r.run_s / r.sim.sim_s)),
        host(
            "workloads.host_ns_per_op",
            "ns",
            &per_rep(reps, |r| r.run_s * 1e9 / r.sim.ops as f64),
        ),
    ]
}

/// Self time per layer of a traced rep. The entries partition the run:
/// each boundary's time minus the time of the boundaries nested in it.
pub struct SelfTimes {
    /// `execute` loop outside ticks (batch workloads).
    pub driver_s: f64,
    /// Serving loop outside tenant ticks (served workload).
    pub serve_loop_s: f64,
    /// Ticks minus every collector and profiler call inside them.
    pub dispatch_s: f64,
    /// `fast_alloc` (estimated from the sample).
    pub fast_alloc_s: f64,
    /// Slow allocations minus nested hooks.
    pub alloc_slow_s: f64,
    /// Collections minus nested hooks.
    pub collect_s: f64,
    /// `on_alloc` (estimated from the sample).
    pub on_alloc_s: f64,
    /// `on_jit_compile`.
    pub jit_s: f64,
    /// `on_survivor` (estimated from the sample).
    pub survivor_s: f64,
    /// `on_gc_end` without inference, and `on_liveness`.
    pub safepoint_s: f64,
    /// `on_gc_end` with an inference epoch.
    pub epoch_s: f64,
}

impl SelfTimes {
    /// Splits the traced run of workload `w` into layer self times.
    pub fn of(w: WorkloadId, t: &LayerTimes) -> SelfTimes {
        let fast_alloc_s = t.fast_alloc.estimate_s();
        let on_alloc_s = t.on_alloc.estimate_s();
        let below_vm = fast_alloc_s + t.alloc_slow.s() + t.collect.s() + on_alloc_s + t.jit.s();
        let outside_ticks = t.run_s - t.tick.s();
        let (driver_s, serve_loop_s) =
            if w.is_served() { (0.0, outside_ticks) } else { (outside_ticks, 0.0) };
        SelfTimes {
            driver_s,
            serve_loop_s,
            dispatch_s: t.tick.s() - below_vm,
            fast_alloc_s,
            alloc_slow_s: (t.alloc_slow.ns - t.alloc_slow_nested_ns) / 1e9,
            collect_s: (t.collect.ns - t.collect_nested_ns) / 1e9,
            on_alloc_s,
            jit_s: t.jit.s(),
            survivor_s: t.survivor.estimate_s(),
            safepoint_s: t.safepoint.s(),
            epoch_s: t.epoch.s(),
        }
    }

    /// Share of the run no layer's self time covers. Self times are
    /// differences of measured and estimated spans, so a sampling estimate
    /// that overshoots drives a difference below zero; such a negative self
    /// time covers nothing and shows up here.
    pub fn unattributed_frac(&self, run_s: f64) -> f64 {
        let covered: f64 = [
            self.driver_s,
            self.serve_loop_s,
            self.dispatch_s,
            self.fast_alloc_s,
            self.alloc_slow_s,
            self.collect_s,
            self.on_alloc_s,
            self.jit_s,
            self.survivor_s,
            self.safepoint_s,
            self.epoch_s,
        ]
        .iter()
        .map(|s| s.max(0.0))
        .sum();
        ratio((run_s - covered).abs(), run_s)
    }
}

/// Per-layer metrics of one workload: the host time of its untraced reps
/// ([`host_time`]), then everything measured on its traced rep. `timer_ns`
/// is the calibrated empty-span cost.
///
/// # Panics
///
/// Panics if `untraced` is empty.
pub fn per_layer(
    w: WorkloadId,
    untraced: &[Rep],
    traced: &Rep,
    t: &LayerTimes,
    timer_ns: f64,
) -> Vec<Metric> {
    let l = &traced.layers;
    let sim = |b: Bucket| l.bucket_s[b.index()];
    let s = SelfTimes::of(w, t);
    let modeled_s: f64 = Bucket::ALL.iter().filter(|b| b.is_modeled()).map(|&b| sim(b)).sum();
    let untraced_run_s = Spread::of(&per_rep(untraced, |r| r.run_s)).median;
    let count = |name, n: u64| metric(name, "count", n as f64);
    let secs = |name, v: f64| metric(name, "s", v);
    let mut metrics = host_time(untraced);
    metrics.extend([
        count("workloads.tick_calls", t.tick.calls),
        secs("workloads.tick_host_s", t.tick.s()),
        secs("workloads.driver_self_s", s.driver_s),
        secs("vm.dispatch_self_s", s.dispatch_s),
        count("vm.jit_compiles", t.jit.calls),
        secs("vm.jit_compile_host_s", s.jit_s),
        metric(
            "vm.microcache_hit_ratio",
            "fraction",
            ratio(l.microcache_hits as f64, (l.microcache_hits + l.microcache_misses) as f64),
        ),
        secs("vm.mutator_app_sim_s", sim(Bucket::MutatorApp)),
        secs("vm.mutator_profiling_sim_s", sim(Bucket::MutatorProfiling)),
        secs("vm.jit_sim_s", sim(Bucket::JitCompile)),
        count("heap.fast_alloc_calls", t.fast_alloc.calls),
        metric(
            "heap.fast_alloc_hit_ratio",
            "fraction",
            ratio(t.fast_alloc_hits as f64, t.fast_alloc.calls as f64),
        ),
        secs("heap.fast_alloc_host_s", s.fast_alloc_s),
        count("heap.tlab_refills", l.tlab_refills),
        count("heap.alloc_slow_calls", t.alloc_slow.calls),
        secs("heap.alloc_slow_host_s", s.alloc_slow_s),
        count("gc.collections", t.cycles),
        secs("gc.collect_host_s", t.collect.s()),
        secs("gc.collect_self_s", s.collect_s),
        metric("gc.host_ms_per_cycle", "ms", ratio(t.collect.s() * 1e3, t.cycles as f64)),
        secs("gc.mark_sim_s", sim(Bucket::GcMark)),
        secs("gc.evac_sim_s", sim(Bucket::GcEvac)),
        secs("gc.remset_sim_s", sim(Bucket::GcRemset)),
        secs("gc.profiling_sim_s", sim(Bucket::GcProfiling)),
        secs("gc.other_sim_s", sim(Bucket::GcOther)),
        metric("gc.bytes_copied_mb", "MB", t.bytes_copied as f64 / (1024.0 * 1024.0)),
        count("gc.survivors", t.survivors),
        count("core.on_alloc_calls", t.on_alloc.calls),
        secs("core.on_alloc_host_s", s.on_alloc_s),
        count("core.on_survivor_calls", t.survivor.calls),
        secs("core.on_survivor_host_s", s.survivor_s),
        count("core.safepoint_calls", t.safepoint.calls),
        secs("core.safepoint_host_s", s.safepoint_s),
        count("core.epochs", t.epoch.calls),
        secs("core.epoch_host_s", s.epoch_s),
        secs("core.epoch_modeled_s", modeled_s),
        metric(
            "core.epoch_host_over_modeled",
            "ratio",
            ratio(s.safepoint_s + s.epoch_s, modeled_s),
        ),
        count("core.decisions", l.decisions),
        count("core.decision_versions", l.decision_versions),
        count("core.epochs_to_stable", l.epochs_to_stable),
        metric("core.profiling_overhead_frac", "fraction", l.profiling_overhead),
        secs("serve.loop_self_s", s.serve_loop_s),
        metric("serve.queue_p999_ms", "ms", l.queue_p999_ms),
        metric("serve.service_p999_ms", "ms", l.service_p999_ms),
        metric("serve.gc_share", "fraction", l.gc_share),
        count("serve.epochs_to_reconverge", l.epochs_to_reconverge),
        metric("bench.timer_ns", "ns", timer_ns),
        metric("bench.trace_overhead_frac", "fraction", ratio(traced.run_s, untraced_run_s) - 1.0),
        metric("bench.unattributed_frac", "fraction", s.unattributed_frac(t.run_s)),
    ]);
    metrics
}

/// Renders the result object: `correct`, `attempted`, `failed` and the
/// metrics by name (prefixed with `<workload>/` when `prefix` is set).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    groups: &[(WorkloadId, &[Metric])],
    prefix: bool,
) -> String {
    let metrics: Vec<String> = groups
        .iter()
        .flat_map(|(w, ms)| {
            ms.iter().map(move |m| {
                let name =
                    if prefix { format!("{}/{}", w.name(), m.name) } else { m.name.to_string() };
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.unit)
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
