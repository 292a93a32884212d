//! The open-loop serving loop.
//!
//! [`serve`] assembles a runtime (any collector), composes the tenant
//! set into one guest program, and then fires the arrival schedule at
//! it: each request idles the clock up to its intended start (open-loop
//! — the schedule never waits for the server), runs one tenant tick,
//! and records its coordinated-omission-corrected latency plus the
//! hierarchical decomposition of its service time from the telemetry
//! plane's bucket deltas.
//!
//! The loop also keeps a decision timeline: every published
//! [`DecisionTable`](rolp_vm::DecisionTable) version/digest change is
//! timestamped against the inference-epoch counter, and every phase
//! shift records the epoch it happened at, so [`ServeOutcome::reconvergence`]
//! can answer the acceptance question "how many inference epochs after a
//! traffic shift did the decisions settle?".

use std::rc::Rc;

use rolp::runtime::{CollectorKind, JvmRuntime, RunReport, RuntimeConfig};
use rolp::DecisionProfile;
use rolp_heap::HeapConfig;
use rolp_metrics::{PauseRecorder, SimScale, SimTime};
use rolp_telemetry::{CounterId, HistId, MetricsSnapshot};
use rolp_trace::{EventKind, TraceEvent};
use rolp_vm::{CostModel, ThreadId};

use crate::latency::{corrected_latency_ns, queue_delay_ns, BucketSnapshot, LatencyRecorder};
use crate::schedule::{ArrivalProcess, ArrivalSchedule, PhaseSpec};
use crate::tenant::TenantSet;

/// Configuration for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Collector under test.
    pub collector: CollectorKind,
    /// Heap sizing.
    pub heap: HeapConfig,
    /// Experiment scale (cost model + side-table divisor).
    pub scale: SimScale,
    /// Guest threads to rotate requests across.
    pub threads: u32,
    /// Modeled GC worker override (pause cost model).
    pub gc_workers: Option<usize>,
    /// Warm-start profile (`--profile-in`).
    pub offline_profile: Option<DecisionProfile>,
    /// Inference-period override, in GC cycles (`None` keeps the
    /// profiler default). Short smoke runs shrink this so several
    /// epochs fit into seconds of simulated traffic.
    pub inference_period: Option<u64>,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Traffic phases (rates, durations, tenant weights).
    pub phases: Vec<PhaseSpec>,
    /// SLO thresholds in milliseconds (first = primary).
    pub slo_ms: Vec<f64>,
    /// Seed for the arrival draw and runtime JIT randomness.
    pub seed: u64,
    /// Record a flight-recorder trace.
    pub trace_enabled: bool,
    /// TLAB chunk size in bytes; 0 disables the allocation fast path.
    pub tlab_bytes: usize,
    /// Hard cap on requests (safety valve; `u64::MAX` = schedule-bound).
    pub max_requests: u64,
}

impl ServeConfig {
    /// Defaults for `collector` at `scale`: the big-data heap, four guest
    /// threads, a Poisson diurnal ramp with a hot-tenant flip in the
    /// middle phase, and a 10/25/50 ms SLO ladder.
    pub fn new(collector: CollectorKind, scale: SimScale) -> Self {
        ServeConfig {
            collector,
            heap: rolp_workloads::presets::bigdata_heap(scale),
            scale,
            threads: 4,
            gc_workers: None,
            offline_profile: None,
            inference_period: None,
            process: ArrivalProcess::Poisson,
            phases: crate::schedule::parse_phases("10s@3000x3/1;10s@6000x1/3;10s@3000x3/1")
                .expect("default schedule parses"),
            slo_ms: vec![10.0, 25.0, 50.0],
            seed: 42,
            trace_enabled: false,
            tlab_bytes: rolp_heap::DEFAULT_TLAB_BYTES,
            max_requests: u64::MAX,
        }
    }
}

/// One traffic phase shift, as observed by the serving loop.
#[derive(Debug, Clone, Copy)]
pub struct PhaseShiftRecord {
    /// Server clock when the shift was taken.
    pub at: SimTime,
    /// New phase index.
    pub phase: u32,
    /// New offered rate.
    pub rate_rps: u64,
    /// Requests completed before the shift.
    pub requests_before: u64,
    /// Inference epochs completed at the shift.
    pub epochs_at_shift: u64,
}

/// One decision-table publication observed by the serving loop.
#[derive(Debug, Clone, Copy)]
pub struct DigestChange {
    /// Server clock when the new table was first observed.
    pub at: SimTime,
    /// Published table version.
    pub version: u64,
    /// FNV digest of the published rows.
    pub digest: u64,
    /// Inference epochs completed at observation.
    pub epochs: u64,
}

/// Re-convergence verdict for one phase shift.
#[derive(Debug, Clone, Copy)]
pub struct ShiftConvergence {
    /// Phase index entered by the shift.
    pub phase: u32,
    /// Inference epochs between the shift and the *last* digest change
    /// before the next shift (or run end): how long the profiler kept
    /// revising decisions after the traffic moved.
    pub epochs_to_reconverge: u64,
    /// Digest changes observed in the window.
    pub changes: u64,
}

/// Everything one serving run produces.
pub struct ServeOutcome {
    /// End-of-run runtime report.
    pub report: RunReport,
    /// Per-request latency statistics.
    pub latency: LatencyRecorder,
    /// Requests served.
    pub requests: u64,
    /// Traffic phase shifts taken.
    pub shifts: Vec<PhaseShiftRecord>,
    /// Decision-table digest timeline (ROLP runs; empty otherwise).
    pub digest_changes: Vec<DigestChange>,
    /// Tenant display names.
    pub tenant_names: Vec<String>,
    /// Requests routed to each tenant.
    pub tenant_requests: Vec<u64>,
    /// Flight-recorder events (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Total simulated serving time.
    pub elapsed: SimTime,
    /// Telemetry snapshots published during the run, oldest first.
    pub metrics: Vec<Rc<MetricsSnapshot>>,
    /// GC pause recorder (for `--stats-json` summaries).
    pub pauses: PauseRecorder,
    /// The profile learned during the run (`None` without a profiler) —
    /// lets a serving run warm-start the next one (`--profile-out`).
    pub profile: Option<DecisionProfile>,
}

impl ServeOutcome {
    /// Per-shift re-convergence: for each phase shift, the number of
    /// inference epochs until the decision digest went quiet (stayed
    /// unchanged through the rest of the shift's window).
    pub fn reconvergence(&self) -> Vec<ShiftConvergence> {
        self.shifts
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let window_end = self.shifts.get(i + 1).map(|n| n.at).unwrap_or(self.elapsed);
                let in_window: Vec<&DigestChange> = self
                    .digest_changes
                    .iter()
                    .filter(|c| c.at >= s.at && c.at < window_end)
                    .collect();
                let epochs_to_reconverge = in_window
                    .last()
                    .map(|c| c.epochs.saturating_sub(s.epochs_at_shift))
                    .unwrap_or(0);
                ShiftConvergence {
                    phase: s.phase,
                    epochs_to_reconverge,
                    changes: in_window.len() as u64,
                }
            })
            .collect()
    }

    /// Simulated time from the last digest change to run end (the whole
    /// run when the digest never changed): how long the final decision
    /// table stayed stable.
    pub fn stable_tail(&self) -> SimTime {
        match self.digest_changes.last() {
            Some(c) => self.elapsed.saturating_sub(c.at),
            None => self.elapsed,
        }
    }
}

/// Runs the open-loop serving loop to completion.
pub fn serve(cfg: &ServeConfig, tenants: &mut TenantSet) -> ServeOutcome {
    serve_with(cfg, tenants, |_| {})
}

/// [`serve`] with a hook that runs once the runtime is assembled, before
/// the first request fires — the `rolp-serve` binary uses it to arm its
/// crash-flush guard against the live telemetry plane.
pub fn serve_with(
    cfg: &ServeConfig,
    tenants: &mut TenantSet,
    on_start: impl FnOnce(&JvmRuntime),
) -> ServeOutcome {
    let program = tenants.build_program();
    let mut config = RuntimeConfig {
        collector: cfg.collector,
        heap: cfg.heap.clone(),
        cost: CostModel::scaled(cfg.scale),
        threads: cfg.threads.max(1),
        gc_workers: cfg.gc_workers,
        seed: cfg.seed,
        side_table_scale: cfg.scale.divisor(),
        trace_enabled: cfg.trace_enabled,
        tlab_bytes: cfg.tlab_bytes,
        ..Default::default()
    };
    if let Some(period) = cfg.inference_period {
        config.rolp.inference_period = period.max(1);
    }
    config.rolp.offline_profile = cfg.offline_profile.clone();
    if cfg.collector == CollectorKind::RolpNg2c && config.rolp.filters.is_unfiltered() {
        config.rolp.filters = tenants.union_filters();
    }
    let threads = config.threads as u64;

    let mut rt = JvmRuntime::new(config, program);
    tenants.setup_all(&mut rt);
    on_start(&rt);

    let schedule = ArrivalSchedule::new(cfg.phases.clone(), cfg.process, cfg.seed);
    let phases = schedule.phases().to_vec();
    let primary_slo_ns = cfg.slo_ms.first().map(|ms| (ms * 1e6) as u64).unwrap_or(u64::MAX);

    let mut latency = LatencyRecorder::new(&cfg.slo_ms);
    let mut shifts: Vec<PhaseShiftRecord> = Vec::new();
    let mut digest_changes: Vec<DigestChange> = Vec::new();
    let mut tenant_requests = vec![0u64; tenants.len()];
    let mut requests: u64 = 0;
    let mut cur_phase: usize = 0;
    let mut last_version: u64 = u64::MAX;
    let window = SimTime::from_secs(1);
    let mut next_window = window;

    for arrival in schedule {
        if requests >= cfg.max_requests {
            break;
        }
        if arrival.phase != cur_phase {
            cur_phase = arrival.phase;
            let now = rt.vm.env.clock.now();
            let epochs = rt.vm.env.telemetry.cells().counter(CounterId::EpochsInferred);
            let rate_rps = phases[cur_phase].rate_rps;
            rt.vm.env.trace.emit_global(
                now,
                EventKind::ServePhaseShift {
                    phase: cur_phase as u32,
                    rate_rps,
                    requests_before: requests,
                },
            );
            shifts.push(PhaseShiftRecord {
                at: now,
                phase: cur_phase as u32,
                rate_rps,
                requests_before: requests,
                epochs_at_shift: epochs,
            });
        }

        let thread = ThreadId((requests % threads) as u32);
        let mut ctx = rt.ctx(thread);
        // Open-loop pacing: wait out the gap to the intended start, but
        // never wait for earlier requests — lateness becomes queueing
        // delay charged to this request's corrected latency.
        let now = ctx.env().clock.now();
        if now < arrival.intended {
            ctx.idle(arrival.intended.saturating_sub(now).as_nanos());
        }
        let actual_start = ctx.env().clock.now();
        let snap = BucketSnapshot::capture(ctx.env().telemetry.cells());

        let tenant = tenants.pick(&phases[cur_phase].tenant_weights);
        let done = tenants.tick(tenant, &mut ctx);
        ctx.complete_ops(done);

        let completion = ctx.env().clock.now();
        let decomp = snap.delta(ctx.env().telemetry.cells());

        latency.record(arrival.intended, actual_start, completion, &decomp);
        tenant_requests[tenant] += 1;
        requests += 1;

        let corrected = corrected_latency_ns(arrival.intended, completion);
        let tel = &rt.vm.env.telemetry;
        tel.record(HistId::ServeLatencyNs, corrected);
        tel.record(HistId::ServeQueueNs, queue_delay_ns(arrival.intended, actual_start));
        tel.bump(CounterId::ServeRequests, 1);
        if corrected > primary_slo_ns {
            tel.bump(CounterId::ServeSloMisses, 1);
        }

        // Decision timeline: one store load per request.
        if let Some(store) = rt.vm.env.decisions.as_ref() {
            let table = store.load();
            let version = table.version();
            if version != last_version {
                let digest = table.digest();
                let epochs = rt.vm.env.telemetry.cells().counter(CounterId::EpochsInferred);
                // Skip the run's initial empty table (version 0 before
                // the first inference) so the timeline holds real
                // publications only.
                if last_version != u64::MAX || version != 0 {
                    digest_changes.push(DigestChange { at: completion, version, digest, epochs });
                }
                last_version = version;
            }
        }

        let now = rt.vm.env.clock.now();
        if now >= next_window {
            rt.vm.env.throughput.sample_window(now);
            rt.sample_side_tables();
            rt.vm.env.telemetry.publish(now.as_nanos());
            next_window = now + window;
        }
    }

    let profile = rt.profiler.as_ref().map(|p| {
        let p = p.borrow();
        DecisionProfile::from_profiler(&p, &rt.vm.env.program, &rt.vm.env.jit)
    });
    let report = rt.report();
    let elapsed = rt.vm.env.clock.now();
    let metrics = rt.vm.env.telemetry.history();
    let pauses = rt.vm.env.pauses.clone();
    ServeOutcome {
        report,
        latency,
        requests,
        shifts,
        digest_changes,
        tenant_names: tenants.names(),
        tenant_requests,
        trace: rt.take_trace(),
        elapsed,
        metrics,
        pauses,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::parse_phases;
    use crate::tenant::default_tenants;

    fn tiny_config(collector: CollectorKind) -> ServeConfig {
        let scale = SimScale::new(2048);
        let mut cfg = ServeConfig::new(collector, scale);
        cfg.phases = parse_phases("2s@400x3/1;2s@400x1/3").expect("phases");
        cfg
    }

    #[test]
    fn serve_decomposition_matches_service_wall_time() {
        let cfg = tiny_config(CollectorKind::RolpNg2c);
        let mut tenants = default_tenants(cfg.scale);
        let out = serve(&cfg, &mut tenants);
        assert!(out.requests > 1_000, "served {} requests", out.requests);
        let wall = out.latency.service_wall_ns() as f64;
        let decomp = out.latency.decomposed_ns() as f64;
        assert!(wall > 0.0);
        let rel = (wall - decomp).abs() / wall;
        assert!(rel < 1e-6, "decomposition off by {rel} (wall {wall}, decomp {decomp})");
        // The schedule routed traffic to both tenants, flipping the mix.
        assert_eq!(out.tenant_requests.len(), 2);
        assert!(out.tenant_requests.iter().all(|&n| n > 0));
        assert_eq!(out.shifts.len(), 1, "one phase shift");
        assert!(out.shifts[0].requests_before > 0);
    }

    #[test]
    fn tlab_refill_stalls_are_charged_to_gc_not_app() {
        // With the allocation fast path on (the default), requests stall
        // on TLAB refills mid-service. Those stalls are GC/runtime
        // overhead, not application work: they must land in the `gc_ns`
        // bucket of the latency decomposition, and the sum-to-wall
        // partition must stay exact with the fast path enabled.
        let cfg = tiny_config(CollectorKind::RolpNg2c);
        assert!(cfg.tlab_bytes > 0, "fast path must default on");
        let out = serve(&cfg, &mut default_tenants(cfg.scale));
        let wall = out.latency.service_wall_ns() as f64;
        let decomp = out.latency.decomposed_ns() as f64;
        let rel = (wall - decomp).abs() / wall;
        assert!(rel < 1e-6, "decomposition off by {rel} with TLABs on");

        let refills =
            out.metrics.last().expect("at least one snapshot").counter(CounterId::TlabRefills);
        assert!(refills > 0, "workload must exercise refills");
        // Every refill charged its stall to the GC side of the split.
        let d = out.latency.decomposed();
        let refill_ns = refills * rolp_vm::CostModel::default().tlab_refill_ns;
        assert!(
            d.gc_ns >= refill_ns,
            "gc bucket ({}) must absorb all refill stalls ({refill_ns})",
            d.gc_ns
        );

        // Reference run: fast path off. The invariant holds either way,
        // and without TLABs no refill is ever charged.
        let mut slow = tiny_config(CollectorKind::RolpNg2c);
        slow.tlab_bytes = 0;
        let out = serve(&slow, &mut default_tenants(slow.scale));
        let wall = out.latency.service_wall_ns() as f64;
        let decomp = out.latency.decomposed_ns() as f64;
        assert!((wall - decomp).abs() / wall < 1e-6, "invariant holds without TLABs");
        let refills = out.metrics.last().expect("snapshot").counter(CounterId::TlabRefills);
        assert_eq!(refills, 0, "no fast path, no refills");
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = tiny_config(CollectorKind::G1);
        let a = serve(&cfg, &mut default_tenants(cfg.scale));
        let b = serve(&cfg, &mut default_tenants(cfg.scale));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.latency.corrected().percentile(99.0), b.latency.corrected().percentile(99.0));
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn rolp_run_keeps_a_decision_timeline_and_g1_does_not() {
        let mut cfg = tiny_config(CollectorKind::RolpNg2c);
        // Enough traffic for several inference epochs: ~300 requests per
        // GC cycle at this scale, inference every 2 cycles.
        cfg.phases = parse_phases("4s@1500x3/1;4s@1500x1/3").expect("phases");
        cfg.inference_period = Some(2);
        let out = serve(&cfg, &mut default_tenants(cfg.scale));
        assert!(!out.digest_changes.is_empty(), "ROLP published decisions");
        let conv = out.reconvergence();
        assert_eq!(conv.len(), out.shifts.len());
        let g1 = serve(&tiny_config(CollectorKind::G1), &mut default_tenants(cfg.scale));
        assert!(g1.digest_changes.is_empty(), "G1 has no decision store");
        assert_eq!(g1.stable_tail(), g1.elapsed);
    }
}
