//! Regression test for the governor's *measured* overhead feedback loop
//! (DESIGN.md §14): under a `pressure-spike` fault plan, the telemetry
//! plane's self-observed profiling overhead — not the cost-model
//! estimate — must walk the degradation ladder Full → Reduced →
//! SitesOnly, with every degrading transition attributed to the
//! `overhead-budget` reason.

use rolp::governor::GovernorConfig;
use rolp::runtime::{CollectorKind, JvmRuntime, RunReport, RuntimeConfig};
use rolp_faults::FaultPlan;
use rolp_trace::{EventKind, TraceEvent};
use rolp_vm::{ProgramBuilder, ThreadId};

/// The prop_governor workload, with the flight recorder on so governor
/// transitions (and their reasons) are observable.
fn run_traced(config: RuntimeConfig) -> (RunReport, Vec<TraceEvent>) {
    let mut b = ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let worker = b.method("app.Worker::step", 80, false);
    let call = b.call_site(main, worker);
    let site = b.alloc_site(worker, 1);
    let site2 = b.alloc_site(main, 2);
    let program = b.build();

    let mut rt = JvmRuntime::new(config, program);
    let class = rt.vm.env.heap.classes.register("app.Item");
    let mut ring = std::collections::VecDeque::new();
    for _ in 0..60_000u64 {
        let mut ctx = rt.ctx(ThreadId(0));
        ctx.call(call, |ctx| {
            let h = ctx.alloc(site, class, 0, 4);
            ctx.release(h);
            let held = ctx.alloc(site2, class, 0, 4);
            ring.push_back(held);
            if ring.len() > 64 {
                ctx.release(ring.pop_front().unwrap());
            }
            ctx.complete_ops(1);
        });
    }
    let report = rt.report();
    let trace = rt.take_trace();
    (report, trace)
}

#[test]
fn pressure_spike_degrades_via_measured_overhead() {
    let mut cfg = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 18 },
        trace_enabled: true,
        ..Default::default()
    };
    // Loosen every budget except the measured-overhead one so the ladder
    // can only be driven by the telemetry signal.
    cfg.rolp.governor = Some(GovernorConfig {
        max_record_events_per_epoch: u64::MAX,
        max_table_bytes: u64::MAX,
        max_call_overhead_ns_per_epoch: u64::MAX,
        ..Default::default()
    });
    cfg.rolp.fault_plan = Some(FaultPlan::named("pressure-spike").unwrap());
    cfg.rolp.survivor_shutdown = false;
    let (report, trace) = run_traced(cfg);

    let stats = report.rolp.as_ref().expect("rolp stats");
    assert!(stats.injected_fault_events > 0, "the spike fired");

    // Every degrading transition came from the measured signal, and the
    // ladder reached at least SitesOnly.
    let transitions: Vec<(&str, &str, &str)> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::GovernorTransition { from, to, reason, .. } => Some((from, to, reason)),
            _ => None,
        })
        .collect();
    assert!(
        transitions
            .iter()
            .any(|&(from, to, r)| (from, to, r) == ("full", "reduced", "overhead-budget")),
        "Full -> Reduced from measured overhead; got {transitions:?}"
    );
    assert!(
        transitions
            .iter()
            .any(|&(from, to, r)| (from, to, r) == ("reduced", "sites-only", "overhead-budget")),
        "Reduced -> SitesOnly from measured overhead; got {transitions:?}"
    );
    for &(_, _, reason) in &transitions {
        assert!(
            reason == "overhead-budget" || reason == "recovered",
            "only the measured budget may degrade this run, got {reason}"
        );
    }

    // The final snapshot carries the overhead the governor acted on.
    let json = rolp::stats_json(&report, &rolp_metrics::PauseRecorder::new());
    assert!(json.contains("\"profiling_overhead\":"), "{json}");
}
