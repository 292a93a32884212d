//! Regression test for the governor's *measured* overhead feedback loop
//! (DESIGN.md §13, §14): under a `pressure-spike` fault plan, the
//! telemetry plane's self-observed profiling overhead turns profiling
//! `Off` (reason `overhead-budget`), and once the burst subsides the
//! governor returns to `Full`.

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
    for _ in 0..150_000u64 {
        let mut ctx = rt.ctx(ThreadId(0));
        ctx.call(call, |ctx| {
            let h = ctx.alloc(site, class, 0, 4);
            ctx.release(h);
            let held = ctx.alloc(site2, class, 0, 4);
            ring.push_back(held);
            if ring.len() > 64 {
                ctx.release(ring.pop_front().unwrap());
            }
            // Some computation per op, so profiling the two allocations
            // costs well under the 5% budget outside the spike.
            ctx.work(200);
            ctx.complete_ops(1);
        });
    }
    let report = rt.report();
    let trace = rt.take_trace();
    (report, trace)
}

#[test]
fn pressure_spike_turns_profiling_off_via_measured_overhead() {
    let mut cfg = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 18 },
        trace_enabled: true,
        ..Default::default()
    };
    cfg.rolp.governor = Some(GovernorConfig::default());
    cfg.rolp.fault_plan = Some(FaultPlan::named("pressure-spike").unwrap());
    cfg.rolp.survivor_shutdown = false;
    let (report, trace) = run_traced(cfg);

    let stats = report.rolp.as_ref().expect("rolp stats");
    assert!(
        report.gc_cycles >= 80,
        "past the burst (cycles 16..48) and two calm epochs: {}",
        report.gc_cycles
    );
    assert!(stats.injected_fault_events > 0, "the spike fired");

    // The spike turned profiling off on the measured signal, and the
    // calm epochs after it turned profiling back on.
    let transitions: Vec<(&str, &str, &str, u64, u64)> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::GovernorTransition { from, to, reason, profiling_ns, mutator_ns } => {
                Some((from, to, reason, profiling_ns, mutator_ns))
            }
            _ => None,
        })
        .collect();
    let steps: Vec<(&str, &str, &str)> = transitions.iter().map(|t| (t.0, t.1, t.2)).collect();
    assert_eq!(
        steps,
        [("full", "off", "overhead-budget"), ("off", "full", "recovered")],
        "one trip on measured overhead, one recovery"
    );
    // Each event carries the measurement behind it: over 5% of busy
    // mutator time when tripping, at most 5% when recovering.
    let (_, _, _, prof, busy) = transitions[0];
    assert!(prof * 20 > busy, "trip at {prof} / {busy} ns");
    let (_, _, _, prof, busy) = transitions[1];
    assert!(prof * 20 <= busy, "recovery at {prof} / {busy} ns");
    assert_eq!(stats.governor_state, Some("full"));
    assert_eq!(stats.governor_transitions, 2);

    // The final snapshot carries the overhead the governor acted on.
    let json = rolp::stats_json(&report, &rolp_metrics::PauseRecorder::new());
    assert!(json.contains("\"profiling_overhead\":"), "{json}");
}
