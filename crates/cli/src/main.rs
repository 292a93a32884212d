//! `rolp-sim`: run any workload of the reproduction under any collector
//! and report pause percentiles, throughput, memory, and (for ROLP) the
//! profiler's learned decisions. See `--help`.

mod args;
mod output;

use std::process::ExitCode;

use rolp::runtime::{CollectorKind, RuntimeConfig};
use rolp::DecisionProfile;
use rolp_metrics::{SimScale, SimTime};
use rolp_vm::CostModel;
use rolp_workloads::{execute_with, DacapoBench, RunBudget, Workload};

use args::{Args, WorkloadChoice};
use output::{metrics_jsonl, write_atomic, CrashGuard};

fn build_workload(args: &Args, scale: SimScale) -> Box<dyn Workload> {
    use rolp_workloads::presets;
    match &args.workload {
        WorkloadChoice::Cassandra(mix) => Box::new(presets::cassandra(*mix, scale)),
        WorkloadChoice::Lucene => Box::new(presets::lucene(scale)),
        WorkloadChoice::GraphChi(algo) => Box::new(presets::graphchi(*algo, scale)),
        WorkloadChoice::Dacapo(name) => {
            let spec = rolp_workloads::benchmark(name).expect("validated at parse time");
            Box::new(DacapoBench::new(spec, 0xDACA))
        }
    }
}

fn heap_for(args: &Args, scale: SimScale) -> rolp_heap::HeapConfig {
    match &args.workload {
        WorkloadChoice::Dacapo(name) => {
            rolp_workloads::benchmark(name).expect("validated").heap_config(scale)
        }
        _ => rolp_workloads::presets::bigdata_heap(scale),
    }
}

fn run(args: Args) -> Result<(), String> {
    let scale = SimScale::new(args.scale);
    let mut workload = build_workload(&args, scale);
    let heap = heap_for(&args, scale);

    let mut config = RuntimeConfig {
        collector: args.collector,
        heap: heap.clone(),
        cost: CostModel::scaled(scale),
        threads: args.mutator_threads,
        gc_workers: args.gc_workers,
        side_table_scale: scale.divisor(),
        tlab_bytes: args.tlab_bytes,
        ..Default::default()
    };
    if let Some(path) = &args.profile_in {
        // Parse/version/truncation errors fail the run here; shape
        // validation against the program happens in the profiler at first
        // JIT compile and is reported in the end-of-run summary.
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let profile: DecisionProfile =
            text.parse().map_err(|e| format!("bad profile {path}: {e}"))?;
        let provenance = match profile.fingerprint {
            Some(fp) => format!("fingerprint {fp:016x}, {} epoch(s) of evidence", profile.epochs),
            None => "no fingerprint, per-entry validation only".to_string(),
        };
        println!(
            "profile-in: {} decision(s), {} call site(s) from {path} ({provenance})",
            profile.len(),
            profile.call_sites.len()
        );
        config.rolp.offline_profile = Some(profile);
    }
    // The flight recorder stays off (and costs nothing) unless a trace
    // sink was requested.
    config.trace_enabled = args.trace_out.is_some();
    if let Some(spec) = &args.fault_plan {
        let plan = rolp_faults::FaultPlan::parse(spec).expect("validated at parse time");
        println!(
            "fault plan: {} ({} fault(s)) — overhead governor engaged",
            plan.name,
            plan.faults.len()
        );
        config.rolp.fault_plan = Some(plan);
        config.rolp.governor = Some(rolp::GovernorConfig::default());
    }

    let budget = RunBudget {
        sim_time: SimTime::from_secs(args.secs),
        warmup_discard: SimTime::from_secs(args.discard),
        max_ops: u64::MAX,
    };

    println!(
        "running {} under {} — heap {}, scale 1/{}, {} simulated ({}s discard)\n",
        workload.name(),
        args.collector.label(),
        rolp_metrics::table::fmt_bytes(heap.max_heap_bytes),
        scale.divisor(),
        budget.sim_time,
        args.discard,
    );

    // The driver consumes the config; profile export needs the runtime, so
    // re-run through the lower-level pieces when exporting.
    if args.profile_out.is_some() || args.report {
        run_with_runtime(&args, &mut *workload, config, &budget)
    } else {
        let mut guard: Option<CrashGuard> = None;
        let out = execute_with(&mut *workload, config, &budget, |rt| {
            guard = arm_crash_guard(&args, rt);
        });
        print_outcome(&out);
        let result = write_outputs(&args, &out.report, &out.pauses, &out.trace, &out.metrics);
        if let Some(g) = &mut guard {
            g.disarm();
        }
        result
    }
}

/// Arms the crash-flush guard covering the `--stats-json` and
/// `--metrics-out` sinks (see [`CrashGuard`]).
fn arm_crash_guard(args: &Args, rt: &rolp::runtime::JvmRuntime) -> Option<CrashGuard> {
    CrashGuard::arm(
        args.stats_json.as_ref(),
        args.metrics_out.as_ref(),
        args.metrics_interval,
        &rt.vm.env.telemetry,
    )
}

/// Writes the `--trace-out` / `--stats-json` / `--metrics-*` sinks, if
/// requested.
fn write_outputs(
    args: &Args,
    report: &rolp::runtime::RunReport,
    pauses: &rolp_metrics::PauseRecorder,
    trace: &[rolp_trace::TraceEvent],
    metrics: &[std::rc::Rc<rolp_telemetry::MetricsSnapshot>],
) -> Result<(), String> {
    if let Some(path) = &args.trace_out {
        let rendered = if path.ends_with(".jsonl") {
            rolp_trace::export::to_jsonl(trace)
        } else {
            rolp_trace::export::to_chrome_trace(trace)
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace: {} event(s) written to {path}", trace.len());
    }
    if let Some(path) = &args.stats_json {
        write_atomic(path, &rolp::stats_json(report, pauses))?;
        println!("stats: run summary written to {path}");
    }
    if let Some(path) = &args.metrics_out {
        let body = metrics_jsonl(metrics, args.metrics_interval);
        let rows = body.lines().count();
        write_atomic(path, &body)?;
        println!("metrics: {rows} snapshot(s) streamed to {path}");
    }
    if let Some(path) = &args.metrics_prom {
        std::fs::write(path, report.telemetry.to_prometheus())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics: final snapshot exposed to {path} (Prometheus text format)");
    }
    Ok(())
}

/// Variant that keeps the runtime alive for report/export.
fn run_with_runtime(
    args: &Args,
    workload: &mut dyn Workload,
    mut config: RuntimeConfig,
    budget: &RunBudget,
) -> Result<(), String> {
    let program = workload.build_program();
    if config.collector == CollectorKind::RolpNg2c && config.rolp.filters.is_unfiltered() {
        config.rolp.filters = workload.profiling_filters();
    }
    workload.set_annotations(config.collector == CollectorKind::Ng2c);
    let mut rt = rolp::runtime::JvmRuntime::new(config, program);
    workload.setup(&mut rt);
    let mut guard = arm_crash_guard(args, &rt);

    let mut tick_no = 0u64;
    let threads = args.mutator_threads.max(1) as u64;
    let publish_every = SimTime::from_secs(args.metrics_interval);
    let mut next_publish = publish_every;
    while rt.vm.env.clock.now() < budget.sim_time {
        let thread = rolp_vm::ThreadId((tick_no % threads) as u32);
        tick_no += 1;
        let mut ctx = rt.ctx(thread);
        let ops = workload.tick(&mut ctx);
        ctx.complete_ops(ops);
        let now = rt.vm.env.clock.now();
        if now >= next_publish {
            rt.vm.env.telemetry.publish(now.as_nanos());
            next_publish = now + publish_every;
        }
    }

    let report = rt.report();
    let mut pauses = rt.vm.env.pauses.clone();
    pauses.discard_before(budget.warmup_discard);
    print_report(&report, &pauses);
    let metrics = rt.vm.env.telemetry.history();
    let trace = rt.take_trace();
    write_outputs(args, &report, &pauses, &trace, &metrics)?;
    if let Some(g) = &mut guard {
        g.disarm();
    }
    if args.report {
        println!("{}", rolp::render_telemetry(&report.telemetry));
    }

    if let Some(profiler) = &rt.profiler {
        let p = profiler.borrow();
        if args.report {
            println!("{}", rolp::render_summary(&p, &rt.vm.env.program, &rt.vm.env.jit));
            println!("{}", rolp::render_decisions(&p, &rt.vm.env.program));
        }
        if let Some(path) = &args.profile_out {
            let profile = DecisionProfile::from_profiler(&p, &rt.vm.env.program, &rt.vm.env.jit);
            std::fs::write(path, profile.to_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("exported {} decision(s) to {path}", profile.len());
        }
    } else if args.report || args.profile_out.is_some() {
        println!(
            "(no profiler in this configuration — --report/--profile-out need --collector rolp)"
        );
    }
    Ok(())
}

fn print_outcome(out: &rolp_workloads::RunOutcome) {
    print_report(&out.report, &out.pauses);
}

fn print_report(report: &rolp::runtime::RunReport, pauses: &rolp_metrics::PauseRecorder) {
    println!("collector          {}", report.collector);
    println!("operations         {}", report.ops);
    println!(
        "throughput         {:.0} ops/s ({:.0} ops/busy-s)",
        report.ops_per_sec, report.ops_per_busy_sec
    );
    println!("GC cycles          {}", report.gc_cycles);
    println!(
        "profiling overhead {:.2}% of busy mutator time (self-measured)",
        report.profiling_overhead * 100.0
    );
    println!("time paused        {} of {}", report.total_paused, report.elapsed);
    println!(
        "max memory         {} used, {} committed",
        rolp_metrics::table::fmt_bytes(report.max_used_bytes),
        rolp_metrics::table::fmt_bytes(report.max_committed_bytes)
    );
    if let Some(r) = &report.rolp {
        if let Some(state) = r.governor_state {
            println!(
                "governor           ended in state `{state}` ({} transition(s), {} injected fault event(s))",
                r.governor_transitions, r.injected_fault_events
            );
        }
        if let Some(v) = r.profile_import {
            println!(
                "profile import     {}/{} entries applied, {}/{} call sites; stable since epoch {}",
                v.entries_applied,
                v.entries_total,
                v.call_sites_applied,
                v.call_sites_total,
                r.last_change_epoch
            );
            if v.nothing_applied() {
                println!(
                    "WARNING: imported profile applied nothing — it came from a different program"
                );
            } else if !v.fully_applied() {
                println!(
                    "WARNING: imported profile only partially applied ({} entries, {} call sites rejected)",
                    v.entries_rejected, v.call_sites_rejected
                );
            }
        }
    }
    println!("pauses (post-discard): {}", pauses.count());
    for p in [50.0, 90.0, 99.0, 99.9, 100.0] {
        println!("  p{p:<6} {:>9.2} ms", pauses.percentile_ms(p));
    }
    println!();
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
