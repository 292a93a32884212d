//! `rolp-serve`: fire an open-loop, arrival-rate-driven request stream at
//! the runtime and report SLO attainment with per-request latency
//! decomposition (app / GC / profiler / JIT) and decision re-convergence
//! after mid-run traffic shifts. See `--help`.

mod output;

use std::process::ExitCode;

use output::{metrics_jsonl, write_atomic, CrashGuard};
use rolp::runtime::CollectorKind;
use rolp::DecisionProfile;
use rolp_metrics::SimScale;
use rolp_serve::{
    default_tenants, format_phases, parse_phases, render_report, serve_with, ArrivalProcess,
    ServeConfig, ServeOutcome,
};

/// Parsed `rolp-serve` command line.
#[derive(Debug, Clone)]
struct ServeArgs {
    collector: CollectorKind,
    scale: u64,
    /// Phase spec string (parsed lazily so `--help` never fails).
    phases: Option<String>,
    process: ArrivalProcess,
    slo_ms: Vec<f64>,
    mutator_threads: u32,
    gc_workers: Option<usize>,
    profile_in: Option<String>,
    profile_out: Option<String>,
    inference_period: Option<u64>,
    seed: u64,
    max_requests: u64,
    serve_json: Option<String>,
    stats_json: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: u64,
    metrics_prom: Option<String>,
    trace_out: Option<String>,
    tlab_bytes: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            collector: CollectorKind::RolpNg2c,
            scale: 64,
            phases: None,
            process: ArrivalProcess::Poisson,
            slo_ms: vec![10.0, 25.0, 50.0],
            mutator_threads: 4,
            gc_workers: None,
            profile_in: None,
            profile_out: None,
            inference_period: None,
            seed: 42,
            max_requests: u64::MAX,
            serve_json: None,
            stats_json: None,
            metrics_out: None,
            metrics_interval: 1,
            metrics_prom: None,
            trace_out: None,
            tlab_bytes: rolp_heap::DEFAULT_TLAB_BYTES,
        }
    }
}

const USAGE: &str = "\
rolp-serve — open-loop request server under SLO for the ROLP reproduction

Fires a Poisson (or evenly paced) arrival schedule of Cassandra + Lucene
requests at the runtime across mixed tenants, charges every request from
its INTENDED start (coordinated-omission correction), decomposes each
request's service time into app / GC-pause / profiler-stall / JIT from
the telemetry plane's buckets, and reports exact SLO attainment plus how
many inference epochs the decision table needed to re-converge after
each mid-run traffic shift.

USAGE:
    rolp-serve [OPTIONS]

OPTIONS:
    --collector <NAME>  cms | g1 | zgc | ng2c | rolp       [default: rolp]
    --scale <N>         run at 1/N of the paper's testbed  [default: 64]
    --phases <SPEC>     ';'-separated phases, each <secs>s@<rate>
                        with optional tenant weights x<w0>/<w1>
                        [default: 10s@3000x3/1;10s@6000x1/3;10s@3000x3/1
                         — a diurnal ramp with a hot-tenant flip]
    --arrivals <KIND>   poisson | paced                    [default: poisson]
    --slo-ms <LIST>     comma-separated SLO thresholds, ms; the first is
                        the primary gate                   [default: 10,25,50]
    --mutator-threads <N>  guest threads serving requests  [default: 4]
    --gc-workers <N>    modeled GC workers (pause cost model)
                                                           [default: 4]
    --profile-in <FILE> warm-start from a rolp-profile-v1 (canary blend)
    --profile-out <FILE>  export the decisions this run learned, so the
                        next serving run can warm-start from them
    --inference-period <N>  run inference every N GC cycles (short smoke
                        runs shrink this so epochs fit the schedule)
    --seed <N>          arrival + runtime seed             [default: 42]
    --max-requests <N>  hard cap on requests (safety valve)
    --serve-json <FILE> write the rolp-serve-v1 summary (slo_gate.py input)
    --stats-json <FILE> write the end-of-run stats JSON (crash-safe)
    --metrics-out <FILE>  stream telemetry snapshots as JSONL (crash-safe)
    --metrics-interval <SECS>  min simulated seconds between JSONL rows
                                                           [default: 1]
    --metrics-prom <FILE>  write the final snapshot in Prometheus text
    --trace-out <FILE>  flight-recorder trace (.jsonl for line JSON,
                        otherwise Chrome trace_event)
    --tlab-size <BYTES> per-thread allocation buffer chunk size; refill
                        stalls are charged to the GC bucket in the
                        per-request decomposition; 0 disables TLABs
                                                        [default: 8192]
    --help              show this text
";

fn parse_collector(v: &str) -> Result<CollectorKind, String> {
    Ok(match v {
        "cms" => CollectorKind::Cms,
        "g1" => CollectorKind::G1,
        "zgc" => CollectorKind::Zgc,
        "ng2c" => CollectorKind::Ng2c,
        "rolp" => CollectorKind::RolpNg2c,
        other => return Err(format!("unknown collector {other}")),
    })
}

fn parse(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        let positive = |name: &str, v: String| {
            v.parse::<u64>().ok().filter(|&n| n > 0).ok_or(format!("{name} must be positive"))
        };
        match arg.as_str() {
            "--collector" => args.collector = parse_collector(&take("--collector")?)?,
            "--scale" => args.scale = positive("--scale", take("--scale")?)?,
            "--phases" => args.phases = Some(take("--phases")?),
            "--arrivals" => {
                args.process = match take("--arrivals")?.as_str() {
                    "poisson" => ArrivalProcess::Poisson,
                    "paced" => ArrivalProcess::Paced,
                    other => return Err(format!("unknown arrival process {other}")),
                }
            }
            "--slo-ms" => {
                let v = take("--slo-ms")?;
                let parsed: Result<Vec<f64>, String> = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|ms| *ms > 0.0)
                            .ok_or(format!("bad SLO threshold {s}"))
                    })
                    .collect();
                args.slo_ms = parsed?;
                if args.slo_ms.is_empty() {
                    return Err("--slo-ms needs at least one threshold".into());
                }
            }
            "--mutator-threads" => {
                args.mutator_threads =
                    positive("--mutator-threads", take("--mutator-threads")?)? as u32
            }
            "--gc-workers" => {
                args.gc_workers = Some(positive("--gc-workers", take("--gc-workers")?)? as usize)
            }
            "--profile-in" => args.profile_in = Some(take("--profile-in")?),
            "--profile-out" => args.profile_out = Some(take("--profile-out")?),
            "--inference-period" => {
                args.inference_period =
                    Some(positive("--inference-period", take("--inference-period")?)?)
            }
            "--seed" => {
                args.seed =
                    take("--seed")?.parse::<u64>().map_err(|_| "--seed must be an integer")?
            }
            "--max-requests" => {
                args.max_requests = positive("--max-requests", take("--max-requests")?)?
            }
            "--serve-json" => args.serve_json = Some(take("--serve-json")?),
            "--stats-json" => args.stats_json = Some(take("--stats-json")?),
            "--metrics-out" => args.metrics_out = Some(take("--metrics-out")?),
            "--metrics-interval" => {
                args.metrics_interval = positive("--metrics-interval", take("--metrics-interval")?)?
            }
            "--metrics-prom" => args.metrics_prom = Some(take("--metrics-prom")?),
            "--trace-out" => args.trace_out = Some(take("--trace-out")?),
            "--tlab-size" => {
                args.tlab_bytes = take("--tlab-size")?
                    .parse::<usize>()
                    .map_err(|_| "--tlab-size must be a byte count")?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn build_config(args: &ServeArgs) -> Result<ServeConfig, String> {
    let scale = SimScale::new(args.scale);
    let mut cfg = ServeConfig::new(args.collector, scale);
    if let Some(spec) = &args.phases {
        cfg.phases = parse_phases(spec)?;
    }
    cfg.process = args.process;
    cfg.slo_ms = args.slo_ms.clone();
    cfg.threads = args.mutator_threads;
    cfg.gc_workers = args.gc_workers;
    cfg.inference_period = args.inference_period;
    cfg.seed = args.seed;
    cfg.max_requests = args.max_requests;
    cfg.trace_enabled = args.trace_out.is_some();
    cfg.tlab_bytes = args.tlab_bytes;
    if let Some(path) = &args.profile_in {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let profile: DecisionProfile =
            text.parse().map_err(|e| format!("bad profile {path}: {e}"))?;
        println!(
            "profile-in: {} decision(s), {} call site(s) from {path}",
            profile.len(),
            profile.call_sites.len()
        );
        cfg.offline_profile = Some(profile);
    }
    Ok(cfg)
}

fn run(args: ServeArgs) -> Result<(), String> {
    let cfg = build_config(&args)?;
    let mut tenants = default_tenants(cfg.scale);
    println!(
        "serving {} tenants under {} — {} arrivals, phases {}, SLO {:?} ms, scale 1/{}\n",
        tenants.len(),
        cfg.collector.label(),
        match cfg.process {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Paced => "paced",
        },
        format_phases(&cfg.phases),
        cfg.slo_ms,
        cfg.scale.divisor(),
    );

    let mut guard: Option<CrashGuard> = None;
    let out = serve_with(&cfg, &mut tenants, |rt| {
        guard = CrashGuard::arm(
            args.stats_json.as_ref(),
            args.metrics_out.as_ref(),
            args.metrics_interval,
            &rt.vm.env.telemetry,
        );
    });

    print_summary(&out);
    let result = write_outputs(&args, &cfg, &out);
    if let Some(g) = &mut guard {
        g.disarm();
    }
    result
}

fn print_summary(out: &ServeOutcome) {
    println!("collector          {}", out.report.collector);
    println!(
        "requests           {} over {} ({} tenant(s))",
        out.requests,
        out.elapsed,
        out.tenant_names.len()
    );
    for (name, n) in out.tenant_names.iter().zip(&out.tenant_requests) {
        println!("  {name:<16} {n} request(s)");
    }
    println!("SLO attainment (corrected for coordinated omission):");
    for (threshold_ns, hits, frac) in out.latency.attainment() {
        println!(
            "  <= {:>7.1} ms   {:>8} / {} ({:.4})",
            threshold_ns as f64 / 1e6,
            hits,
            out.requests,
            frac
        );
    }
    let corr = out.latency.corrected();
    println!(
        "corrected latency  p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, max {:.3} ms",
        corr.percentile(50.0) as f64 / 1e6,
        corr.percentile(99.0) as f64 / 1e6,
        corr.percentile(99.9) as f64 / 1e6,
        corr.percentile(100.0) as f64 / 1e6,
    );
    println!(
        "service latency    p99 {:.3} ms (queue p99 {:.3} ms)",
        out.latency.service().percentile(99.0) as f64 / 1e6,
        out.latency.queue().percentile(99.0) as f64 / 1e6,
    );
    let d = out.latency.decomposed();
    let wall = out.latency.service_wall_ns().max(1) as f64;
    println!(
        "decomposition      app {:.1}%, gc {:.1}%, profiler {:.1}%, jit {:.1}%, idle {:.1}%",
        d.app_ns as f64 / wall * 100.0,
        d.gc_ns as f64 / wall * 100.0,
        d.profiler_ns as f64 / wall * 100.0,
        d.jit_ns as f64 / wall * 100.0,
        d.idle_ns as f64 / wall * 100.0,
    );
    for (shift, conv) in out.shifts.iter().zip(out.reconvergence()) {
        println!(
            "phase shift        -> phase {} at {} ({} rps): {} digest change(s), re-converged after {} epoch(s)",
            shift.phase, shift.at, shift.rate_rps, conv.changes, conv.epochs_to_reconverge
        );
    }
    println!(
        "decisions          {} publication(s), stable for the final {}",
        out.digest_changes.len(),
        out.stable_tail()
    );
    println!();
}

fn write_outputs(args: &ServeArgs, cfg: &ServeConfig, out: &ServeOutcome) -> Result<(), String> {
    if let Some(path) = &args.serve_json {
        write_atomic(path, &render_report(cfg, out))?;
        println!("serve: rolp-serve-v1 summary written to {path}");
    }
    if let Some(path) = &args.stats_json {
        write_atomic(path, &rolp::stats_json(&out.report, &out.pauses))?;
        println!("stats: run summary written to {path}");
    }
    if let Some(path) = &args.metrics_out {
        let body = metrics_jsonl(&out.metrics, args.metrics_interval);
        let rows = body.lines().count();
        write_atomic(path, &body)?;
        println!("metrics: {rows} snapshot(s) streamed to {path}");
    }
    if let Some(path) = &args.metrics_prom {
        std::fs::write(path, out.report.telemetry.to_prometheus())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics: final snapshot exposed to {path} (Prometheus text format)");
    }
    if let Some(path) = &args.trace_out {
        let rendered = if path.ends_with(".jsonl") {
            rolp_trace::export::to_jsonl(&out.trace)
        } else {
            rolp_trace::export::to_chrome_trace(&out.trace)
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace: {} event(s) written to {path}", out.trace.len());
    }
    if let Some(path) = &args.profile_out {
        match &out.profile {
            Some(profile) => {
                std::fs::write(path, profile.to_string())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("exported {} decision(s) to {path}", profile.len());
            }
            None => println!(
                "(no profiler in this configuration — --profile-out needs --collector rolp)"
            ),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn defaults_and_flags_parse() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.collector, CollectorKind::RolpNg2c);
        assert_eq!(d.scale, 64);
        assert_eq!(d.slo_ms, vec![10.0, 25.0, 50.0]);
        assert!(d.phases.is_none());

        let a = parse(&argv(
            "--collector g1 --scale 512 --phases 5s@100;5s@200 --arrivals paced \
             --slo-ms 5,20 --mutator-threads 2 --seed 7 \
             --inference-period 2 --serve-json out.json",
        ))
        .unwrap();
        assert_eq!(a.collector, CollectorKind::G1);
        assert_eq!(a.scale, 512);
        assert_eq!(a.process, ArrivalProcess::Paced);
        assert_eq!(a.slo_ms, vec![5.0, 20.0]);
        assert_eq!(a.mutator_threads, 2);
        assert_eq!(a.inference_period, Some(2));
        assert_eq!(a.serve_json.as_deref(), Some("out.json"));

        assert!(parse(&argv("--slo-ms 0")).unwrap_err().contains("bad SLO"));
        assert!(parse(&argv("--arrivals uniform")).unwrap_err().contains("unknown arrival"));
        assert!(parse(&argv("--table-shards 4")).unwrap_err().starts_with("unknown option"));
        assert!(parse(&argv("--frobnicate")).unwrap_err().contains("unknown option"));
    }

    #[test]
    fn build_config_applies_flags_and_validates_phases() {
        let mut args = parse(&argv("--phases 3s@500x2/1 --slo-ms 8")).unwrap();
        let cfg = build_config(&args).unwrap();
        assert_eq!(cfg.phases.len(), 1);
        assert_eq!(cfg.phases[0].rate_rps, 500);
        assert_eq!(cfg.slo_ms, vec![8.0]);
        args.phases = Some("garbage".into());
        assert!(build_config(&args).is_err());
    }
}
