//! `rolpbench`: runs the benchmark workloads, checks their outputs, and
//! prints every metric as `<workload> <name> <value> <unit>`, followed by
//! one JSON result object as the last line of standard output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use rolpbench::report::{self, Metric};
use rolpbench::trace::{self, LayerTimes, Span, Tracer};
use rolpbench::workloads::{run_rep, run_seed, setup_s, Pooled, Rep, SimOutput, Size, WorkloadId};

const USAGE: &str = "usage: rolpbench --workload <name|all> [--seed N] [--seconds S] [--reps R]
                 [--trace 0|1] [--trace-out FILE] [--json FILE]

  --workload   cassandra-wi.rolp | cassandra-wi.g1 | lucene.rolp |
               served-flip.rolp | all (reps interleaved round-robin)
  --seed       workload seed; the runs pooled for it derive
               their own seeds from it                       [default: 1]
  --seconds    keep adding reps while another round still fits in
               S seconds per workload                        [default: 0]
  --reps       minimum untraced reps per workload, never fewer
               than one per pooled run seed                  [default: 2]
  --trace      1: add one traced rep per workload; the result object
               then holds the per-layer metrics              [default: 0]
  --trace-out  write the traced reps' spans as Chrome trace_event JSON
  --json       also write the result object to FILE";

/// The traced rep must leave at most this share of its run outside every
/// layer's self time.
const MAX_UNATTRIBUTED: f64 = 0.05;

struct Args {
    workloads: Vec<WorkloadId>,
    all: bool,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    trace_out: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        all: false,
        seed: 1,
        seconds: 0.0,
        reps: 2,
        trace: false,
        trace_out: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.all = v == "all";
                args.workloads = if args.all {
                    WorkloadId::ALL.to_vec()
                } else {
                    vec![WorkloadId::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--reps" => {
                let v = value()?;
                args.reps = v.parse().ok().filter(|&r| r >= 1).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--json" => args.json = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

struct Traced {
    rep: Rep,
    times: LayerTimes,
    spans: Vec<Span>,
}

/// Everything measured for one workload.
struct Runs {
    id: WorkloadId,
    /// Rep `i` runs on [`run_seed`]`(seed, i % id.runs())`.
    reps: Vec<Result<Rep, String>>,
    /// Set-up times: one per rep plus [`SETUPS_PER_ROUND`] runs stopped
    /// right after set-up.
    setups: Vec<f64>,
    /// On run seed 0.
    traced: Option<Result<Traced, String>>,
}

/// Set-up takes milliseconds, so a round adds this many runs that stop
/// right after set-up to steady the `setup_s` median.
const SETUPS_PER_ROUND: usize = 20;

/// The verdict on one workload's runs.
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The pooled simulated outputs, once every run seed has a passing rep.
    pooled: Option<Pooled>,
    end_to_end: Vec<Metric>,
    /// Without a traced rep, only the host time of the untraced reps.
    per_layer: Vec<Metric>,
}

fn evaluate(runs: &Runs, timer_ns: f64) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        pooled: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let k = runs.id.runs();
    // The first rep that ran on each run seed is the reference for the
    // others on that seed.
    let reference: Vec<Option<&Rep>> = (0..k)
        .map(|run| runs.reps.iter().skip(run).step_by(k).find_map(|r| r.as_ref().ok()))
        .collect();
    let expected_ops = reference.iter().flatten().next().map_or(1, |r| r.sim.ops);
    let mut first_passed: Vec<Option<&Rep>> = vec![None; k];
    let mut passed: Vec<Rep> = Vec::new();
    let traced = runs.traced.iter().map(|t| t.as_ref().map(|t| &t.rep));
    for (i, rep) in runs.reps.iter().map(Result::as_ref).chain(traced).enumerate() {
        let untraced = i < runs.reps.len();
        let run = if untraced { i % k } else { 0 };
        let label =
            if untraced { format!("rep {i} (run seed {run})") } else { "traced rep".into() };
        let problems: Vec<String> = match rep {
            Err(panic) => vec![format!("panicked: {panic}")],
            Ok(rep) => {
                let mut p = rep.failures.clone();
                if reference[run].is_some_and(|r| r.fingerprint != rep.fingerprint) {
                    p.push(format!(
                        "fingerprint {:016x} differs from the first rep that ran on its seed",
                        rep.fingerprint
                    ));
                }
                p
            }
        };
        let ops = rep.map_or(expected_ops, |r| r.sim.ops);
        v.attempted += ops;
        if problems.is_empty() {
            if let (true, Ok(rep)) = (untraced, rep) {
                first_passed[run].get_or_insert(rep);
                passed.push(rep.clone());
            }
        } else {
            v.failed += ops;
            v.failures.extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }
    let Some(firsts) = first_passed.into_iter().collect::<Option<Vec<&Rep>>>() else {
        v.failures.push("some run seed has no passing rep".into());
        return v;
    };
    let sims: Vec<&SimOutput> = firsts.iter().map(|r| &r.sim).collect();
    let pooled = Pooled::of(runs.id, &sims);
    v.failures.extend(pooled.tail_check(runs.id));
    v.end_to_end = report::end_to_end(&pooled, &passed, &runs.setups);
    v.pooled = Some(pooled);
    v.per_layer = report::host_time(&passed);
    if let Some(Ok(t)) = &runs.traced {
        v.per_layer = report::per_layer(runs.id, &passed, &t.rep, &t.times, timer_ns);
        let unattributed =
            report::SelfTimes::of(runs.id, &t.times).unattributed_frac(t.times.run_s);
        if unattributed > MAX_UNATTRIBUTED {
            v.failures.push(format!("traced rep: {unattributed:.3} of host time unattributed (limit {MAX_UNATTRIBUTED})"));
        }
    }
    v
}

fn print_metrics(w: WorkloadId, metrics: &[Metric]) {
    for m in metrics {
        match m.spread {
            Some(s) => println!(
                "{} {} {} {}  (q1 {}, q3 {}, n={})",
                w.name(),
                m.name,
                m.value,
                m.unit,
                s.q1,
                s.q3,
                s.n
            ),
            None => println!("{} {} {} {}", w.name(), m.name, m.value, m.unit),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let timer_ns = trace::calibrate_timer_ns();
    let mut runs: Vec<Runs> = args
        .workloads
        .iter()
        .map(|&id| Runs { id, reps: Vec::new(), setups: Vec::new(), traced: None })
        .collect();

    // Rounds of one rep per workload, interleaved so that slow periods of
    // the machine hit every workload alike; each workload's run seeds take
    // turns. The first rep on each run seed also verifies the heap at the
    // end of the run.
    let start = Instant::now();
    let budget = args.seconds * runs.len() as f64;
    let min_rounds = runs.iter().map(|r| r.id.runs()).max().unwrap_or(1).max(args.reps);
    let mut rounds = 0;
    loop {
        for r in &mut runs {
            let run = rounds % r.id.runs();
            let seed = run_seed(args.seed, run);
            let rep = guarded(|| run_rep(r.id, seed, Size::Full, rounds == run, None));
            if let Ok(rep) = &rep {
                r.setups.push(rep.setup_s);
            }
            r.reps.push(rep);
            for _ in 0..SETUPS_PER_ROUND {
                r.setups.extend(guarded(|| setup_s(r.id, seed)));
            }
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if rounds >= min_rounds && elapsed * (rounds + 1) as f64 / rounds as f64 > budget {
            break;
        }
    }
    if args.trace {
        for r in &mut runs {
            let tracer = Tracer::new(timer_ns);
            r.traced = Some(
                guarded(|| run_rep(r.id, args.seed, Size::Full, false, Some(&tracer)))
                    .map(|rep| Traced { rep, times: tracer.times(), spans: tracer.spans() }),
            );
        }
    }

    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut verdicts = Vec::new();
    for r in &runs {
        let v = evaluate(r, timer_ns);
        let reps = r.reps.len();
        let traced = if args.trace { " + 1 traced" } else { "" };
        let (pause_tail, latency_tail) = r.id.tail_percentiles();
        let k = r.id.runs();
        match &v.pooled {
            Some(p) => println!(
                "# {}: seed {}, {k} pooled run(s), {reps} reps{traced}, {} ops in {} simulated s, \
                 tails p{pause_tail} of {} pauses and p{latency_tail} of {} latencies, \
                 {cores} cores, {} GC workers",
                r.id.name(),
                args.seed,
                p.ops,
                p.sim_s,
                p.pauses,
                p.latencies,
                rolpbench::workloads::GC_WORKERS,
            ),
            None => println!(
                "# {}: seed {}, {k} pooled run(s), {reps} reps{traced}",
                r.id.name(),
                args.seed
            ),
        }
        print_metrics(r.id, &v.end_to_end);
        print_metrics(r.id, &v.per_layer);
        for f in &v.failures {
            println!("# FAIL {}: {f}", r.id.name());
        }
        correct &= v.failures.is_empty();
        attempted += v.attempted;
        failed += v.failed;
        verdicts.push((r.id, v));
    }

    if let Some(path) = &args.trace_out {
        let traces: Vec<(&str, Vec<Span>)> = runs
            .iter()
            .filter_map(|r| match &r.traced {
                Some(Ok(t)) => Some((r.id.name(), t.spans.clone())),
                _ => None,
            })
            .collect();
        if let Err(e) = std::fs::write(path, trace::chrome_trace(&traces)) {
            eprintln!("error: cannot write {path}: {e}");
            correct = false;
        }
    }

    let groups: Vec<(WorkloadId, &[Metric])> = verdicts
        .iter()
        .map(|(id, v)| (*id, if args.trace { &v.per_layer[..] } else { &v.end_to_end[..] }))
        .collect();
    let json = report::result_json(correct, attempted.max(1), failed, &groups, args.all);
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            correct = false;
        }
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
