//! Hand-rolled argument parsing for `rolp-sim` (no CLI dependency).

use rolp::runtime::CollectorKind;

/// Which workload to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadChoice {
    /// Cassandra-like KV store: `cassandra-wi` / `cassandra-rw` /
    /// `cassandra-ri`.
    Cassandra(rolp_workloads::CassandraMix),
    /// Lucene-like indexer.
    Lucene,
    /// GraphChi-like engine: `graphchi-cc` / `graphchi-pr`.
    GraphChi(rolp_workloads::GraphAlgo),
    /// A DaCapo-like benchmark by name.
    Dacapo(String),
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: WorkloadChoice,
    /// Collector configuration.
    pub collector: CollectorKind,
    /// Experiment scale divisor (paper testbed / N).
    pub scale: u64,
    /// Simulated run length in seconds.
    pub secs: u64,
    /// Warmup discard in seconds.
    pub discard: u64,
    /// Print the profiler report at the end.
    pub report: bool,
    /// Export learned decisions to this file (`--profile-out`).
    pub profile_out: Option<String>,
    /// Import an offline decision profile from this file (`--profile-in`).
    pub profile_in: Option<String>,
    /// Write a Chrome `trace_event` flight-recorder trace to this file.
    pub trace_out: Option<String>,
    /// Write the machine-readable run summary (JSON) to this file.
    pub stats_json: Option<String>,
    /// Stream live telemetry snapshots (JSONL, one per interval) to this
    /// file.
    pub metrics_out: Option<String>,
    /// Simulated seconds between streamed snapshots.
    pub metrics_interval: u64,
    /// Write the final snapshot in Prometheus text exposition format to
    /// this file at exit.
    pub metrics_prom: Option<String>,
    /// Guest mutator threads.
    pub mutator_threads: u32,
    /// Modeled GC workers: the width of the pause cost model (None keeps
    /// its default).
    pub gc_workers: Option<usize>,
    /// Fault-injection plan: a canned name or a `;`-separated spec
    /// (enables the overhead governor). `None` = no injection.
    pub fault_plan: Option<String>,
    /// TLAB chunk size in bytes; 0 disables the per-thread allocation
    /// fast path.
    pub tlab_bytes: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: WorkloadChoice::Cassandra(rolp_workloads::CassandraMix::WriteIntensive),
            collector: CollectorKind::RolpNg2c,
            scale: 64,
            secs: 120,
            discard: 30,
            report: false,
            profile_out: None,
            profile_in: None,
            trace_out: None,
            stats_json: None,
            metrics_out: None,
            metrics_interval: 1,
            metrics_prom: None,
            mutator_threads: 4,
            gc_workers: None,
            fault_plan: None,
            tlab_bytes: rolp_heap::DEFAULT_TLAB_BYTES,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
rolp-sim — run a workload under a collector and report GC behaviour

USAGE:
    rolp-sim [OPTIONS]

OPTIONS:
    --workload <NAME>   cassandra-wi | cassandra-rw | cassandra-ri |
                        lucene | graphchi-cc | graphchi-pr |
                        dacapo:<benchmark>            [default: cassandra-wi]
    --collector <NAME>  cms | g1 | zgc | ng2c | rolp  [default: rolp]
    --scale <N>         run at 1/N of the paper's testbed [default: 64]
    --secs <N>          simulated run length in seconds   [default: 120]
    --discard <N>       warmup discard in seconds         [default: 30]
    --report            print the full profiler report
    --profile-out <FILE>  write the learned state as a versioned
                        rolp-profile-v1 file: pretenuring decisions with
                        confidence, frozen distinguishing call sites, the
                        program-shape fingerprint, and epoch count
    --profile-in <FILE>   warm-start from an exported profile: decisions
                        apply the moment their site is JIT-compiled, and
                        the profile is validated against the running
                        program's shape — entries that no longer resolve
                        are rejected with a warning, never blindly applied
    --trace-out <FILE>  record a flight-recorder trace of GC pauses,
                        profiler inferences, pretenuring decisions, and
                        JIT activity; written in Chrome trace_event format
                        (load in chrome://tracing or ui.perfetto.dev).
                        Use a .jsonl extension for line-oriented JSON
                        events instead.
    --stats-json <FILE> write the end-of-run summary as JSON (pause
                        percentiles, throughput, profiler counters);
                        written atomically (temp file + rename), and a
                        partial telemetry snapshot is flushed if the run
                        panics, so the file is never truncated JSON
    --metrics-out <FILE>  stream live telemetry snapshots as JSONL, one
                        flat object per line (schema rolp-metrics-v1:
                        time-per-bucket, counters, gauges, histogram
                        percentiles, profiling overhead)
    --metrics-interval <N>  simulated seconds between streamed snapshots
                        [default: 1]
    --metrics-prom <FILE>  dump the final telemetry snapshot in
                        Prometheus text exposition format at exit
    --mutator-threads <N>  guest mutator threads, run in turn on one
                        OS thread                       [default: 4]
    --gc-workers <N>    modeled GC workers: the pause cost model divides
                        parallel GC work by this width  [default: 4]
    --fault-plan <SPEC> inject deterministic profiler faults and engage
                        the overhead governor. SPEC is a canned plan
                        (pressure-spike | id-exhaustion) or a
                        `;`-separated list of atoms, e.g.
                        \"exhaust-ids@24;burst@16..48x3000000\"
    --tlab-size <BYTES> per-thread allocation buffer (TLAB) chunk size;
                        each mutator bump-allocates privately from a
                        chunk of this size per space and refills under
                        the shared lock only on exhaustion; 0 disables
                        TLABs (every allocation takes the shared slow
                        path)                           [default: 8192]
    --help              show this text
";

/// Parses arguments; `Err` carries the message to print.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = take("--workload")?;
                args.workload = parse_workload(&v)?;
            }
            "--collector" => {
                let v = take("--collector")?;
                args.collector = parse_collector(&v)?;
            }
            "--scale" => {
                let v = take("--scale")?;
                args.scale =
                    v.parse::<u64>().ok().filter(|&n| n > 0).ok_or("--scale must be positive")?;
            }
            "--secs" => {
                let v = take("--secs")?;
                args.secs =
                    v.parse::<u64>().ok().filter(|&n| n > 0).ok_or("--secs must be positive")?;
            }
            "--discard" => {
                let v = take("--discard")?;
                args.discard = v.parse::<u64>().map_err(|_| "--discard must be a number")?;
            }
            "--report" => args.report = true,
            "--profile-out" => args.profile_out = Some(take("--profile-out")?),
            "--profile-in" => args.profile_in = Some(take("--profile-in")?),
            "--trace-out" => args.trace_out = Some(take("--trace-out")?),
            "--stats-json" => args.stats_json = Some(take("--stats-json")?),
            "--metrics-out" => args.metrics_out = Some(take("--metrics-out")?),
            "--metrics-interval" => {
                let v = take("--metrics-interval")?;
                args.metrics_interval = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--metrics-interval must be positive")?;
            }
            "--metrics-prom" => args.metrics_prom = Some(take("--metrics-prom")?),
            "--mutator-threads" => {
                let v = take("--mutator-threads")?;
                args.mutator_threads = v
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--mutator-threads must be positive")?;
            }
            "--gc-workers" => {
                let v = take("--gc-workers")?;
                args.gc_workers = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--gc-workers must be positive")?,
                );
            }
            "--fault-plan" => {
                let v = take("--fault-plan")?;
                // Validate eagerly so a typo fails before the run starts.
                rolp_faults::FaultPlan::parse(&v)?;
                args.fault_plan = Some(v);
            }
            "--tlab-size" => {
                let v = take("--tlab-size")?;
                args.tlab_bytes =
                    v.parse::<usize>().map_err(|_| "--tlab-size must be a byte count")?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    if args.discard >= args.secs {
        return Err("--discard must be smaller than --secs".to_string());
    }
    Ok(args)
}

fn parse_workload(v: &str) -> Result<WorkloadChoice, String> {
    use rolp_workloads::{CassandraMix, GraphAlgo};
    Ok(match v {
        "cassandra-wi" => WorkloadChoice::Cassandra(CassandraMix::WriteIntensive),
        "cassandra-rw" => WorkloadChoice::Cassandra(CassandraMix::ReadWrite),
        "cassandra-ri" => WorkloadChoice::Cassandra(CassandraMix::ReadIntensive),
        "lucene" => WorkloadChoice::Lucene,
        "graphchi-cc" => WorkloadChoice::GraphChi(GraphAlgo::ConnectedComponents),
        "graphchi-pr" => WorkloadChoice::GraphChi(GraphAlgo::PageRank),
        other => {
            if let Some(name) = other.strip_prefix("dacapo:") {
                if rolp_workloads::benchmark(name).is_none() {
                    return Err(format!("unknown DaCapo benchmark {name}"));
                }
                WorkloadChoice::Dacapo(name.to_string())
            } else {
                return Err(format!("unknown workload {other}"));
            }
        }
    })
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty() {
        let a = parse(&[]).expect("defaults");
        assert_eq!(a.collector, CollectorKind::RolpNg2c);
        assert_eq!(a.scale, 64);
    }

    #[test]
    fn full_command_line_parses() {
        let a = parse(&argv(
            "--workload graphchi-pr --collector g1 --scale 32 --secs 90 --discard 10 --report",
        ))
        .expect("parses");
        assert!(matches!(
            a.workload,
            WorkloadChoice::GraphChi(rolp_workloads::GraphAlgo::PageRank)
        ));
        assert_eq!(a.collector, CollectorKind::G1);
        assert_eq!(a.scale, 32);
        assert_eq!(a.secs, 90);
        assert_eq!(a.discard, 10);
        assert!(a.report);
    }

    #[test]
    fn concurrency_flags_parse() {
        let a = parse(&argv("--mutator-threads 8 --gc-workers 2")).expect("parses");
        assert_eq!(a.mutator_threads, 8);
        assert_eq!(a.gc_workers, Some(2));
        let d = parse(&[]).expect("defaults");
        assert_eq!(d.mutator_threads, 4);
        assert_eq!(d.gc_workers, None);
        assert!(parse(&argv("--gc-workers 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("--mutator-threads 0")).unwrap_err().contains("positive"));
    }

    #[test]
    fn removed_flags_are_unknown_options() {
        for flag in [
            "--table-shards 4",
            "--export-profile p",
            "--import-profile p",
            "--verify-determinism",
            "--no-microcache",
        ] {
            let err = parse(&argv(flag)).unwrap_err();
            assert!(err.starts_with("unknown option"), "{flag}: {err}");
        }
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&argv("--trace-out t.json --stats-json s.json")).expect("parses");
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.stats_json.as_deref(), Some("s.json"));
        assert!(parse(&argv("--trace-out")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn metrics_flags_parse() {
        let a = parse(&argv("--metrics-out m.jsonl --metrics-interval 5 --metrics-prom m.prom"))
            .expect("parses");
        assert_eq!(a.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(a.metrics_interval, 5);
        assert_eq!(a.metrics_prom.as_deref(), Some("m.prom"));
        let d = parse(&[]).expect("defaults");
        assert_eq!(d.metrics_out, None);
        assert_eq!(d.metrics_interval, 1);
        assert_eq!(d.metrics_prom, None);
        assert!(parse(&argv("--metrics-interval 0")).unwrap_err().contains("positive"));
    }

    #[test]
    fn fault_plan_flag_parses_and_validates() {
        for name in ["pressure-spike", "id-exhaustion"] {
            let a = parse(&argv(&format!("--fault-plan {name}"))).expect("canned name parses");
            assert_eq!(a.fault_plan.as_deref(), Some(name));
        }
        let a = parse(&argv("--fault-plan exhaust-ids@8;burst@16..64x1000")).expect("spec parses");
        assert!(a.fault_plan.is_some());
        for bad in ["no-such-plan", "merge-chaos", "seed=7;burst@16..64x1000", "drop-merge%3"] {
            let err = parse(&argv(&format!("--fault-plan {bad}"))).unwrap_err();
            assert!(err.contains("pressure-spike"), "{bad}: error lists canned plans: {err}");
        }
        assert_eq!(parse(&[]).unwrap().fault_plan, None);
    }

    #[test]
    fn profile_flags_parse() {
        let a = parse(&argv("--profile-out out.prof --profile-in in.prof")).expect("parses");
        assert_eq!(a.profile_out.as_deref(), Some("out.prof"));
        assert_eq!(a.profile_in.as_deref(), Some("in.prof"));
        assert!(parse(&argv("--profile-in")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn tlab_flags_parse() {
        let d = parse(&[]).expect("defaults");
        assert_eq!(d.tlab_bytes, rolp_heap::DEFAULT_TLAB_BYTES);
        let a = parse(&argv("--tlab-size 4096")).expect("parses");
        assert_eq!(a.tlab_bytes, 4096);
        let b = parse(&argv("--tlab-size 0")).expect("parses");
        assert_eq!(b.tlab_bytes, 0);
        assert!(parse(&argv("--tlab-size lots")).unwrap_err().contains("byte count"));
    }

    #[test]
    fn dacapo_names_are_validated() {
        assert!(parse(&argv("--workload dacapo:pmd")).is_ok());
        assert!(parse(&argv("--workload dacapo:nope")).is_err());
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&argv("--collector shenandoah")).unwrap_err().contains("unknown collector"));
        assert!(parse(&argv("--scale 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("--secs 10 --discard 10")).unwrap_err().contains("smaller"));
        assert!(parse(&argv("--frobnicate")).unwrap_err().contains("unknown option"));
    }
}
