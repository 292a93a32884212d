//! The four benchmark workloads, one rep of each, and the pooling of a
//! seed's runs into its end-to-end outputs.
//!
//! Load shape shared by all of them: one process, 4 guest mutator threads
//! multiplexed by the runtime on one OS thread, and 2 GC workers. The
//! worker count is fixed rather than taken from the machine, so simulated
//! outputs never depend on where the benchmark runs; it also keeps the
//! marking pool (`gc_workers` OS threads per pass) within a 2-core box.
//!
//! The seed reaches the workload generators, the runtime's JIT randomness
//! and, for the served workload, the arrival schedule and tenant picker.
//! The program only ever sees the generated inputs. A seed's end-to-end
//! metrics pool a fixed number of runs, each on a seed derived from it.

use std::cell::RefCell;
use std::hash::{DefaultHasher, Hasher};
use std::iter::Peekable;
use std::rc::Rc;
use std::time::Instant;

use rolp::{CollectorKind, RuntimeConfig};
use rolp_metrics::{PauseEvent, SimScale, SimTime};
use rolp_serve::{parse_phases, serve_with, ArrivalSchedule, ServeConfig, TenantSet};
use rolp_telemetry::{Bucket, CounterId};
use rolp_vm::{CostModel, MutatorCtx, Program, ProgramBuilder, VmEnv};
use rolp_workloads::{
    execute_hooked, execute_with, presets, CassandraMix, CassandraWorkload, LuceneWorkload,
    RunBudget, Workload,
};

use crate::stats::{largest, percentile_of_top};
use crate::trace::{TracedWorkload, Tracer};

/// Experiment scale: 1/64 of the paper's testbed (a 96 MB heap).
const SCALE: u64 = 64;
/// Parallel GC workers (modeled and host).
pub const GC_WORKERS: usize = 2;
/// Guest mutator threads.
const GUEST_THREADS: u32 = 4;
/// The latency limit `slo_attainment` is measured against.
const SLO_MS: f64 = 10.0;

/// Run length: the benchmark's own size, or about a simulated minute for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's run length.
    Full,
    /// A short run for smoke tests, still long enough for the ROLP
    /// workloads to publish decisions.
    Smoke,
}

/// A benchmark workload. Names are stable: results and later changes cite
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Cassandra write-intensive under ROLP: the paper's headline run.
    CassandraWiRolp,
    /// The same inputs under G1: the profiler-free bypass.
    CassandraWiG1,
    /// Lucene indexing under ROLP: mutator- and allocation-bound.
    LuceneRolp,
    /// Open-loop two-tenant service with a load step and a hot-tenant flip.
    ServedFlipRolp,
}

impl WorkloadId {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::CassandraWiRolp,
        WorkloadId::CassandraWiG1,
        WorkloadId::LuceneRolp,
        WorkloadId::ServedFlipRolp,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::CassandraWiRolp => "cassandra-wi.rolp",
            WorkloadId::CassandraWiG1 => "cassandra-wi.g1",
            WorkloadId::LuceneRolp => "lucene.rolp",
            WorkloadId::ServedFlipRolp => "served-flip.rolp",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the open-loop served workload.
    pub fn is_served(self) -> bool {
        self == WorkloadId::ServedFlipRolp
    }

    /// The percentiles reported as `pause_tail_ms` and `latency_tail_ms`,
    /// over the pooled runs ([`WorkloadId::runs`]).
    ///
    /// Pauses: p95 where at least ten pauses lie beyond it. A Cassandra run
    /// keeps ~220 pauses after its discard (three pooled: ~670, p95 ~33
    /// beyond), a served run ~70 in all (four pooled: ~280, ~14 beyond).
    /// Higher percentiles of the pooled Cassandra pauses spread between
    /// seeds by more than a third of the metric's bound. Lucene keeps ~140
    /// pauses, so p90 (~13 beyond).
    ///
    /// Latency: the percentile where operations that ran into a GC pause
    /// set the value, with at least ten beyond it. A served run has ~720 k
    /// requests. A Cassandra run's ~1.9 M ops cross ~220 pauses, so p99.99
    /// (~190 ops beyond per run) lies among them; one step higher the value
    /// jumps between pause clusters from seed to seed. Lucene's ~2 M ops
    /// cross ~140 pauses, so p99.99 is still pause-free service time and
    /// p99.999 (~20 beyond) is the pause tail.
    pub fn tail_percentiles(self) -> (f64, f64) {
        match self {
            WorkloadId::CassandraWiRolp | WorkloadId::CassandraWiG1 => (95.0, 99.99),
            WorkloadId::LuceneRolp => (90.0, 99.999),
            WorkloadId::ServedFlipRolp => (95.0, 99.99),
        }
    }

    /// Independent runs pooled into one seed's end-to-end metrics, each on
    /// its own [`run_seed`].
    ///
    /// A run of a ROLP workload lands in one of a few regimes, and its pause
    /// percentiles follow the regime: one served run's median pause is
    /// ~34 ms or ~45 ms depending on the seed, and one Cassandra run's p95
    /// ~57 ms or ~64 ms. Pooling the pauses and latencies of several runs
    /// averages the regimes out. Cassandra under G1 pools the same runs as
    /// under ROLP so that both see the same inputs; Lucene's percentiles
    /// already vary by under 5% between seeds.
    pub fn runs(self) -> usize {
        match self {
            WorkloadId::CassandraWiRolp | WorkloadId::CassandraWiG1 => 3,
            WorkloadId::LuceneRolp => 1,
            WorkloadId::ServedFlipRolp => 4,
        }
    }

    fn collector(self) -> CollectorKind {
        match self {
            WorkloadId::CassandraWiG1 => CollectorKind::G1,
            _ => CollectorKind::RolpNg2c,
        }
    }

    /// Simulated run length and warmup discard of a batch workload, in
    /// seconds. The discard is a quarter of the run, as in the repo's
    /// pause-distribution harness. Lucene runs shorter because it costs
    /// about twice the host time per simulated second.
    fn batch_secs(self, size: Size) -> (u64, u64) {
        match (self, size) {
            (WorkloadId::LuceneRolp, Size::Full) => (160, 40),
            (_, Size::Full) => (300, 75),
            (_, Size::Smoke) => (60, 15),
        }
    }
}

/// The seed of run `run` of the runs pooled for `seed`
/// ([`WorkloadId::runs`]). Run 0 uses `seed` itself; the others are
/// spread over the seed space by a SplitMix64 step.
pub fn run_seed(seed: u64, run: usize) -> u64 {
    if run == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated, user-visible outputs of one run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// GC pause durations in ns, ascending (batch workloads: after the
    /// warmup discard).
    pub pause_ns: Vec<u64>,
    /// Latencies recorded: corrected request latency (served) or op service
    /// time (batch).
    pub latencies: u64,
    /// The largest latencies in ns, descending: enough of them for the
    /// workload's tail percentile over all the runs pooled for a seed.
    pub latency_top: Vec<u32>,
    /// Latencies within the 10 ms SLO.
    pub within_slo: u64,
    /// Operations (batch) or requests (served) completed.
    pub ops: u64,
    /// Simulated run length in seconds.
    pub sim_s: f64,
    /// Largest committed heap plus side tables, MB.
    pub max_committed_mb: f64,
}

/// The end-to-end simulated outputs of one seed: the pauses and latencies
/// of its runs pooled.
#[derive(Debug, Clone)]
pub struct Pooled {
    /// Median GC pause.
    pub pause_p50_ms: f64,
    /// GC pause at the workload's tail percentile
    /// ([`WorkloadId::tail_percentiles`]).
    pub pause_tail_ms: f64,
    /// Pauses the percentiles are taken over.
    pub pauses: u64,
    /// Latency at the workload's tail percentile.
    pub latency_tail_ms: f64,
    /// Latencies the percentiles are taken over.
    pub latencies: u64,
    /// Latencies within the 10 ms SLO.
    pub within_slo: u64,
    /// Operations (batch) or requests (served) completed.
    pub ops: u64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Mean over the runs of each run's largest committed heap plus side
    /// tables, MB.
    pub max_committed_mb: f64,
}

impl Pooled {
    /// Pools the outputs of workload `id`'s runs for one seed.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn of(id: WorkloadId, runs: &[&SimOutput]) -> Pooled {
        let mut pause_ns: Vec<u64> = runs.iter().flat_map(|r| r.pause_ns.iter().copied()).collect();
        pause_ns.sort_unstable();
        let pause_ms = |p: f64| rolp_metrics::quantile_sorted(&pause_ns, p / 100.0) as f64 / 1e6;
        let (pause_tail, latency_tail) = id.tail_percentiles();
        let latencies = runs.iter().map(|r| r.latencies).sum();
        let mut top: Vec<u32> = runs.iter().flat_map(|r| r.latency_top.iter().copied()).collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        let latency_tail_ns = percentile_of_top(latencies, &top, latency_tail)
            .expect("`top_len` keeps each run's share of the pooled tail");
        Pooled {
            pause_p50_ms: pause_ms(50.0),
            pause_tail_ms: pause_ms(pause_tail),
            pauses: pause_ns.len() as u64,
            latency_tail_ms: latency_tail_ns as f64 / 1e6,
            latencies,
            within_slo: runs.iter().map(|r| r.within_slo).sum(),
            ops: runs.iter().map(|r| r.ops).sum(),
            sim_s: runs.iter().map(|r| r.sim_s).sum(),
            max_committed_mb: runs.iter().map(|r| r.max_committed_mb).sum::<f64>()
                / runs.len() as f64,
        }
    }

    /// A full-size seed must leave at least ten pauses and ten latencies
    /// beyond the reported tail percentiles.
    pub fn tail_check(&self, id: WorkloadId) -> Vec<String> {
        let (pause_tail, latency_tail) = id.tail_percentiles();
        [("pauses", self.pauses, pause_tail), ("latencies", self.latencies, latency_tail)]
            .into_iter()
            .filter_map(|(what, n, p)| {
                let beyond = n - rolp_metrics::rank_of(p / 100.0, n);
                (beyond < 10).then(|| format!("only {beyond} of {n} {what} beyond p{p}"))
            })
            .collect()
    }
}

/// How many of a run's `n` latencies [`SimOutput::latency_top`] keeps: the
/// count beyond the tail percentile if every run pooled for the seed had
/// twice as many latencies as this one. Runs of one workload differ in
/// their counts by a few per cent, so the pooled rank always falls within
/// the values kept.
fn top_len(id: WorkloadId, n: usize) -> usize {
    let beyond = 1.0 - id.tail_percentiles().1 / 100.0;
    n.min((2.0 * (id.runs() * n) as f64 * beyond).ceil() as usize + 1)
}

/// Per-layer numbers of the simulated clock, from the end-of-run
/// `MetricsSnapshot`, `RolpStats` and (served) `ServeOutcome`.
#[derive(Debug, Clone, Default)]
pub struct SimLayers {
    /// Simulated seconds per telemetry bucket, indexed by `Bucket::index`.
    pub bucket_s: [f64; Bucket::COUNT],
    /// TLAB refills.
    pub tlab_refills: u64,
    /// Decision micro-cache hits.
    pub microcache_hits: u64,
    /// Decision micro-cache misses.
    pub microcache_misses: u64,
    /// Published decisions at the end of the run.
    pub decisions: u64,
    /// Version of the last published decision table.
    pub decision_versions: u64,
    /// Epoch of the last change to the published decisions.
    pub epochs_to_stable: u64,
    /// Self-measured profiling overhead.
    pub profiling_overhead: f64,
    /// Served workload only: 99.9th-percentile queueing delay, ms.
    pub queue_p999_ms: f64,
    /// Served workload only: 99.9th-percentile service time, ms.
    pub service_p999_ms: f64,
    /// Served workload only: share of service time spent in GC pauses.
    pub gc_share: f64,
    /// Served workload only: most epochs any phase shift took to settle.
    pub epochs_to_reconverge: u64,
}

/// One rep: a full run of a workload from setup to report.
#[derive(Debug, Clone)]
pub struct Rep {
    /// User-visible simulated outputs.
    pub sim: SimOutput,
    /// Per-layer simulated numbers.
    pub layers: SimLayers,
    /// Hash of the simulated outputs: pause events, ops, GC cycles, the
    /// final decision-table digest and every recorded latency.
    pub fingerprint: u64,
    /// Host seconds from the start of the rep to the end of setup: input
    /// generators, `JvmRuntime::new` and the workload's `setup`.
    pub setup_s: f64,
    /// Host seconds from the end of setup to the end of the run, minus the
    /// end-of-run verification.
    pub run_s: f64,
    /// Resident memory at the end of the run, MB.
    pub rss_mb: f64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

/// Runs one rep. `verify` adds the end-of-run heap verification (outside
/// the timed run); `tracer` installs the timing decorators.
pub fn run_rep(
    id: WorkloadId,
    seed: u64,
    size: Size,
    verify: bool,
    tracer: Option<&Rc<Tracer>>,
) -> Rep {
    if id.is_served() {
        served_rep(seed, size, verify, tracer)
    } else {
        batch_rep(id, seed, size, verify, tracer)
    }
}

fn scale() -> SimScale {
    SimScale::new(SCALE)
}

fn cassandra(seed: u64, paced: bool) -> CassandraWorkload {
    let mut params = presets::cassandra(CassandraMix::WriteIntensive, scale()).params().clone();
    params.seed = seed;
    if !paced {
        params.op_pacing_ns = 0;
    }
    CassandraWorkload::new(params)
}

fn lucene(seed: u64, paced: bool) -> LuceneWorkload {
    let mut params = presets::lucene(scale()).params_mut().clone();
    params.seed = seed;
    if !paced {
        params.op_pacing_ns = 0;
    }
    LuceneWorkload::new(params)
}

fn traced(client: Client, tracer: Option<&Rc<Tracer>>, install: bool) -> Box<dyn Workload> {
    match tracer {
        Some(t) => Box::new(TracedWorkload::new(Box::new(client), t.clone(), install)),
        None => Box::new(client),
    }
}

/// Host seconds a run takes to set up (as [`Rep::setup_s`]), measured on a
/// run stopped right after its setup.
pub fn setup_s(id: WorkloadId, seed: u64) -> f64 {
    let start = Instant::now();
    let mut setup_s = 0.0;
    let on_start = |_: &rolp::JvmRuntime| setup_s = start.elapsed().as_secs_f64();
    if id.is_served() {
        let mut cfg = served_config(seed, Size::Full);
        cfg.max_requests = 0;
        serve_with(&cfg, &mut TenantSet::new(served_tenants(seed), seed), on_start);
    } else {
        let (mut workload, config, mut budget) = batch_parts(id, seed, Size::Full);
        budget.sim_time = SimTime::ZERO;
        execute_with(workload.as_mut(), config, &budget, on_start);
    }
    setup_s
}

/// A batch workload, its runtime configuration and its run budget.
fn batch_parts(
    id: WorkloadId,
    seed: u64,
    size: Size,
) -> (Box<dyn Workload>, RuntimeConfig, RunBudget) {
    let (secs, discard) = id.batch_secs(size);
    let budget = RunBudget {
        sim_time: SimTime::from_secs(secs),
        warmup_discard: SimTime::from_secs(discard),
        max_ops: u64::MAX,
    };
    let workload: Box<dyn Workload> = match id {
        WorkloadId::LuceneRolp => Box::new(lucene(seed, true)),
        _ => Box::new(cassandra(seed, true)),
    };
    let config = RuntimeConfig {
        collector: id.collector(),
        heap: presets::bigdata_heap(scale()),
        cost: CostModel::scaled(scale()),
        threads: GUEST_THREADS,
        gc_workers: Some(GC_WORKERS),
        seed,
        side_table_scale: scale().divisor(),
        ..Default::default()
    };
    (workload, config, budget)
}

/// The served workload's configuration: a load step plus a hot-tenant
/// flip, Poisson arrivals, inference every 4 GC cycles.
fn served_config(seed: u64, size: Size) -> ServeConfig {
    let phase_s = match size {
        Size::Full => 90,
        Size::Smoke => 20,
    };
    let mut cfg = ServeConfig::new(CollectorKind::RolpNg2c, scale());
    cfg.phases =
        parse_phases(&format!("{phase_s}s@2000x3/1;{phase_s}s@4000x1/3;{phase_s}s@2000x3/1"))
            .expect("the served schedule parses");
    cfg.inference_period = Some(4);
    cfg.threads = GUEST_THREADS;
    cfg.gc_workers = Some(GC_WORKERS);
    cfg.slo_ms = vec![SLO_MS];
    cfg.seed = seed;
    cfg
}

/// The two tenants of the served workload. In service mode the arrival
/// schedule paces requests, so the tenants' own think time is off (as in
/// `rolp_serve::default_tenants`).
fn served_tenants(seed: u64) -> Vec<Box<dyn Workload>> {
    vec![Box::new(cassandra(seed, false)), Box::new(lucene(seed, false))]
}

fn batch_rep(
    id: WorkloadId,
    seed: u64,
    size: Size,
    verify: bool,
    tracer: Option<&Rc<Tracer>>,
) -> Rep {
    let start = Instant::now();
    let (inner, config, budget) = batch_parts(id, seed, size);
    let log = ClientLog::new(None, budget.warmup_discard, verify);
    let mut workload = traced(Client { inner, log: log.clone() }, tracer, true);
    let mut setup_s = 0.0;
    let out = execute_hooked(
        workload.as_mut(),
        config,
        &budget,
        |_| {
            setup_s = start.elapsed().as_secs_f64();
            if let Some(t) = tracer {
                t.start_run();
            }
        },
        |rt| log.borrow_mut().end_of_run(&rt.vm.env),
    );
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.finish_run();
    }

    let mut log = log.take();
    let end = log.end.take().expect("on_end ran");
    let report = &out.report;
    let fingerprint = fingerprint(
        out.raw_pauses.events(),
        report.ops,
        report.gc_cycles,
        end.digest,
        &log.latencies,
    );
    Rep {
        sim: sim_output(
            id,
            out.pauses.events(),
            &mut log.latencies,
            report.ops,
            report.elapsed,
            report.max_committed_bytes,
        ),
        layers: sim_layers(report),
        fingerprint,
        failures: end.failures,
        setup_s,
        run_s: wall_s - setup_s - end.verify_s,
        rss_mb: end.rss_mb,
    }
}

fn served_rep(seed: u64, size: Size, verify: bool, tracer: Option<&Rc<Tracer>>) -> Rep {
    let start = Instant::now();
    let cfg = served_config(seed, size);
    // The benchmark replays the server's own arrival schedule to time each
    // request from its intended start.
    let arrivals = ArrivalSchedule::new(cfg.phases.clone(), cfg.process, cfg.seed).peekable();
    let log = ClientLog::new(Some(arrivals), SimTime::ZERO, verify);
    let tenants: Vec<Box<dyn Workload>> = served_tenants(seed)
        .into_iter()
        .enumerate()
        .map(|(i, inner)| traced(Client { inner, log: log.clone() }, tracer, i == 0))
        .collect();
    let mut tenants = TenantSet::new(tenants, seed);
    let mut setup_s = 0.0;
    let out = serve_with(&cfg, &mut tenants, |_| {
        setup_s = start.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.start_run();
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.finish_run();
    }

    let mut log = log.take();
    let end = log.end.take().expect("the last request ran");
    let report = &out.report;
    let fingerprint = fingerprint(
        out.pauses.events(),
        out.requests,
        report.gc_cycles,
        end.digest,
        &log.latencies,
    );
    let sim = sim_output(
        WorkloadId::ServedFlipRolp,
        out.pauses.events(),
        &mut log.latencies,
        out.requests,
        out.elapsed,
        report.max_committed_bytes,
    );
    let mut layers = sim_layers(report);
    let latency = &out.latency;
    let service_ns = latency.service_wall_ns() as f64;
    layers.queue_p999_ms = latency.queue().percentile(99.9) as f64 / 1e6;
    layers.service_p999_ms = latency.service().percentile(99.9) as f64 / 1e6;
    layers.gc_share = latency.decomposed().gc_ns as f64 / service_ns;
    layers.epochs_to_reconverge =
        out.reconvergence().iter().map(|c| c.epochs_to_reconverge).max().unwrap_or(0);

    let mut failures = end.failures;
    let decomposition_error = (service_ns - latency.decomposed_ns() as f64).abs() / service_ns;
    if decomposition_error > 1e-2 {
        failures
            .push(format!("latency decomposition off by {decomposition_error:.2e} (limit 1e-2)"));
    }
    let server_hits = latency.attainment()[0].1;
    if sim.latencies != out.requests || sim.within_slo != server_hits {
        failures.push(format!(
            "client saw {} requests, {} within the SLO; server {} and {server_hits}",
            sim.latencies, sim.within_slo, out.requests
        ));
    }
    Rep {
        fingerprint,
        sim,
        layers,
        setup_s,
        run_s: wall_s - setup_s - end.verify_s,
        rss_mb: end.rss_mb,
        failures,
    }
}

/// Reduces a run's outputs to what pooling needs. Reorders `latencies`.
fn sim_output(
    id: WorkloadId,
    pauses: &[PauseEvent],
    latencies: &mut [u32],
    ops: u64,
    elapsed: SimTime,
    committed: u64,
) -> SimOutput {
    let mut pause_ns: Vec<u64> = pauses.iter().map(|e| e.duration.as_nanos()).collect();
    pause_ns.sort_unstable();
    let slo_ns = (SLO_MS * 1e6) as u32;
    let within_slo = latencies.iter().filter(|&&l| l <= slo_ns).count() as u64;
    let keep = top_len(id, latencies.len());
    let mut latency_top = largest(latencies, keep).to_vec();
    latency_top.sort_unstable_by(|a, b| b.cmp(a));
    SimOutput {
        pause_ns,
        latencies: latencies.len() as u64,
        latency_top,
        within_slo,
        ops,
        sim_s: elapsed.as_nanos() as f64 / 1e9,
        max_committed_mb: committed as f64 / (1024.0 * 1024.0),
    }
}

fn sim_layers(report: &rolp::RunReport) -> SimLayers {
    let snap = &report.telemetry;
    let mut layers = SimLayers {
        tlab_refills: snap.counter(CounterId::TlabRefills),
        microcache_hits: snap.counter(CounterId::MicrocacheHits),
        microcache_misses: snap.counter(CounterId::MicrocacheMisses),
        profiling_overhead: report.profiling_overhead,
        ..Default::default()
    };
    for b in Bucket::ALL {
        layers.bucket_s[b.index()] = snap.time(b) as f64 / 1e9;
    }
    if let Some(stats) = &report.rolp {
        layers.decisions = stats.decisions as u64;
        layers.decision_versions = stats.decision_version;
        layers.epochs_to_stable = stats.last_change_epoch;
    }
    layers
}

fn fingerprint(
    pauses: &[PauseEvent],
    ops: u64,
    gc_cycles: u64,
    digest: u64,
    latencies: &[u32],
) -> u64 {
    // Fingerprints are compared within one process only, so the standard
    // hasher's fixed keys are enough.
    let mut fp = DefaultHasher::new();
    for e in pauses {
        fp.write_u64(e.at.as_nanos());
        fp.write_u64(e.duration.as_nanos());
        fp.write(e.kind.label().as_bytes());
    }
    for word in [ops, gc_cycles, digest] {
        fp.write_u64(word);
    }
    latencies.iter().for_each(|&l| fp.write_u32(l));
    fp.finish()
}

/// What the end-of-run checks saw.
#[derive(Debug)]
struct EndOfRun {
    failures: Vec<String>,
    digest: u64,
    rss_mb: f64,
    verify_s: f64,
}

/// The benchmark's client side of a run: the latency of every operation
/// and the end-of-run checks.
#[derive(Default)]
struct ClientLog {
    /// Open loop only: the arrival schedule the server replays, consumed
    /// one arrival per request.
    arrivals: Option<Peekable<ArrivalSchedule>>,
    /// Closed loop only: operations starting before this are not recorded.
    discard: SimTime,
    /// Latency per operation in simulated ns, saturating at `u32::MAX`.
    latencies: Vec<u32>,
    verify: bool,
    end: Option<EndOfRun>,
}

impl ClientLog {
    fn new(
        arrivals: Option<Peekable<ArrivalSchedule>>,
        discard: SimTime,
        verify: bool,
    ) -> Rc<RefCell<ClientLog>> {
        Rc::new(RefCell::new(ClientLog { arrivals, discard, verify, ..Default::default() }))
    }

    /// Verifies the heap (when asked), reads the final decision digest and
    /// the resident memory. The verification is timed so that it can be
    /// taken out of the run's host time.
    fn end_of_run(&mut self, env: &VmEnv) {
        let start = Instant::now();
        let mut failures = Vec::new();
        if self.verify {
            let errors = rolp_heap::verify::verify_heap(&env.heap, false);
            if let Some(first) = errors.first() {
                failures
                    .push(format!("heap verification: {} errors, first {first:?}", errors.len()));
            }
        }
        let rss_mb = resident_mb().unwrap_or_else(|| {
            failures.push("cannot read VmRSS from /proc/self/status".into());
            0.0
        });
        self.end = Some(EndOfRun {
            failures,
            digest: env.decisions.as_ref().map_or(0, |s| s.load().digest()),
            rss_mb,
            verify_s: start.elapsed().as_secs_f64(),
        });
    }
}

/// Forwards to a workload and records the simulated latency of each
/// operation:
///
/// - closed loop (batch workloads): the op's service time, think time
///   excluded, GC pauses during the op included, after the warmup discard;
/// - open loop (served): completion minus the request's *intended* start,
///   the coordinated-omission-corrected latency the server's SLO counts.
struct Client {
    inner: Box<dyn Workload>,
    log: Rc<RefCell<ClientLog>>,
}

impl Workload for Client {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn profiling_filters(&self) -> rolp::PackageFilters {
        self.inner.profiling_filters()
    }

    fn annotation_count(&self) -> usize {
        self.inner.annotation_count()
    }

    fn declare_program(&mut self, b: &mut ProgramBuilder) {
        self.inner.declare_program(b)
    }

    fn build_program(&mut self) -> Program {
        self.inner.build_program()
    }

    fn setup(&mut self, rt: &mut rolp::JvmRuntime) {
        self.inner.setup(rt)
    }

    fn tick(&mut self, ctx: &mut MutatorCtx<'_>) -> u64 {
        let start = ctx.env().clock.now();
        let idle = ctx.env().telemetry.cells().time(Bucket::Idle);
        let done = self.inner.tick(ctx);
        let end = ctx.env().clock.now();
        let log = &mut *self.log.borrow_mut();
        let latency_ns = match log.arrivals.as_mut() {
            Some(arrivals) => {
                let intended = arrivals.next().expect("one arrival per request").intended;
                if arrivals.peek().is_none() {
                    log.end_of_run(ctx.env());
                }
                end.saturating_sub(intended).as_nanos()
            }
            None if start >= log.discard => {
                let think = ctx.env().telemetry.cells().time(Bucket::Idle) - idle;
                end.saturating_sub(start).as_nanos() - think
            }
            None => return done,
        };
        log.latencies.push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
        done
    }

    fn set_annotations(&mut self, on: bool) {
        self.inner.set_annotations(on)
    }
}

/// Resident set size of this process, MB (Linux `/proc/self/status`).
fn resident_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
