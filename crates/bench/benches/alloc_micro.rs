//! Allocation fast-path micro gate: `ns/alloc` and `ns/decision-lookup`.
//!
//! Two paired measurements, each fast path against its pre-TLAB
//! reference on the same machine in the same process:
//!
//! - **ns/alloc** — the full mutator allocation path through the
//!   runtime. Fast: TLAB bump + decision micro-cache (the defaults).
//!   Reference: shared-frontier allocation and a `DecisionStore` table
//!   load per allocation (`--tlab-size 0 --no-microcache` semantics).
//!   Both sides record age 0 with one OLD-table increment per
//!   allocation.
//! - **ns/decision-lookup** — the decision consult alone. Fast: a
//!   `DecisionCache` hit (validate against the store version, decode the
//!   cached slot byte). Reference: the uncached path (table load +
//!   bounds-checked slot resolve) on every lookup.
//!
//! The two sides of a row run interleaved (fast, reference, fast, …) on
//! two live setups. Absolute ns/op is machine-dependent, so the committed
//! gate value is the *within-run* `speedup_vs_reference`, the median of
//! the per-pair reference/fast ratios: `scripts/bench_gate.py`
//! fails the build when the fast path stops beating the reference path
//! it replaced (floor 1.0, `--min-speedup`). The ns columns are recorded
//! in `BENCH_baseline.json` for trend reading, not gated.
//!
//! CI hooks: `ROLP_BENCH_JSON=<file>` writes the rows; the `alloc-micro`
//! job gates them with `scripts/bench_gate.py --partial`, and the
//! `bench-smoke` job gates them alongside the fig8/9 rows.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp_bench::{banner, TextTable};
use rolp_heap::{ClassId, HeapConfig};
use rolp_vm::{
    AllocSiteId, CallSiteId, DecisionCache, DecisionStore, DecisionTable, ProgramBuilder, ThreadId,
};

/// Timed (fast, reference) pairs per measurement, after one untimed
/// warmup pair. The two sides alternate rep by rep, so a noisy stretch
/// of a shared host lands on both sides of a pair rather than on one
/// side of the whole row; the row reports per-side medians and the
/// median of the per-pair ratios.
const PAIRS: usize = 11;

/// End-to-end mutator allocations per repetition.
const ALLOCS_PER_REP: u64 = 200_000;

/// Decision lookups per repetition.
const LOOKUPS_PER_REP: u64 = 2_000_000;

/// A runtime set up for the ns/alloc row. Fast: TLAB bump + decision
/// micro-cache (the defaults); reference: the pre-TLAB path.
struct AllocPath {
    rt: JvmRuntime,
    class: ClassId,
    call: CallSiteId,
    site: AllocSiteId,
}

impl AllocPath {
    fn new(fast: bool) -> Self {
        let mut b = ProgramBuilder::new();
        let main = b.method("app.Main::run", 100, false);
        let worker = b.method("app.Worker::step", 80, false);
        let call = b.call_site(main, worker);
        let site = b.alloc_site(worker, 1);
        let program = b.build();

        let mut config = RuntimeConfig {
            collector: CollectorKind::RolpNg2c,
            // Large regions and a roomy heap: collections still happen
            // (every object is released immediately, so they are cheap
            // and identical on both sides) without dominating the
            // per-alloc cost.
            heap: HeapConfig { region_bytes: 1 << 20, max_heap_bytes: 128 << 20 },
            seed: 7,
            ..Default::default()
        };
        if !fast {
            // The pre-TLAB reference path.
            config.tlab_bytes = 0;
            config.microcache = false;
        }
        let mut rt = JvmRuntime::new(config, program);
        let class = rt.vm.env.heap.classes.register("bench.Item");
        AllocPath { rt, class, call, site }
    }

    /// One timed repetition: ns per allocation through the full runtime
    /// path.
    fn rep(&mut self) -> f64 {
        let (class, site) = (self.class, self.site);
        let start = Instant::now();
        let mut ctx = self.rt.ctx(ThreadId(0));
        ctx.call(self.call, |ctx| {
            for _ in 0..ALLOCS_PER_REP {
                let h = ctx.alloc(site, class, 1, 6);
                ctx.release(h);
            }
            ctx.complete_ops(ALLOCS_PER_REP);
        });
        start.elapsed().as_nanos() as f64 / ALLOCS_PER_REP as f64
    }
}

/// One timed repetition of the ns/decision-lookup row: micro-cache hit
/// (`cache` given) vs uncached store consult.
///
/// The contexts resolve through conflict-*expanded* sites (paper
/// §3.2.3): the uncached path pays the expanded-block walk on every
/// lookup, which is exactly what the cache's stored slot byte skips. For
/// unexpanded sites both paths are a single array index and the cache is
/// cost-neutral, so the expanded case is the one worth gating.
fn lookup_rep(store: &DecisionStore, mut cache: Option<&mut DecisionCache>) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..LOOKUPS_PER_REP {
        let context = (((i % 64) as u32) + 1) << 16;
        let tick = i as u32;
        let advice = match cache.as_deref_mut() {
            Some(cache) => cache.advise_for_alloc(store, context, tick),
            None => store.load().advise_for_alloc(context, tick),
        };
        acc = acc.wrapping_add(advice.unwrap_or(0) as u64);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / LOOKUPS_PER_REP as f64
}

/// 64 published contexts, one per cache slot (`slot_of` maps `site <<
/// 16` to `site & 63`), so the fast side measures the steady-state hit
/// path after a one-miss-per-slot warmup.
fn lookup_store() -> DecisionStore {
    let store = DecisionStore::with_initial(DecisionTable::empty_with_geometry(256, 64));
    let rows: BTreeMap<u32, u8> = (1..=64u32).map(|s| (s << 16, (s % 9) as u8 + 1)).collect();
    let table = DecisionTable::next_from(&store.load(), &rows, 1..=64u16);
    store.publish(table);
    store
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Runs one warmup pair and [`PAIRS`] timed pairs, alternating `fast`
/// and `reference` reps (each returns ns/op).
fn paired(
    collector: &'static str,
    ops: u64,
    mut fast: impl FnMut() -> f64,
    mut reference: impl FnMut() -> f64,
) -> MicroRow {
    fast();
    reference();
    let (mut f, mut r, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (a, b) = (fast(), reference());
        f.push(a);
        r.push(b);
        ratio.push(if a > 0.0 { b / a } else { f64::INFINITY });
    }
    MicroRow {
        collector,
        ns_per_op: median(f),
        ns_per_op_reference: median(r),
        speedup: median(ratio),
        ops,
    }
}

struct MicroRow {
    collector: &'static str,
    ns_per_op: f64,
    ns_per_op_reference: f64,
    /// Median of the per-pair reference/fast ratios.
    speedup: f64,
    ops: u64,
}

fn render_json(scale_divisor: u64, rows: &[MicroRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scale\": {scale_divisor},\n  \"results\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"Alloc micro\", \"collector\": \"{}\", \
             \"ns_per_op\": {:.2}, \"ns_per_op_reference\": {:.2}, \
             \"speedup_vs_reference\": {:.3}, \"ops\": {}",
            r.collector, r.ns_per_op, r.ns_per_op_reference, r.speedup, r.ops
        ));
        s.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let scale = rolp_bench::scale();
    let json_out = std::env::var("ROLP_BENCH_JSON").ok();
    banner("Allocation fast-path micro gate (ns/alloc, ns/decision-lookup)", scale);

    let (mut alloc_fast, mut alloc_ref) = (AllocPath::new(true), AllocPath::new(false));
    let store = lookup_store();
    let mut cache = DecisionCache::new();
    let rows = vec![
        paired("ns/alloc", ALLOCS_PER_REP, || alloc_fast.rep(), || alloc_ref.rep()),
        paired(
            "ns/decision-lookup",
            LOOKUPS_PER_REP,
            || lookup_rep(&store, Some(&mut cache)),
            || lookup_rep(&store, None),
        ),
    ];

    let mut table = TextTable::new(vec![
        "path".to_string(),
        "fast ns/op".to_string(),
        "reference ns/op".to_string(),
        "speedup".to_string(),
    ]);
    for r in &rows {
        table.row(vec![
            r.collector.to_string(),
            format!("{:.2}", r.ns_per_op),
            format!("{:.2}", r.ns_per_op_reference),
            format!("{:.2}x", r.speedup),
        ]);
    }
    println!("{}", table.render());
    for r in &rows {
        assert!(
            r.speedup >= 1.0,
            "{}: fast path ({:.2} ns/op) must not lose to the reference \
             path ({:.2} ns/op) it replaced",
            r.collector,
            r.ns_per_op,
            r.ns_per_op_reference
        );
    }

    if let Some(path) = json_out {
        let rendered = render_json(scale.divisor(), &rows);
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("stats: {} row(s) written to {path} (ROLP_BENCH_JSON)", rows.len());
    }
}
