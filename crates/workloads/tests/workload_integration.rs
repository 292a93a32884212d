//! Cross-workload integration tests: determinism, annotation plumbing,
//! filter plumbing, and demography sanity for all three platforms and the
//! DaCapo suite.

use std::sync::OnceLock;

use rolp::runtime::{CollectorKind, RuntimeConfig};
use rolp_heap::{HeapConfig, RegionKind};
use rolp_metrics::{SimScale, SimTime};
use rolp_vm::CostModel;
use rolp_workloads::{
    all_benchmarks, execute, execute_hooked, presets, CassandraMix, CassandraParams,
    CassandraWorkload, DacapoBench, GraphAlgo, GraphChiParams, GraphChiWorkload, LuceneParams,
    LuceneWorkload, RunBudget, Workload,
};

fn heap() -> HeapConfig {
    HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 24 << 20 }
}

fn config(kind: CollectorKind) -> RuntimeConfig {
    RuntimeConfig { collector: kind, heap: heap(), ..Default::default() }
}

fn cassandra() -> CassandraWorkload {
    CassandraWorkload::new(CassandraParams {
        mix: CassandraMix::ReadWrite,
        memtable_flush_entries: 1_500,
        key_space: 10_000,
        row_cache_entries: 800,
        op_pacing_ns: 1_000,
        ..Default::default()
    })
}

fn lucene() -> LuceneWorkload {
    LuceneWorkload::new(LuceneParams {
        segment_flush_docs: 400,
        vocabulary: 3_000,
        op_pacing_ns: 1_000,
        ..Default::default()
    })
}

fn graphchi(algo: GraphAlgo) -> GraphChiWorkload {
    GraphChiWorkload::new(GraphChiParams {
        algo,
        vertices: 8_000,
        edges: 100_000,
        shards: 8,
        chunk: 1_024,
        io_ns_per_edge: 50,
        ..Default::default()
    })
}

#[test]
fn all_workloads_are_deterministic() {
    let fingerprint = |mk: &dyn Fn() -> Box<dyn Workload>, ops: u64| {
        let mut w = mk();
        let out = execute(w.as_mut(), config(CollectorKind::RolpNg2c), &RunBudget::smoke(ops));
        (out.report.elapsed.as_nanos(), out.report.gc_cycles, out.report.max_used_bytes)
    };
    #[allow(clippy::type_complexity)] // a literal case table reads best flat
    let cases: Vec<(Box<dyn Fn() -> Box<dyn Workload>>, u64)> = vec![
        (Box::new(|| Box::new(cassandra()) as Box<dyn Workload>), 10_000),
        (Box::new(|| Box::new(lucene()) as Box<dyn Workload>), 10_000),
        (Box::new(|| Box::new(graphchi(GraphAlgo::ConnectedComponents)) as Box<dyn Workload>), 60),
    ];
    for (mk, ops) in &cases {
        assert_eq!(fingerprint(mk, *ops), fingerprint(mk, *ops), "nondeterministic workload");
    }
}

#[test]
fn ng2c_runs_populate_dynamic_generations_from_annotations() {
    for mk in [
        || Box::new(cassandra()) as Box<dyn Workload>,
        || Box::new(lucene()) as Box<dyn Workload>,
        || Box::new(graphchi(GraphAlgo::PageRank)) as Box<dyn Workload>,
    ] {
        let mut w = mk();
        let name = w.name();
        assert!(w.annotation_count() > 0, "{name}: annotations declared");
        // Drive through the runtime and check dynamic generations fill.
        let program = w.build_program();
        let mut rt = rolp::runtime::JvmRuntime::new(config(CollectorKind::Ng2c), program);
        w.set_annotations(true);
        w.setup(&mut rt);
        for _ in 0..2_000 {
            let mut ctx = rt.ctx(rolp_vm::ThreadId(0));
            w.tick(&mut ctx);
        }
        let dynamic: usize =
            (1u8..=14).map(|g| rt.vm.env.heap.num_of_kind(RegionKind::Dynamic(g))).sum();
        assert!(dynamic > 0, "{name}: annotations must route objects to dynamic generations");
    }
}

#[test]
fn paper_filters_restrict_profiling_to_data_packages() {
    let mut w = cassandra();
    let filters = w.profiling_filters();
    assert!(filters.matches("cassandra.db"));
    assert!(filters.matches("cassandra.utils"));
    assert!(!filters.matches("cassandra.net"), "transport code is outside the filter");

    let out = execute(&mut w, config(CollectorKind::RolpNg2c), &RunBudget::smoke(20_000));
    let rolp = out.report.rolp.expect("rolp stats");
    assert!(
        rolp.unprofiled_allocations > 0,
        "request/parse allocations must be filtered out: {rolp:?}"
    );
    assert!(rolp.profiled_allocations > 0);
}

#[test]
fn cassandra_mixes_shift_the_flush_rate() {
    let flushes = |mix| {
        let mut w = CassandraWorkload::new(CassandraParams {
            mix,
            memtable_flush_entries: 1_500,
            key_space: 10_000,
            row_cache_entries: 800,
            op_pacing_ns: 1_000,
            ..Default::default()
        });
        let _ = execute(&mut w, config(CollectorKind::G1), &RunBudget::smoke(20_000));
        w.flushes
    };
    let wi = flushes(CassandraMix::WriteIntensive);
    let ri = flushes(CassandraMix::ReadIntensive);
    assert!(wi > ri, "more writes -> more memtable epochs ({wi} vs {ri})");
}

#[test]
fn lucene_merges_segments_and_grows_a_dictionary() {
    let mut w = lucene();
    let _ = execute(&mut w, config(CollectorKind::G1), &RunBudget::smoke(30_000));
    assert!(w.flushes >= 10);
    assert!(w.merges >= 1, "segment merges expected after many flushes");
}

#[test]
fn graphchi_passes_cover_every_shard() {
    let mut w = graphchi(GraphAlgo::ConnectedComponents);
    let _ = execute(&mut w, config(CollectorKind::G1), &RunBudget::smoke(24));
    assert_eq!(w.intervals, 24);
    assert_eq!(w.iterations, 3, "24 intervals over 8 shards = 3 full passes");
}

#[test]
fn dacapo_suite_runs_under_every_collector() {
    // One representative benchmark per behaviour class, each under all
    // five collectors (smoke level).
    for name in ["avrora", "sunflow", "pmd"] {
        let spec = rolp_workloads::benchmark(name).expect("exists");
        for kind in CollectorKind::all() {
            let mut bench =
                DacapoBench::new(rolp_workloads::DacapoSpec { ops: 400, ..spec.clone() }, 9);
            let cfg = RuntimeConfig {
                collector: kind,
                heap: spec.heap_config(rolp_metrics::SimScale::new(64)),
                ..Default::default()
            };
            let out = execute(&mut bench, cfg, &RunBudget::smoke(400));
            assert_eq!(out.report.ops, 400, "{name} under {kind:?}");
        }
    }
}

#[test]
fn dacapo_specs_are_distinct_profiles() {
    let specs = all_benchmarks();
    // The suite must not be 13 copies of one profile: the call/alloc mixes
    // that drive Fig. 6 differ.
    let mut mixes: Vec<(u64, u64)> =
        specs.iter().map(|s| (s.calls_per_op, s.allocs_per_op)).collect();
    mixes.sort_unstable();
    mixes.dedup();
    assert!(mixes.len() >= 8, "benchmarks should differ in their mixes");
    // sunflow is the allocation-heavy outlier; fop/jython the call-heavy.
    let sunflow = specs.iter().find(|s| s.name == "sunflow").expect("sunflow");
    assert!(sunflow.allocs_per_op > sunflow.calls_per_op);
    let fop = specs.iter().find(|s| s.name == "fop").expect("fop");
    assert!(fop.calls_per_op > 2 * fop.allocs_per_op);
}

/// Heap state at the end of a seeded write-intensive Cassandra run under
/// G1, measured once and shared by the tests below.
struct G1End {
    /// `Heap::backing_bytes()` and `Heap::used_bytes()`.
    backing: u64,
    used: u64,
    /// Stored remembered-set slots whose holder region is free or was
    /// reassigned, and the slots the sets dropped for that reason.
    stale: usize,
    dropped: u64,
    /// `Heap::backing_bytes()` after releasing every region.
    released: u64,
}

fn seeded_g1_end() -> &'static G1End {
    static END: OnceLock<G1End> = OnceLock::new();
    END.get_or_init(|| {
        let scale = SimScale::new(64);
        let mut workload = presets::cassandra(CassandraMix::WriteIntensive, scale);
        workload.params_mut().seed = 1;
        let config = RuntimeConfig {
            collector: CollectorKind::G1,
            heap: presets::bigdata_heap(scale),
            cost: CostModel::scaled(scale),
            threads: 4,
            gc_workers: Some(2),
            seed: 1,
            side_table_scale: scale.divisor(),
            ..Default::default()
        };
        let budget = RunBudget {
            sim_time: SimTime::from_secs(30),
            warmup_discard: SimTime::ZERO,
            max_ops: u64::MAX,
        };
        let mut end = None;
        execute_hooked(
            &mut workload,
            config,
            &budget,
            |_| {},
            |rt| {
                let heap = &mut rt.vm.env.heap;
                let (backing, used) = (heap.backing_bytes(), heap.used_bytes());
                let stale = heap
                    .regions()
                    .flat_map(|(_, r)| r.rset.iter())
                    .filter(|s| !heap.region(s.region).holds_epoch(s.epoch))
                    .count();
                let dropped = heap.regions().map(|(_, r)| r.rset.dropped()).sum();
                let assigned: Vec<_> = heap
                    .regions()
                    .filter(|(_, r)| r.kind != RegionKind::Free)
                    .map(|(id, _)| id)
                    .collect();
                for id in assigned {
                    heap.release_region(id);
                }
                let released = heap.backing_bytes();
                end = Some(G1End { backing, used, stale, dropped, released });
            },
        );
        end.expect("on_end ran")
    })
}

/// Host memory for region words follows the words written, not the
/// committed heap. Cassandra's payloads and parse buffers are never
/// written, so at the end of a seeded write-intensive run under G1 the
/// pages (and page maps) hold a fraction of the used bytes; releasing every
/// region frees them all.
#[test]
fn region_backing_tracks_written_words() {
    let G1End { backing, used, released, .. } = *seeded_g1_end();
    assert!(used > 8 << 20, "the run filled the heap: {used} bytes used");
    // Measured: 21% at 30, 60 and 120 simulated seconds (33% with 8-word
    // pages). Storing every payload word would need more than 100%.
    assert!(
        backing * 100 <= used * 25,
        "pages hold {backing} bytes for {used} used bytes (limit 25%)"
    );
    assert_eq!(released, 0, "released regions hold no pages");
}

/// Every collection that releases regions drops the remembered-set slots
/// those regions held, so the run ends with none stored.
#[test]
fn seeded_g1_run_ends_with_no_stale_remset_slots() {
    let end = seeded_g1_end();
    assert_eq!(end.stale, 0, "stale slots stored at the end of the run");
    assert!(end.dropped > 0, "the run released holders of recorded slots");
}
