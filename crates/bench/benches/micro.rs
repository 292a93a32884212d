//! Criterion micro-benchmarks for the hot paths of the reproduction.
//!
//! These are the operations whose cost the paper reasons about at the
//! instruction level (§3.2.4): the header encode/install, the OLD-table
//! increment on the allocation path, the thread-stack-state add/sub, the
//! heap allocation fast path, and the survivor-processing table update.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rolp::{OldTable, WorkerTable};
use rolp_heap::{Heap, HeapConfig, ObjectHeader, SpaceKind};
use rolp_metrics::Histogram;
use rolp_vm::thread::{MutatorThread, ThreadId};
use rolp_vm::CallSiteId;
use rolp_workloads::Zipfian;

fn bench_header(c: &mut Criterion) {
    c.bench_function("header_install_context", |b| {
        let h = ObjectHeader::new(0xABCDEF);
        let mut ctx = 0u32;
        b.iter(|| {
            ctx = ctx.wrapping_add(1);
            black_box(h.with_allocation_context(ctx).allocation_context())
        });
    });
    c.bench_function("header_age_increment", |b| {
        let h = ObjectHeader::new(1).with_allocation_context(0xDEAD_BEEF);
        b.iter(|| black_box(h.with_incremented_age().age()));
    });
}

fn bench_old_table(c: &mut Criterion) {
    c.bench_function("old_table_record_allocation", |b| {
        let mut t = OldTable::new();
        let mut ctx = 1u32 << 16;
        b.iter(|| {
            ctx = ctx.wrapping_add(1) | (1 << 16);
            t.record_allocation(black_box(ctx));
        });
    });
    c.bench_function("old_table_survivor_update", |b| {
        let mut t = OldTable::new();
        t.record_allocation(5 << 16);
        b.iter(|| t.record_survival(black_box(5 << 16), black_box(3)));
    });
    c.bench_function("worker_table_record_and_merge_1k", |b| {
        let mut t = OldTable::new();
        b.iter(|| {
            let mut w = WorkerTable::new();
            for i in 0..1_000u32 {
                w.record_survival((1 + (i & 7)) << 16, (i % 15) as u8);
            }
            t.merge_survivals(&mut w);
        });
    });
}

fn bench_stack_state(c: &mut Criterion) {
    c.bench_function("tss_push_pop", |b| {
        let mut t = MutatorThread::new(ThreadId(0));
        b.iter(|| {
            t.push_frame(CallSiteId(1), black_box(0x1234));
            t.pop_frame(black_box(0x1234));
        });
    });
}

fn bench_alloc_path(c: &mut Criterion) {
    c.bench_function("heap_alloc_small_object", |b| {
        let mut heap = Heap::new(HeapConfig { region_bytes: 1 << 20, max_heap_bytes: 1 << 30 });
        let class = heap.classes.register("bench.Obj");
        let header = ObjectHeader::new(1);
        b.iter(|| {
            if heap.free_regions() < 4 {
                // Recycle: release everything eden and start over.
                for id in heap.regions_of_kind(rolp_heap::RegionKind::Eden) {
                    heap.release_region(id);
                }
            }
            black_box(heap.alloc_in(SpaceKind::Eden, class, 0, 6, header).unwrap())
        });
    });
}

fn bench_metrics(c: &mut Criterion) {
    c.bench_function("histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 40));
        });
    });
    c.bench_function("zipfian_sample", |b| {
        let z = Zipfian::ycsb(1_000_000);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

criterion_group!(
    benches,
    bench_header,
    bench_old_table,
    bench_stack_state,
    bench_alloc_path,
    bench_metrics
);
criterion_main!(benches);
