//! Additional collector behaviour tests: humongous objects, ZGC headroom
//! and barrier surface, CMS fragmentation full GCs, marking censuses,
//! mixed-collection liveness gating, heap integrity after the regions
//! marking found dead are released, and an evacuation failure while a
//! survivor region is kept in place.

use std::cell::RefCell;
use std::rc::Rc;

use rolp_gc::{
    mark_liveness, CmsCollector, CmsConfig, ConcurrentCollector, GcHooks, NullHooks,
    RegionalCollector, RegionalConfig,
};
use rolp_heap::verify::{assert_heap_valid, verify_heap};
use rolp_heap::{
    ClassId, Handle, Heap, HeapConfig, ObjectHeader, ObjectRef, RegionKind, SpaceKind,
};
use rolp_vm::{
    AllocRequest, CollectorApi, CostModel, DecisionStore, DecisionTable, JitConfig, ProgramBuilder,
    VmEnv,
};

fn env(heap_bytes: u64) -> VmEnv {
    let mut heap = Heap::new(HeapConfig { region_bytes: 4096, max_heap_bytes: heap_bytes });
    heap.classes.register("t.Obj");
    VmEnv::new(heap, CostModel::default(), ProgramBuilder::new().build(), JitConfig::default(), 1)
}

fn req(ref_words: u16, data_words: u32) -> AllocRequest {
    AllocRequest {
        class: ClassId(0),
        ref_words,
        data_words,
        header: ObjectHeader::new(1),
        context: None,
        manual_gen: None,
        advised_gen: None,
    }
}

fn hooks() -> Rc<RefCell<dyn GcHooks>> {
    Rc::new(RefCell::new(NullHooks))
}

fn alloc_live(c: &mut dyn CollectorApi, env: &mut VmEnv, data: u32) -> Handle {
    let obj = c.allocate(env, req(0, data));
    env.heap.handles.create(obj)
}

#[test]
fn humongous_objects_survive_collections_in_place() {
    let mut env = env(1 << 20);
    let mut g1 = RegionalCollector::g1(hooks());

    // > half a region (4 KiB regions -> 256 words): humongous.
    let big = alloc_live(&mut g1, &mut env, 400);
    let obj0 = env.heap.handles.get(big);
    assert_eq!(env.heap.region(obj0.region()).kind, RegionKind::Humongous);
    {
        let o = env.heap.handles.get(big);
        env.heap.set_data(o, 399, 0xFEED);
    }

    for _ in 0..8_000 {
        let _ = g1.allocate(&mut env, req(0, 10));
    }
    assert!(g1.stats().young_gcs >= 2);
    let obj1 = env.heap.handles.get(big);
    assert_eq!(obj1, obj0, "humongous objects are not evacuated by young GCs");
    assert_eq!(env.heap.get_data(obj1, 399), 0xFEED);
}

#[test]
fn dead_humongous_regions_are_reclaimed_at_marking() {
    let mut env = env(1 << 20);
    let cfg = RegionalConfig { mark_trigger: 0.05, ..Default::default() };
    let mut g1 = RegionalCollector::with_config(cfg, hooks(), "G1");

    let big = alloc_live(&mut g1, &mut env, 400);
    assert_eq!(env.heap.num_of_kind(RegionKind::Humongous), 1);
    env.heap.handles.drop_handle(big);
    // Enough promoted mass to cross the marking trigger.
    let mut keepers = Vec::new();
    for i in 0..20_000 {
        if i % 10 == 0 && keepers.len() < 2_000 {
            keepers.push(alloc_live(&mut g1, &mut env, 10));
        } else {
            let _ = g1.allocate(&mut env, req(0, 10));
        }
    }
    assert!(g1.stats().markings >= 1);
    assert_eq!(
        env.heap.num_of_kind(RegionKind::Humongous),
        0,
        "dead humongous region must be eagerly reclaimed"
    );
}

#[test]
fn concurrent_collector_commits_allocation_headroom() {
    let mut env = env(1 << 20);
    let cost = env.cost.clone();
    let mut z = ConcurrentCollector::new(hooks(), &cost);

    let committed_start = env.heap.committed_bytes();
    let mut keep = Vec::new();
    for i in 0..30_000 {
        if i % 8 == 0 && keep.len() < 1_500 {
            keep.push(alloc_live(&mut z, &mut env, 10));
        } else {
            let _ = z.allocate(&mut env, req(0, 10));
        }
    }
    assert!(z.stats().cycles_run >= 2);
    // Headroom pre-commit makes the committed footprint exceed what plain
    // occupancy would produce.
    assert!(env.heap.committed_bytes() > committed_start);
    assert!(z.work_tax_permille() > 0, "barrier work tax must be modelled");
    assert_heap_valid(&env.heap, false);
}

#[test]
fn cms_fragmentation_eventually_forces_a_full_gc() {
    let mut env = env(1 << 20); // small heap: fragmentation bites fast
    let cfg = CmsConfig { initiating_occupancy: 0.30, tenuring_threshold: 1, ..Default::default() };
    let mut cms = CmsCollector::with_config(cfg, hooks());

    // Interleave long-lived and middle-lived objects so promoted regions
    // are never fully dead: CMS cannot sweep them and must eventually
    // compact. The middle-lived window exceeds the young GC interval so
    // the churn is promoted before it dies.
    let mut keep: Vec<Handle> = Vec::new();
    let mut churn: std::collections::VecDeque<Handle> = std::collections::VecDeque::new();
    for i in 0..150_000 {
        let h = alloc_live(&mut cms, &mut env, 8);
        if i % 7 == 0 && keep.len() < 900 {
            keep.push(h);
        } else {
            churn.push_back(h);
        }
        if churn.len() > 3_000 {
            let old = churn.pop_front().expect("non-empty");
            env.heap.handles.drop_handle(old);
        }
        if keep.len() >= 900 && i % 2_000 == 0 {
            // Rotate the keepers so old regions keep fragmenting.
            for h in keep.drain(..450) {
                env.heap.handles.drop_handle(h);
            }
        }
    }
    let stats = cms.stats();
    assert!(stats.full_gcs >= 1, "mixed-liveness old regions must force a compaction: {stats:?}");
    assert_heap_valid(&env.heap, false);
}

#[test]
fn marking_census_counts_contexts() {
    let mut env = env(1 << 20);
    let mut g1 = RegionalCollector::g1(hooks());
    // Three live objects with context 7, one with context 9.
    for _ in 0..3 {
        let obj = g1.allocate(
            &mut env,
            AllocRequest { header: ObjectHeader::new(1).with_allocation_context(7), ..req(0, 4) },
        );
        env.heap.handles.create(obj);
    }
    let obj = g1.allocate(
        &mut env,
        AllocRequest { header: ObjectHeader::new(1).with_allocation_context(9), ..req(0, 4) },
    );
    env.heap.handles.create(obj);

    let mark = mark_liveness(&mut env.heap);
    assert_eq!(mark.context_live.get(&7), Some(&3));
    assert_eq!(mark.context_live.get(&9), Some(&1));
}

#[test]
fn fresh_regions_are_not_mixed_candidates() {
    // Directly validate the liveness-staleness gate: a freshly assigned,
    // fully live old region must never be selected for mixed collection.
    let mut env = env(1 << 20);
    let cfg = RegionalConfig { mark_trigger: 2.0, ..Default::default() }; // never mark
    let mut ng2c = RegionalCollector::with_config(
        RegionalConfig { pretenuring: true, ..cfg },
        hooks(),
        "NG2C",
    );
    // Fill a dynamic generation (liveness never validated by a mark).
    for _ in 0..200 {
        let mut r = req(0, 16);
        r.manual_gen = Some(4);
        let obj = ng2c.allocate(&mut env, r);
        env.heap.handles.create(obj);
    }
    let copied_before = env.heap.stats().bytes_copied;
    for _ in 0..20_000 {
        let _ = ng2c.allocate(&mut env, req(0, 10));
    }
    // Without a marking pass those regions stay out of every cset, so no
    // dynamic-region bytes were ever copied.
    let dynamic_regions = env.heap.num_of_kind(RegionKind::Dynamic(4));
    assert!(dynamic_regions > 0);
    assert_eq!(ng2c.stats().markings, 0);
    let copied_young = env.heap.stats().bytes_copied - copied_before;
    // Copying happened only for young survivors (there are none held), so
    // essentially zero.
    assert_eq!(copied_young, 0, "fully live fresh regions must not be evacuated");
}

/// Lays out an unreachable old object whose only field points into a
/// wholly dead old region, next to a live object that keeps the holder's
/// own region assigned. The target sits past the dead region's first
/// object, so a recycled region's first allocation cannot pass for it.
/// Returns the holder.
fn dead_holder_into_a_dead_region(env: &mut VmEnv) -> ObjectRef {
    let old = |env: &mut VmEnv, refs: u16, data: u32| {
        env.heap.alloc_in(SpaceKind::Old, ClassId(0), refs, data, ObjectHeader::new(1)).unwrap()
    };
    let _pad = old(env, 0, 37);
    let gone = old(env, 0, 4);
    env.heap.retire_current(SpaceKind::Old);
    let live = old(env, 0, 4);
    let holder = old(env, 1, 0);
    env.heap.handles.create(live);
    env.heap.set_ref(holder, 0, gone);
    assert_ne!(holder.region(), gone.region());
    assert_heap_valid(&env.heap, false);
    holder
}

#[test]
fn heap_is_valid_after_a_cms_sweep_releases_a_region_a_dead_object_pointed_into() {
    let mut env = env(1 << 20);
    let cfg = CmsConfig { initiating_occupancy: 0.0, ..Default::default() };
    let mut cms = CmsCollector::with_config(cfg, hooks());
    let holder = dead_holder_into_a_dead_region(&mut env);
    while cms.stats().concurrent_cycles == 0 {
        let _ = cms.allocate(&mut env, req(0, 10));
    }
    assert!(cms.stats().regions_swept >= 1, "the dead old region was swept");
    assert_eq!(verify_heap(&env.heap, false), []);
    assert!(env.heap.get_ref(holder, 0).is_null(), "marking scrubbed the dead holder");
}

#[test]
fn heap_is_valid_after_a_zgc_cycle_releases_a_region_a_dead_object_pointed_into() {
    let mut env = env(1 << 20);
    let cost = env.cost.clone();
    let mut zgc = ConcurrentCollector::new(hooks(), &cost);
    let holder = dead_holder_into_a_dead_region(&mut env);
    while zgc.stats().cycles_run == 0 {
        let _ = zgc.allocate(&mut env, req(0, 10));
    }
    assert_eq!(verify_heap(&env.heap, false), []);
    assert!(env.heap.get_ref(holder, 0).is_null(), "marking scrubbed the dead holder");
}

#[test]
fn g1_marking_scrubs_a_dead_holder_of_a_reclaimed_humongous_object() {
    let mut env = env(1 << 20);
    // Marking after the first young collection; no mixed collection
    // moves the holder afterwards.
    let cfg = RegionalConfig { mark_trigger: 0.0, mixed_cycles: 0, ..Default::default() };
    let mut g1 = RegionalCollector::with_config(cfg, hooks(), "G1");
    let big = g1.allocate(&mut env, req(0, 400));
    assert_eq!(env.heap.region(big.region()).kind, RegionKind::Humongous);
    let live = env.heap.alloc_in(SpaceKind::Old, ClassId(0), 0, 4, ObjectHeader::new(1)).unwrap();
    env.heap.handles.create(live);
    let holder = env.heap.alloc_in(SpaceKind::Old, ClassId(0), 1, 0, ObjectHeader::new(1)).unwrap();
    env.heap.set_ref(holder, 0, big);
    while g1.stats().markings == 0 {
        let _ = g1.allocate(&mut env, req(0, 10));
    }
    assert_eq!(env.heap.num_of_kind(RegionKind::Humongous), 0, "the dead humongous was reclaimed");
    assert_eq!(verify_heap(&env.heap, false), []);
    assert!(env.heap.get_ref(holder, 0).is_null(), "marking scrubbed the dead holder");
}

#[test]
fn an_evacuation_failure_while_a_region_is_kept_leaves_no_object_forwarded_to_itself() {
    // 16 regions: one survivor region whose objects are all decided at
    // generation 3, and eight eden regions of live objects that the seven
    // free regions cannot hold.
    let mut env = env(16 * 4096);
    let ctx = 1 << 16;
    let rows = [(ctx, 3)].into_iter().collect();
    let table = DecisionTable::next_from(&DecisionTable::empty_with_geometry(64, 16), &rows, []);
    let mut ng2c = RegionalCollector::ng2c(hooks());
    ng2c.set_decision_store(Rc::new(DecisionStore::with_initial(table)));
    let header = ObjectHeader::new(1).with_allocation_context(ctx);
    let mut live: Vec<(Handle, u64)> = Vec::new();
    let mut chain = ObjectRef::NULL;
    for i in 0..8 {
        let obj = env.heap.alloc_in(SpaceKind::Survivor, ClassId(0), 1, 57, header).unwrap();
        env.heap.set_data(obj, 0, i);
        env.heap.set_ref(obj, 0, chain);
        chain = obj;
        live.push((env.heap.handles.create(obj), i));
    }
    assert_eq!(env.heap.num_of_kind(RegionKind::Survivor), 1);
    let mut tag = 100;
    while env.heap.num_of_kind(RegionKind::Eden) < 8 || env.heap.free_regions() > 7 {
        let obj = env.heap.alloc_in(SpaceKind::Eden, ClassId(0), 0, 58, ObjectHeader::new(1));
        let obj = obj.unwrap();
        env.heap.set_data(obj, 0, tag);
        live.push((env.heap.handles.create(obj), tag));
        tag += 1;
    }

    let _ = ng2c.allocate(&mut env, req(0, 10));
    assert_eq!(ng2c.stats().full_gcs, 1, "the evacuation failed and a full GC followed");
    assert_eq!(verify_heap(&env.heap, true), []);
    for &(h, tag) in &live {
        assert_eq!(env.heap.get_data(env.heap.handles.get(h), 0), tag);
    }
}
