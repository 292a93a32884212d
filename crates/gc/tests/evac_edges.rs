//! Evacuation edge cases: empty collection sets, all-dead regions,
//! self-referential objects, deep chains across regions, and pause
//! accounting.

use rolp_gc::{evacuate, rebuild_remsets, EvacStats, NullHooks};
use rolp_heap::verify::assert_heap_valid;
use rolp_heap::{ClassId, Heap, HeapConfig, ObjectHeader, ObjectRef, RegionKind, SpaceKind};
use rolp_metrics::PauseKind;
use rolp_vm::{CostModel, JitConfig, ProgramBuilder, VmEnv};

fn env() -> VmEnv {
    let mut heap = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 64 * 1024 });
    heap.classes.register("t.Obj");
    VmEnv::new(heap, CostModel::default(), ProgramBuilder::new().build(), JitConfig::default(), 1)
}

fn alloc(env: &mut VmEnv, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
    let hash = env.heap.next_identity_hash();
    env.heap.alloc_in(space, ClassId(0), refs, data, ObjectHeader::new(hash)).expect("fits")
}

fn young_dest(from: RegionKind, _age: u8, _size: u32, _ctx: Option<u32>) -> SpaceKind {
    match from {
        RegionKind::Eden | RegionKind::Survivor => SpaceKind::Survivor,
        RegionKind::Dynamic(g) => SpaceKind::Dynamic(g),
        _ => SpaceKind::Old,
    }
}

#[test]
fn empty_cset_records_only_the_fixed_pause() {
    let mut env = env();
    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &[], &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);
    let EvacStats { bytes_copied, survivors, regions_released, .. } = outcome.stats;
    assert_eq!((bytes_copied, survivors, regions_released), (0, 0, 0));
    assert_eq!(env.pauses.count(), 1);
    // Pause = safepoint + root scan only (no roots -> just the safepoint).
    assert!(outcome.pause.as_nanos() >= env.cost.safepoint_ns);
}

#[test]
fn all_dead_regions_are_released_for_free() {
    let mut env = env();
    // Fill two eden regions with garbage (no handles).
    for _ in 0..12 {
        let _ = alloc(&mut env, SpaceKind::Eden, 0, 16);
    }
    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    assert!(cset.len() >= 2);
    let free_before = env.heap.free_regions();

    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);
    assert_eq!(outcome.stats.bytes_copied, 0, "nothing live, nothing copied");
    assert_eq!(outcome.stats.regions_fully_dead, cset.len() as u64);
    assert_eq!(env.heap.free_regions(), free_before + cset.len());
}

#[test]
fn self_referential_objects_survive() {
    let mut env = env();
    let obj = alloc(&mut env, SpaceKind::Eden, 1, 2);
    env.heap.set_ref(obj, 0, obj); // self-loop
    env.heap.set_data(obj, 1, 0x5E1F);
    let h = env.heap.handles.create(obj);

    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);
    let moved = env.heap.handles.get(h);
    assert_ne!(moved, obj);
    assert_eq!(env.heap.get_ref(moved, 0), moved, "self-loop re-targeted to the copy");
    assert_eq!(env.heap.get_data(moved, 1), 0x5E1F);
    assert_heap_valid(&env.heap, false);
}

#[test]
fn deep_chains_across_regions_survive_with_remsets_intact() {
    let mut env = env();
    // A chain alternating young/old so every link crosses a region.
    let mut prev = alloc(&mut env, SpaceKind::Old, 1, 1);
    let head = env.heap.handles.create(prev);
    for i in 0..60 {
        let space = if i % 2 == 0 { SpaceKind::Eden } else { SpaceKind::Old };
        let next = alloc(&mut env, space, 1, 1);
        env.heap.set_data(next, 0, i);
        env.heap.set_ref(prev, 0, next);
        prev = next;
    }

    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);

    // Walk the chain: every young link moved, every old link stayed, all
    // data intact.
    let mut cur = env.heap.handles.get(head);
    let mut seen = 0;
    loop {
        let next = env.heap.get_ref(cur, 0);
        if next.is_null() {
            break;
        }
        assert_eq!(env.heap.get_data(next, 0), seen);
        seen += 1;
        cur = next;
    }
    assert_eq!(seen, 60);
    rebuild_remsets(&mut env.heap);
    assert_heap_valid(&env.heap, true);
}

#[test]
fn survivor_pause_grows_with_copied_bytes() {
    let sizes = [4u32, 40]; // both below the humongous threshold (half of a 128-word region)
    let mut pauses = Vec::new();
    for &words in &sizes {
        let mut env = env();
        // Slow copy bandwidth so the copy term dominates the fixed costs.
        env.cost.copy_bandwidth_bytes_per_sec = 1_000_000;
        let mut handles = Vec::new();
        for _ in 0..6 {
            let o = alloc(&mut env, SpaceKind::Eden, 0, words);
            handles.push(env.heap.handles.create(o));
        }
        let cset = env.heap.regions_of_kind(RegionKind::Eden);
        let mut hooks = NullHooks;
        let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
        assert_eq!(outcome.stats.survivors, 6);
        pauses.push(outcome.pause.as_nanos());
    }
    assert!(pauses[1] > pauses[0], "10x larger objects must cost more: {pauses:?}");
}

/// Slots whose holder region was released are dropped from the target's
/// remembered set but still counted: collecting the target charges the
/// stored slots plus the dropped ones, the count of a set that kept them.
#[test]
fn collecting_a_target_charges_its_dropped_slots() {
    let mut env = env();
    let target = alloc(&mut env, SpaceKind::Old, 0, 0);
    let holder = alloc(&mut env, SpaceKind::Dynamic(3), 1, 0);
    env.heap.handles.create(target);
    env.heap.handles.create(holder);
    env.heap.set_ref(holder, 0, target);
    // Dead eden objects that once pointed at the target.
    for _ in 0..40 {
        let e = alloc(&mut env, SpaceKind::Eden, 1, 0);
        env.heap.set_ref(e, 0, target);
    }
    let t = target.region();
    assert_eq!(env.heap.region(t).rset.len(), 41);

    let eden = env.heap.regions_of_kind(RegionKind::Eden);
    let mut hooks = NullHooks;
    evacuate(&mut env, &eden, &mut young_dest, &mut hooks, PauseKind::Young);
    let rset = &env.heap.region(t).rset;
    assert_eq!((rset.len(), rset.dropped()), (1, 40), "the released holders' slots are dropped");
    assert_heap_valid(&env.heap, true);

    let mut to_old = |_: RegionKind, _: u8, _: u32, _: Option<u32>| SpaceKind::Old;
    let outcome = evacuate(&mut env, &[t], &mut to_old, &mut hooks, PauseKind::Mixed);
    assert!(!outcome.failed);
    assert_eq!(outcome.stats.remset_slots, 1 + 40, "stored plus dropped slots");
    assert_eq!(outcome.stats.survivors, 1);
    assert_heap_valid(&env.heap, true);
}
