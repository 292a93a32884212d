//! End-to-end test of the POLM2-style offline warm start: export decisions
//! from one run, import them into a fresh run, and verify the warmup
//! disappears (the Fig. 10 learning phase is skipped).

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp::DecisionProfile;
use rolp_heap::{HeapConfig, RegionKind};
use rolp_metrics::{SimScale, SimTime};
use rolp_vm::{CostModel, ProgramBuilder, ThreadId};
use rolp_workloads::{presets, CassandraMix, RunBudget};

/// A program with one hot method allocating middle-lived objects.
fn program() -> (rolp_vm::Program, rolp_vm::CallSiteId, rolp_vm::AllocSiteId) {
    let mut b = ProgramBuilder::new();
    let main = b.method("app.Main::run", 60, false);
    let hot = b.method("app.store.Buffer::fill", 120, false);
    let cs = b.call_site(main, hot);
    let site = b.alloc_site(hot, 5);
    (b.build(), cs, site)
}

fn run(
    profile: Option<DecisionProfile>,
    ops: u64,
) -> (JvmRuntime, rolp_vm::CallSiteId, rolp_vm::AllocSiteId) {
    let (program, cs, site) = program();
    let mut config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 12 << 20 },
        ..Default::default()
    };
    config.rolp.offline_profile = profile;
    let mut rt = JvmRuntime::new(config, program);
    let class = rt.vm.env.heap.classes.register("app.store.Chunk");

    // Middle-lived ring: objects live ~20k ops.
    let mut ring = std::collections::VecDeque::new();
    for _ in 0..ops {
        let mut ctx = rt.ctx(ThreadId(0));
        let h = ctx.call(cs, |ctx| {
            ctx.work(20);
            ctx.alloc(site, class, 0, 24)
        });
        ring.push_back(h);
        if ring.len() > 10_000 {
            let old = ring.pop_front().expect("non-empty");
            rt.ctx(ThreadId(0)).release(old);
        }
    }
    (rt, cs, site)
}

#[test]
fn exported_profile_warm_starts_a_fresh_run() {
    // Run 1: learn online, then export.
    let (mut rt1, _, _) = run(None, 600_000);
    let report1 = rt1.report();
    let rolp1 = report1.rolp.expect("rolp stats");
    assert!(rolp1.decisions > 0, "first run must learn something");
    let profile = {
        let p = rt1.profiler.as_ref().expect("rolp").borrow();
        DecisionProfile::from_profiler(&p, &rt1.vm.env.program, &rt1.vm.env.jit)
    };
    assert!(!profile.is_empty(), "exported profile has entries");
    assert!(profile.to_string().contains("app.store.Buffer::fill@5"));

    // The profile round-trips through its text form (what a file would
    // hold).
    let text = profile.to_string();
    let parsed: DecisionProfile = text.parse().expect("parses");
    assert_eq!(parsed, profile);

    // Run 2: import; pretenuring must begin as soon as the hot method
    // compiles — long before any inference pass could have run.
    let (rt2, _, _) = run(Some(parsed), 3_000);
    let used_dynamic: usize =
        (1u8..=14).map(|g| rt2.vm.env.heap.num_of_kind(RegionKind::Dynamic(g))).sum();
    assert!(used_dynamic > 0, "offline-seeded decisions must pretenure before the first inference");
    let rolp2 = {
        let p = rt2.profiler.as_ref().expect("rolp").borrow();
        p.stats(&rt2.vm.env.program, &rt2.vm.env.jit)
    };
    assert_eq!(rolp2.inferences, 0, "3k ops is before the first inference window");
}

/// Program for the traffic-drift scenario: two profiled sites in the same
/// hot method, whose object lifetimes the caller drives independently,
/// and a scratch site whose objects die at once.
fn two_site_program() -> (rolp_vm::Program, rolp_vm::CallSiteId, [rolp_vm::AllocSiteId; 3]) {
    let mut b = ProgramBuilder::new();
    let main = b.method("app.Main::run", 60, false);
    let hot = b.method("app.store.Buffer::fill", 120, false);
    let cs = b.call_site(main, hot);
    let sites = [b.alloc_site(hot, 5), b.alloc_site(hot, 9), b.alloc_site(hot, 13)];
    (b.build(), cs, sites)
}

/// How long a two-site run lasts: a number of operations, or until the
/// profiler has run a number of inference epochs.
#[derive(Clone, Copy)]
enum Until {
    Ops(u64),
    Inferences(u64),
}

/// Objects site A keeps alive while the profile is learned; site B keeps
/// as many, so the learned profile places both sites in one generation.
const LEARNED_RING: usize = 12_000;

/// Objects site A keeps alive under drifted traffic: twice as many, so
/// they outlive the generation learned for them.
const DRIFTED_RING: usize = 24_000;

/// Drives the two-site workload: every operation allocates one object at
/// each site, of the same size, and a 32-word scratch object that dies
/// at once. The scratch objects fill eden at the same pace in every run,
/// so the young-collection cadence (the unit of age) does not depend on
/// where A and B are placed. While learning, A and B each keep a ring of
/// their last [`LEARNED_RING`] objects. With `drift`, the traffic the
/// profile was learned on is gone: B's objects die immediately and A
/// keeps [`DRIFTED_RING`]. `frozen_replay` disables the confidence
/// blend: the imported profile is trusted verbatim forever (plain POLM2
/// replay, the comparison baseline). Returns the operations run.
fn run_two_site(
    profile: Option<DecisionProfile>,
    drift: bool,
    frozen_replay: bool,
    until: Until,
) -> (JvmRuntime, rolp::RolpStats, u64) {
    let (program, cs, [site_a, site_b, scratch]) = two_site_program();
    let mut config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 16 << 20 },
        ..Default::default()
    };
    config.rolp.offline_profile = profile;
    config.rolp.blend = !frozen_replay;
    let mut rt = JvmRuntime::new(config, program);
    let class = rt.vm.env.heap.classes.register("app.store.Chunk");

    let ring_a_len = if drift { DRIFTED_RING } else { LEARNED_RING };
    let mut ring_a = std::collections::VecDeque::new();
    let mut ring_b = std::collections::VecDeque::new();
    let mut ops = 0;
    loop {
        let done = match until {
            Until::Ops(n) => ops == n,
            Until::Inferences(n) => rt.profiler.as_ref().expect("rolp").borrow().inferences() >= n,
        };
        if done {
            break;
        }
        ops += 1;
        let mut ctx = rt.ctx(ThreadId(0));
        let (ha, hb) = ctx.call(cs, |ctx| {
            ctx.work(20);
            let tmp = ctx.alloc(scratch, class, 0, 32);
            ctx.release(tmp);
            (ctx.alloc(site_a, class, 0, 24), ctx.alloc(site_b, class, 0, 24))
        });
        ring_a.push_back(ha);
        if ring_a.len() > ring_a_len {
            let old = ring_a.pop_front().expect("non-empty");
            rt.ctx(ThreadId(0)).release(old);
        }
        if drift {
            // Drifted traffic: B's objects now die young.
            rt.ctx(ThreadId(0)).release(hb);
        } else {
            ring_b.push_back(hb);
            if ring_b.len() > LEARNED_RING {
                let old = ring_b.pop_front().expect("non-empty");
                rt.ctx(ThreadId(0)).release(old);
            }
        }
    }
    let stats = {
        let p = rt.profiler.as_ref().expect("rolp").borrow();
        p.stats(&rt.vm.env.program, &rt.vm.env.jit)
    };
    (rt, stats, ops)
}

/// The drift case: a profile learned under one traffic pattern is
/// imported into a run whose traffic has drifted. Site B's objects now
/// die at once, and site A's live twice as long as when the profile was
/// learned. The confidence-weighted blend must (a) still beat a cold
/// start, because the still-valid entry for A pretenures from epoch 0,
/// and (b) beat a frozen replay of the profile, which keeps pretenuring
/// B's now-short-lived objects next to A's live ones.
///
/// A dynamic region becomes a mixed candidate only once it has outlived
/// its generation (DESIGN §4). A frozen replay's co-located garbage
/// therefore costs nothing while A dies within its learned generation:
/// cleanup frees the region whole. Here A outlives it. The frozen
/// replay's regions are then half garbage when they qualify, so mixed
/// collections copy A's live objects out of them. The blend's regions,
/// once B's entry is released, hold A alone: still almost wholly live when
/// they qualify, they are left alone and die together.
///
/// The drifted runs last as many operations as the blended run needs
/// for 8 inference epochs: the prior's release takes three decays, and
/// what it buys shows only in the epochs after.
#[test]
fn blended_warm_start_beats_cold_and_frozen_replay_under_drift() {
    // Learn both sites with the same lifetime.
    let (rt1, learn_stats, _) = run_two_site(None, false, false, Until::Inferences(2));
    let profile = {
        let p = rt1.profiler.as_ref().expect("rolp").borrow();
        DecisionProfile::from_profiler(&p, &rt1.vm.env.program, &rt1.vm.env.jit)
    };
    assert!(learn_stats.decisions >= 2, "both sites must be learned, got: {profile}");
    let (program, _, [site_a, site_b, _]) = two_site_program();
    let learned = profile.resolve(&program);
    assert!(learned[&site_a] > 0, "site A must be pretenured, got: {profile}");
    assert_eq!(learned[&site_a], learned[&site_b], "one generation for both, got: {profile}");

    let (blend_rt, blend, ops) =
        run_two_site(Some(profile.clone()), true, false, Until::Inferences(8));
    let (cold_rt, _, _) = run_two_site(None, true, false, Until::Ops(ops));
    let (frozen_rt, frozen, _) = run_two_site(Some(profile), true, true, Until::Ops(ops));

    let paused = |rt: &JvmRuntime| rt.vm.env.pauses.clone();
    let (cold_p, blend_p, frozen_p) = (paused(&cold_rt), paused(&blend_rt), paused(&frozen_rt));
    // The blend released the drifted entry and kept the valid one.
    assert!(blend.profile_rows_released >= 1, "drifted entry must be released: {blend:?}");
    assert!(blend.profile_rows_active >= 1, "valid entry must survive: {blend:?}");
    assert!(blend.profile_blend_decays >= 2, "release takes repeated decay epochs: {blend:?}");
    let kept = {
        let p = blend_rt.profiler.as_ref().expect("rolp").borrow();
        DecisionProfile::from_profiler(&p, &blend_rt.vm.env.program, &blend_rt.vm.env.jit)
            .resolve(&program)
    };
    assert_eq!(kept.get(&site_a), learned.get(&site_a), "A keeps its imported generation");
    assert_eq!(kept.get(&site_b).copied().unwrap_or(0), 0, "B is young again");

    // Frozen replay never lets go of anything.
    assert_eq!(frozen.profile_rows_released, 0, "frozen replay must not release: {frozen:?}");
    assert_eq!(frozen.profile_blend_decays, 0, "frozen replay must not decay: {frozen:?}");

    // Beats cold start: the still-valid entry pretenures from the first
    // compile, so the warm run stops paying young-collection copying for
    // site A's ring during the cold run's learning window.
    assert!(
        blend_p.total() < cold_p.total(),
        "blended warm start must pause less than cold start: {:?} vs {:?}",
        blend_p.total(),
        cold_p.total(),
    );

    // Beats frozen replay: the frozen run keeps pretenuring site B's
    // now-young garbage next to site A's live objects, and mixed
    // collections copy A out of those regions; the blended run stops
    // once the entry is released.
    let copied = |rt: &JvmRuntime| rt.vm.env.heap.stats().bytes_copied;
    assert!(
        copied(&blend_rt) < copied(&frozen_rt),
        "co-located garbage must cost the frozen replay copying: {} vs {} bytes",
        copied(&blend_rt),
        copied(&frozen_rt),
    );
    assert!(
        blend_p.total() < frozen_p.total(),
        "blended warm start must pause less than frozen replay: {:?} vs {:?}",
        blend_p.total(),
        frozen_p.total(),
    );
}

#[test]
fn stale_profile_entries_are_ignored() {
    let profile: DecisionProfile =
        "rolp-profile-v1\ndecision zzz.Gone::method@9 7 100\ndecision app.store.Buffer::fill@5 6 100\n"
            .parse()
            .expect("parses");
    let (rt, _, _) = run(Some(profile), 3_000);
    // The matching entry applied; the stale one was dropped silently.
    let used_dynamic: usize =
        (1u8..=14).map(|g| rt.vm.env.heap.num_of_kind(RegionKind::Dynamic(g))).sum();
    assert!(used_dynamic > 0);
}

/// Cassandra WI at 1/1024 of the paper's testbed, its preset seed offset
/// by `seed`, under ROLP with two guest threads.
fn cassandra_run(
    seed: u64,
    secs: u64,
    profile: Option<DecisionProfile>,
    on_end: impl FnOnce(&mut JvmRuntime),
) -> (rolp::RolpStats, f64) {
    let scale = SimScale::new(1024);
    let mut workload = presets::cassandra(CassandraMix::WriteIntensive, scale);
    workload.params_mut().seed = workload.params().seed.wrapping_add(seed);
    let mut config = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: presets::bigdata_heap(scale),
        cost: CostModel::scaled(scale),
        threads: 2,
        side_table_scale: scale.divisor(),
        ..Default::default()
    };
    config.rolp.offline_profile = profile;
    let budget = RunBudget {
        sim_time: SimTime::from_secs(secs),
        warmup_discard: SimTime::ZERO,
        max_ops: u64::MAX,
    };
    let out = rolp_workloads::execute_hooked(&mut workload, config, &budget, |_| {}, on_end);
    (out.report.rolp.expect("rolp stats"), out.pauses.percentile_ms(99.0))
}

/// A profile learned under one instance's traffic warm-starts another
/// instance running the same program on different traffic (another
/// workload seed): the joiner publishes its final decisions at epoch 0
/// and its p99 beats a cold start's, which re-learns over several epochs.
#[test]
fn profile_learned_on_one_seed_warm_starts_a_joiner_on_another() {
    let mut profile = DecisionProfile::default();
    let (learned, _) = cassandra_run(0, 10, None, |rt| {
        let p = rt.profiler.as_ref().expect("rolp").borrow();
        profile = DecisionProfile::from_profiler(&p, &rt.vm.env.program, &rt.vm.env.jit);
    });
    assert!(learned.decisions > 0 && !profile.is_empty(), "learning run exported: {profile}");

    let (cold, cold_p99) = cassandra_run(1, 8, None, |_| {});
    let (warm, warm_p99) = cassandra_run(1, 8, Some(profile), |_| {});
    assert!(cold.last_change_epoch >= 1, "cold joiner must learn: {cold:?}");
    assert_eq!(warm.last_change_epoch, 0, "warm joiner changed decisions: {warm:?}");
    assert!(
        warm_p99 < cold_p99,
        "warm joiner p99 {warm_p99:.2} ms must beat cold {cold_p99:.2} ms"
    );
}
