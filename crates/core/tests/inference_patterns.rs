//! Inference pattern library: the demographic shapes the paper's Fig. 4
//! sketches, end to end through the OLD table + classifier.

use rolp::inference::{classify_row, infer, RowVerdict};
use rolp::OldTable;

/// Simulates a cohort of `n` objects allocated through `ctx` that all die
/// at exactly `death_age` (survive that many cycles first).
fn cohort(table: &mut OldTable, ctx: u32, n: u32, death_age: u8) {
    for _ in 0..n {
        table.record_allocation(ctx);
        for age in 0..death_age {
            table.record_survival(ctx, age);
        }
    }
}

/// Simulates `n` objects with death ages uniformly spread over
/// `0..=max_age` (the uniformly-born epochal cohort).
fn spread_cohort(table: &mut OldTable, ctx: u32, n: u32, max_age: u8) {
    for i in 0..n {
        table.record_allocation(ctx);
        let death = (i % (max_age as u32 + 1)) as u8;
        for age in 0..death {
            table.record_survival(ctx, age);
        }
    }
}

#[test]
fn transient_cohort_stays_young() {
    let mut t = OldTable::new();
    cohort(&mut t, 1 << 16, 500, 0);
    assert_eq!(classify_row(&t.histogram(1 << 16)), RowVerdict::Lifetime(0));
}

#[test]
fn clustered_cohort_lands_on_its_death_age() {
    for death in [2u8, 5, 9, 14] {
        let mut t = OldTable::new();
        cohort(&mut t, 1 << 16, 400, death);
        match classify_row(&t.histogram(1 << 16)) {
            RowVerdict::Lifetime(age) => {
                assert_eq!(age, death, "cluster at {death} must be estimated exactly")
            }
            v => panic!("expected lifetime for death {death}, got {v:?}"),
        }
    }
}

#[test]
fn immortal_cohort_saturates_to_old() {
    let mut t = OldTable::new();
    cohort(&mut t, 1 << 16, 300, 15);
    // Extra survivals past 15 must keep everything at the max age.
    for _ in 0..300 {
        t.record_survival(1 << 16, 15);
    }
    assert_eq!(classify_row(&t.histogram(1 << 16)), RowVerdict::Lifetime(15));
}

#[test]
fn epochal_spread_estimates_near_its_tail() {
    let mut t = OldTable::new();
    spread_cohort(&mut t, 1 << 16, 600, 6);
    match classify_row(&t.histogram(1 << 16)) {
        RowVerdict::Lifetime(age) => {
            assert!((5..=6).contains(&age), "p85 of a 0..=6 spread, got {age}")
        }
        v => panic!("expected lifetime, got {v:?}"),
    }
}

#[test]
fn transient_plus_distant_cluster_is_a_conflict() {
    // The factory pattern: 60% die young, 40% live ~10 cycles.
    let mut t = OldTable::new();
    cohort(&mut t, 2 << 16, 600, 0);
    cohort(&mut t, 2 << 16, 400, 10);
    match classify_row(&t.histogram(2 << 16)) {
        RowVerdict::Conflict(peaks) => {
            assert!(peaks.contains(&0));
            assert!(peaks.iter().any(|&p| (9..=11).contains(&p)), "peaks {peaks:?}");
        }
        v => panic!("expected conflict, got {v:?}"),
    }
}

#[test]
fn trimodal_factory_reports_all_modes() {
    let mut t = OldTable::new();
    cohort(&mut t, 3 << 16, 500, 0);
    cohort(&mut t, 3 << 16, 400, 6);
    cohort(&mut t, 3 << 16, 400, 13);
    match classify_row(&t.histogram(3 << 16)) {
        RowVerdict::Conflict(peaks) => assert!(peaks.len() >= 3, "peaks {peaks:?}"),
        v => panic!("expected conflict, got {v:?}"),
    }
}

#[test]
fn expansion_separates_the_factory_modes() {
    // Before expansion: one conflicted row. After: per-path rows, each
    // unimodal — the resolution endpoint of Section 5.
    let mut t = OldTable::new();
    let site = 4u16;
    cohort(&mut t, (site as u32) << 16, 300, 0);
    cohort(&mut t, (site as u32) << 16, 300, 8);
    let out = infer(&t);
    assert_eq!(out.new_conflicts, vec![site]);

    t.expand_site(site);
    t.clear_counts();
    let path_a = ((site as u32) << 16) | 0x00AA;
    let path_b = ((site as u32) << 16) | 0x00BB;
    cohort(&mut t, path_a, 300, 0);
    cohort(&mut t, path_b, 300, 8);
    let out2 = infer(&t);
    assert!(out2.new_conflicts.is_empty());
    assert!(out2.unresolved_conflicts.is_empty(), "both sub-rows are unimodal");
    assert!(out2.decisions.contains(&(path_a, 0)));
    assert!(out2.decisions.iter().any(|&(k, g)| k == path_b && (7..=9).contains(&g)));
}

/// A program with one hot caller and `n` profilable call sites, jitted so
/// the resolver has something to probe.
fn probe_world(n: usize) -> (std::rc::Rc<rolp_vm::Program>, rolp_vm::JitState) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut b = rolp_vm::ProgramBuilder::new();
    let caller = b.method("app.Main::run", 500, false);
    for i in 0..n {
        let callee = b.method(format!("app.W{i}::go"), 200, false);
        b.call_site(caller, callee);
    }
    let program = std::rc::Rc::new(b.build());
    let mut jit = rolp_vm::JitState::new(
        &program,
        rolp_vm::JitConfig { compile_threshold: 1, ..Default::default() },
    );
    jit.note_entry(&program, caller, &mut StdRng::seed_from_u64(1));
    (program, jit)
}

#[test]
fn shrink_back_converges_to_a_minimal_set_end_to_end() {
    // Section 5 end to end: conflict detected *by inference on real age
    // histograms*, probed, separated by TSS tracking, then shrunk back
    // until only a minimal distinguishing set stays enabled.
    use rolp::ConflictResolver;

    let (program, mut jit) = probe_world(12);
    let mut resolver = ConflictResolver::new(42);
    let mut t = OldTable::new();
    let site = 7u16;

    // Epoch 1: the merged row is bimodal — inference reports a conflict
    // and the resolver enables a probing batch.
    cohort(&mut t, (site as u32) << 16, 300, 0);
    cohort(&mut t, (site as u32) << 16, 300, 8);
    let out = infer(&t);
    assert_eq!(out.new_conflicts, vec![site]);
    t.expand_site(site);
    resolver.on_inference(&program, &mut jit, &out.new_conflicts, &out.unresolved_conflicts);
    let batch = jit.enabled_call_sites();
    assert!(batch >= 2, "probing batch enabled, got {batch}");

    // Epoch 2: with tracking on, the paths separate into unimodal
    // sub-rows — resolved, so the resolver starts halving the batch.
    t.clear_counts();
    let path_a = ((site as u32) << 16) | 0x00AA;
    let path_b = ((site as u32) << 16) | 0x00BB;
    cohort(&mut t, path_a, 300, 0);
    cohort(&mut t, path_b, 300, 8);
    let out = infer(&t);
    assert!(out.new_conflicts.is_empty() && out.unresolved_conflicts.is_empty());
    resolver.on_inference(&program, &mut jit, &out.new_conflicts, &out.unresolved_conflicts);
    assert!(jit.enabled_call_sites() < batch, "shrink-back disabled half the batch");

    // Later epochs: the separation persists, so the batch halves away to
    // a minimal frozen set and the conflict closes.
    for _ in 0..8 {
        t.clear_counts();
        cohort(&mut t, path_a, 300, 0);
        cohort(&mut t, path_b, 300, 8);
        let out = infer(&t);
        resolver.on_inference(&program, &mut jit, &out.new_conflicts, &out.unresolved_conflicts);
    }
    let stats = resolver.stats();
    assert_eq!(stats.resolved, 1);
    assert!(
        (1..=2).contains(&stats.frozen_sites),
        "minimal distinguishing set, got {}",
        stats.frozen_sites
    );
    assert_eq!(jit.enabled_call_sites() as u64, stats.frozen_sites, "only S stays enabled");
    assert_eq!(resolver.open_conflicts(), 0);
}

#[test]
fn shrink_back_restores_the_disabled_half_when_separation_degrades() {
    // The other shrink-back arm: disabling half the batch collapses the
    // paths onto one TSS row again (the sub-row goes bimodal), so the
    // half comes back and the whole set freezes.
    use rolp::ConflictResolver;

    let (program, mut jit) = probe_world(12);
    let mut resolver = ConflictResolver::new(42);
    let mut t = OldTable::new();
    let site = 9u16;

    cohort(&mut t, (site as u32) << 16, 300, 0);
    cohort(&mut t, (site as u32) << 16, 300, 8);
    let out = infer(&t);
    assert_eq!(out.new_conflicts, vec![site]);
    t.expand_site(site);
    resolver.on_inference(&program, &mut jit, &out.new_conflicts, &out.unresolved_conflicts);
    let batch = jit.enabled_call_sites();

    // Resolved once: first shrink step disables half.
    t.clear_counts();
    let path_a = ((site as u32) << 16) | 0x00AA;
    let path_b = ((site as u32) << 16) | 0x00BB;
    cohort(&mut t, path_a, 300, 0);
    cohort(&mut t, path_b, 300, 8);
    let out = infer(&t);
    resolver.on_inference(&program, &mut jit, &out.new_conflicts, &out.unresolved_conflicts);
    assert!(jit.enabled_call_sites() < batch);

    // With the half gone the paths land on one sub-row and the histogram
    // goes bimodal again — inference reports the site unresolved.
    t.clear_counts();
    cohort(&mut t, path_a, 300, 0);
    cohort(&mut t, path_a, 300, 8);
    let out = infer(&t);
    assert_eq!(out.unresolved_conflicts, vec![site]);
    resolver.on_inference(&program, &mut jit, &out.new_conflicts, &out.unresolved_conflicts);
    assert_eq!(jit.enabled_call_sites(), batch, "the disabled half came back");
    assert_eq!(resolver.stats().frozen_sites as usize, batch);
    assert_eq!(resolver.open_conflicts(), 0);
}

#[test]
fn inference_is_idempotent_on_an_unchanged_table() {
    let mut t = OldTable::new();
    cohort(&mut t, 5 << 16, 200, 3);
    cohort(&mut t, 6 << 16, 200, 0);
    let a = infer(&t);
    let b = infer(&t);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.new_conflicts, b.new_conflicts);
    assert_eq!(a.rows_examined, b.rows_examined);
}
