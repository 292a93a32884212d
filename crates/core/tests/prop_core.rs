//! Property-based tests for ROLP's core data structures.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rolp::inference::{classify_row, find_peaks, quantile_age, RowVerdict};
use rolp::{OldTable, SurvivorTracking, WorkerTable, AGE_COLUMNS};

/// One OLD-table event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Alloc { site: u16, tss: u16 },
    Survive { site: u16, tss: u16, age: u8 },
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        3 => (1u16..6, 0u16..4).prop_map(|(site, tss)| Ev::Alloc { site, tss }),
        2 => (1u16..6, 0u16..4, 0u8..15).prop_map(|(site, tss, age)| Ev::Survive { site, tss, age }),
    ]
}

proptest! {
    /// The OLD table agrees with a reference model for any event sequence,
    /// with and without expansion, as long as no counter saturates.
    #[test]
    fn old_table_matches_reference_model(
        events in prop::collection::vec(ev_strategy(), 0..500),
        expand_site in prop::option::of(1u16..6),
    ) {
        let mut table = OldTable::new();
        if let Some(site) = expand_site {
            table.expand_site(site);
        }
        // Reference: row key -> age counts, with the same aliasing rule
        // and the same saturating-at-zero decrement semantics.
        let mut model: BTreeMap<(u16, u16), [u64; AGE_COLUMNS]> = BTreeMap::new();
        let key_of = |site: u16, tss: u16| {
            if Some(site) == expand_site { (site, tss) } else { (site, 0) }
        };
        for &ev in &events {
            match ev {
                Ev::Alloc { site, tss } => {
                    table.record_allocation(((site as u32) << 16) | tss as u32);
                    model.entry(key_of(site, tss)).or_insert([0; AGE_COLUMNS])[0] += 1;
                }
                Ev::Survive { site, tss, age } => {
                    table.record_survival(((site as u32) << 16) | tss as u32, age);
                    let row = model.entry(key_of(site, tss)).or_insert([0; AGE_COLUMNS]);
                    row[age as usize] = row[age as usize].saturating_sub(1);
                    row[(age as usize + 1).min(AGE_COLUMNS - 1)] += 1;
                }
            }
        }
        for ((site, tss), expect) in &model {
            let hist = table.histogram(((*site as u32) << 16) | *tss as u32);
            for age in 0..AGE_COLUMNS {
                prop_assert_eq!(hist[age] as u64, expect[age], "site {} tss {} age {}", site, tss, age);
            }
        }
    }

    /// Worker-table buffering then merging is equivalent to direct updates.
    #[test]
    fn worker_merge_equals_direct(events in prop::collection::vec(ev_strategy(), 0..300)) {
        let mut direct = OldTable::new();
        let mut buffered = OldTable::new();
        let mut worker = WorkerTable::new();
        for &ev in &events {
            match ev {
                Ev::Alloc { site, tss } => {
                    let c = ((site as u32) << 16) | tss as u32;
                    direct.record_allocation(c);
                    buffered.record_allocation(c);
                }
                Ev::Survive { site, tss, age } => {
                    let c = ((site as u32) << 16) | tss as u32;
                    direct.record_survival(c, age);
                    worker.record_survival(c, age);
                }
            }
        }
        // NOTE: ordering differs (all survivals after all allocations in
        // the buffered table, sorted by context and age), so saturating
        // decrements can differ. Only compare totals, which are
        // order-independent.
        buffered.merge_survivals(&mut worker);
        for site in 1u16..6 {
            let c = (site as u32) << 16;
            let a: u64 = direct.histogram(c).iter().map(|&x| x as u64).sum();
            let b: u64 = buffered.histogram(c).iter().map(|&x| x as u64).sum();
            // Totals can differ only through saturation; they never differ
            // by more than the number of survival events.
            let survivals = events.iter().filter(|e| matches!(e, Ev::Survive { site: s, .. } if *s == site)).count() as u64;
            prop_assert!(a.abs_diff(b) <= survivals);
        }
    }

    /// Peak detection basics hold for arbitrary histograms: every reported
    /// peak is a local maximum, and a classified lifetime is within range.
    #[test]
    fn peaks_are_local_maxima(hist in prop::array::uniform16(0u32..10_000)) {
        let peaks = find_peaks(&hist);
        for &p in &peaks {
            let i = p as usize;
            let left = if i == 0 { 0 } else { hist[i - 1] };
            let right = if i == AGE_COLUMNS - 1 { 0 } else { hist[i + 1] };
            prop_assert!(hist[i] >= left.min(right), "peak {} not a maximum", p);
        }
        // Peaks are strictly increasing in age.
        for w in peaks.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        match classify_row(&hist) {
            RowVerdict::Lifetime(age) => prop_assert!(age <= 15),
            RowVerdict::Conflict(p) => prop_assert!(p.len() >= 2),
            RowVerdict::Insufficient => {}
        }
    }

    /// The decision quantile is monotone in q and brackets the mass.
    #[test]
    fn quantile_age_is_monotone(hist in prop::array::uniform16(0u32..10_000)) {
        let total: u64 = hist.iter().map(|&c| c as u64).sum();
        prop_assume!(total > 0);
        let mut prev = 0u8;
        for q in [0.1, 0.5, 0.85, 0.99] {
            let a = quantile_age(&hist, q);
            prop_assert!(a >= prev);
            prev = a;
            // At least q of the mass lies at or below the reported age.
            let below: u64 = hist[..=a as usize].iter().map(|&c| c as u64).sum();
            prop_assert!(below as f64 >= (total as f64 * q).floor());
        }
    }

    /// Decision hashing is order-independent and collision-sensitive.
    #[test]
    fn decision_hash_properties(
        mut decisions in prop::collection::vec((any::<u32>(), 0u8..16), 0..40),
    ) {
        decisions.sort_unstable();
        decisions.dedup_by_key(|d| d.0);
        let forward = SurvivorTracking::hash_decisions(&decisions);
        let mut reversed = decisions.clone();
        reversed.reverse();
        prop_assert_eq!(forward, SurvivorTracking::hash_decisions(&reversed));
        if let Some(first) = decisions.first().copied() {
            let mut changed = decisions.clone();
            changed[0] = (first.0, (first.1 + 1) % 16);
            prop_assert_ne!(forward, SurvivorTracking::hash_decisions(&changed));
        }
    }
}
