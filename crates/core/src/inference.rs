//! Object-lifetime inference (paper §4).
//!
//! Every 16 GC cycles (the maximum object age in HotSpot), ROLP analyzes
//! each allocation context's age histogram. The curves are typically
//! triangular (Jones & Ryder's demographics): the peak is the age at which
//! most objects die, which becomes the context's estimated lifetime and
//! the target generation for pretenuring. A curve with *multiple* peaks is
//! an allocation-context conflict — one allocation site reached through
//! call paths with different lifetimes — handed to the conflict-resolution
//! machinery of §5.

use std::collections::BTreeMap;

use crate::old_table::{OldTable, AGE_COLUMNS};

/// Minimum samples in a row before inference trusts it.
pub const MIN_SAMPLES: u32 = 32;
/// A local maximum must hold at least this fraction of the row total to
/// count as a peak (absolute noise floor).
pub const PEAK_FLOOR_FRACTION: f64 = 0.05;
/// ... and at least this fraction of the tallest column (relative floor),
/// so a dominant die-young spike cannot mask a genuine secondary cohort.
pub const PEAK_RELATIVE_FRACTION: f64 = 0.20;
/// Valley-to-peak ratio: two maxima are distinct peaks only if the curve
/// dips below this fraction of the smaller peak between them.
pub const VALLEY_FRACTION: f64 = 0.5;
/// Quantile of the age mass used as the lifetime estimate of a unimodal
/// row. The paper reads the triangle's maximum; for sharp triangles this
/// quantile lands on (or one past) that maximum, and it remains defined
/// for the decaying-plateau curves produced by uniformly-born epochal
/// cohorts (objects born throughout a memtable window all dying at its
/// flush), where the raw argmax degenerates to age 0. Overestimates are
/// corrected by the paper's §6 fragmentation demotion.
pub const DECISION_QUANTILE: f64 = 0.85;

/// The verdict on one row of the OLD table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowVerdict {
    /// Not enough samples; no decision.
    Insufficient,
    /// Unimodal: the estimated lifetime (modal death age, 0..=15).
    Lifetime(u8),
    /// Multimodal: an allocation-context conflict; the peak ages found.
    Conflict(Vec<u8>),
}

/// Finds the peaks of an age histogram.
///
/// A peak is a strict-or-plateau local maximum at or above the noise
/// floor; adjacent maxima separated by a shallow valley merge into one
/// peak (triangular curves are noisy in practice).
pub fn find_peaks(hist: &[u32; AGE_COLUMNS]) -> Vec<u8> {
    let total: u64 = hist.iter().map(|&c| c as u64).sum();
    if total == 0 {
        return Vec::new();
    }
    let max = *hist.iter().max().expect("non-empty");
    let abs_floor = (total as f64 * PEAK_FLOOR_FRACTION).ceil() as u64;
    let rel_floor = (max as f64 * PEAK_RELATIVE_FRACTION).ceil() as u64;
    let floor = abs_floor.max(rel_floor).min(max as u64).max(1);

    // Candidate local maxima.
    let mut candidates: Vec<usize> = Vec::new();
    for i in 0..AGE_COLUMNS {
        let c = hist[i] as u64;
        if c < floor {
            continue;
        }
        let left = if i == 0 { 0 } else { hist[i - 1] };
        let right = if i == AGE_COLUMNS - 1 { 0 } else { hist[i + 1] };
        if hist[i] >= left
            && hist[i] >= right
            && (hist[i] > left || hist[i] > right || (i == 0 && right == 0) || hist[i] == max)
        {
            // Plateau handling: take only the first column of a plateau.
            if i > 0 && hist[i] == left && candidates.last() == Some(&(i - 1)) {
                continue;
            }
            candidates.push(i);
        }
    }

    // Merge candidates not separated by a deep valley.
    let mut peaks: Vec<usize> = Vec::new();
    for &c in &candidates {
        match peaks.last() {
            None => peaks.push(c),
            Some(&prev) => {
                let valley = (prev + 1..c).map(|i| hist[i]).min().unwrap_or(hist[c]);
                let smaller = hist[prev].min(hist[c]);
                if (valley as f64) < smaller as f64 * VALLEY_FRACTION {
                    peaks.push(c);
                } else if hist[c] > hist[prev] {
                    // Same mound; keep the taller side.
                    *peaks.last_mut().expect("non-empty") = c;
                }
            }
        }
    }
    peaks.into_iter().map(|i| i as u8).collect()
}

/// The [`DECISION_QUANTILE`] age of a histogram: the smallest age at or
/// below which that fraction of the mass lies.
pub fn quantile_age(hist: &[u32; AGE_COLUMNS], q: f64) -> u8 {
    let total: u64 = hist.iter().map(|&c| c as u64).sum();
    if total == 0 {
        return 0;
    }
    let target = (total as f64 * q).ceil() as u64;
    let mut cum = 0u64;
    for (i, &c) in hist.iter().enumerate() {
        cum += c as u64;
        if cum >= target {
            return i as u8;
        }
    }
    (AGE_COLUMNS - 1) as u8
}

/// Classifies one row.
pub fn classify_row(hist: &[u32; AGE_COLUMNS]) -> RowVerdict {
    let total: u64 = hist.iter().map(|&c| c as u64).sum();
    if total < MIN_SAMPLES as u64 {
        return RowVerdict::Insufficient;
    }
    let peaks = find_peaks(hist);
    match peaks.len() {
        0 => RowVerdict::Insufficient,
        1 => RowVerdict::Lifetime(quantile_age(hist, DECISION_QUANTILE).max(peaks[0])),
        _ => RowVerdict::Conflict(peaks),
    }
}

/// The outcome of a full inference pass over the OLD table.
#[derive(Debug, Default, Clone)]
pub struct InferenceOutcome {
    /// Per row key: the estimated lifetime (target generation).
    pub decisions: Vec<(u32, u8)>,
    /// Sites whose (still unexpanded) row was multimodal: freshly detected
    /// conflicts.
    pub new_conflicts: Vec<u16>,
    /// Expanded sites that still show a multimodal sub-row: unresolved
    /// conflicts.
    pub unresolved_conflicts: Vec<u16>,
    /// Rows examined.
    pub rows_examined: usize,
}

/// Runs inference over every touched row of the table (the §4 periodic
/// pass). Does not clear the table — the caller does, after acting on the
/// outcome. Rows are visited in [`OldTable::touched_rows`]' ascending
/// order.
pub fn infer(table: &OldTable) -> InferenceOutcome {
    let mut out = InferenceOutcome::default();
    for key in table.touched_rows() {
        out.rows_examined += 1;
        let hist = table.histogram(key);
        let site = crate::context::site_of(key);
        match classify_row(&hist) {
            RowVerdict::Insufficient => {}
            RowVerdict::Lifetime(age) => out.decisions.push((key, age)),
            RowVerdict::Conflict(peaks) => {
                if table.is_expanded(site) {
                    if !out.unresolved_conflicts.contains(&site) {
                        out.unresolved_conflicts.push(site);
                    }
                } else if !out.new_conflicts.contains(&site) {
                    out.new_conflicts.push(site);
                }
                // Even while conflicted, pretenure by the *last* (oldest)
                // peak is unsafe; the paper leaves such contexts in the
                // young generation until resolved, so no decision is
                // emitted. The peaks are kept for diagnostics.
                let _ = peaks;
            }
        }
    }
    out
}

/// Tenured fragmentation above which §6 demotion runs, and the garbage
/// share above which a dynamic generation's estimates are demoted.
pub const DEMOTION_THRESHOLD: f64 = 0.5;

/// The pure learning step of an inference epoch: folds `outcome` into the
/// decision working set, then applies §6 fragmentation demotion. Returns
/// the number of estimates demoted.
///
/// Estimates merge *upward*: inference raises them, only demotion lowers
/// them. A pretenured context produces no young survivals anymore, so its
/// fresh window degenerates to an age-0 spike — replacing instead of
/// merging would bounce the context back to the young generation every
/// other inference. Rows for which `held` is true (imported priors the
/// warm start still holds) are left to their owner: neither raised nor
/// demoted.
///
/// Under tenured fragmentation above [`DEMOTION_THRESHOLD`], every
/// estimate not held that targets a dynamic generation (1–14) whose
/// garbage share also exceeds it is lowered by one.
pub fn learn(
    outcome: &InferenceOutcome,
    decisions: &mut BTreeMap<u32, u8>,
    held: impl Fn(u32) -> bool,
    tenured_fragmentation: f64,
    dynamic_gen_garbage: &[f64; 16],
) -> u64 {
    for &(key, gen) in &outcome.decisions {
        if held(key) {
            continue;
        }
        let slot = decisions.entry(key).or_insert(gen);
        *slot = (*slot).max(gen);
    }
    let mut demotions = 0;
    if tenured_fragmentation > DEMOTION_THRESHOLD {
        for (&key, gen) in decisions.iter_mut() {
            if held(key) {
                continue;
            }
            let g = *gen as usize;
            if (1..=14).contains(&g) && dynamic_gen_garbage[g] > DEMOTION_THRESHOLD {
                *gen -= 1;
                demotions += 1;
            }
        }
    }
    demotions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::pack;

    fn hist(pairs: &[(usize, u32)]) -> [u32; AGE_COLUMNS] {
        let mut h = [0u32; AGE_COLUMNS];
        for &(i, c) in pairs {
            h[i] = c;
        }
        h
    }

    #[test]
    fn triangular_curve_yields_near_its_peak() {
        // Most objects die at age 3; the decision quantile lands on the
        // triangle's right shoulder.
        let h = hist(&[(0, 5), (1, 20), (2, 60), (3, 100), (4, 40), (5, 10)]);
        match classify_row(&h) {
            RowVerdict::Lifetime(age) => assert!((3..=4).contains(&age), "got {age}"),
            v => panic!("expected lifetime, got {v:?}"),
        }
    }

    #[test]
    fn decaying_plateau_estimates_the_tail_not_zero() {
        // Uniformly-born epochal cohort: flat-ish death ages 0..5 with the
        // transient spike at 0. The argmax is 0, but pretenuring must use
        // the cohort's real extent.
        let h = hist(&[(0, 30), (1, 12), (2, 11), (3, 11), (4, 10), (5, 9)]);
        match classify_row(&h) {
            RowVerdict::Lifetime(age) => assert!((4..=5).contains(&age), "got {age}"),
            v => panic!("expected lifetime, got {v:?}"),
        }
    }

    #[test]
    fn quantile_age_basics() {
        let h = hist(&[(0, 90), (5, 10)]);
        assert_eq!(quantile_age(&h, 0.85), 0);
        assert_eq!(quantile_age(&h, 0.95), 5);
        assert_eq!(quantile_age(&hist(&[]), 0.85), 0);
    }

    #[test]
    fn die_young_curve_yields_zero() {
        let h = hist(&[(0, 500), (1, 30), (2, 4)]);
        assert_eq!(classify_row(&h), RowVerdict::Lifetime(0));
    }

    #[test]
    fn pure_transient_row_stays_young_even_with_noise() {
        let h = hist(&[(0, 10_000), (1, 300)]);
        assert_eq!(classify_row(&h), RowVerdict::Lifetime(0));
    }

    #[test]
    fn immortal_curve_yields_fifteen() {
        let h = hist(&[(14, 10), (15, 900)]);
        assert_eq!(classify_row(&h), RowVerdict::Lifetime(15));
    }

    #[test]
    fn bimodal_curve_is_a_conflict() {
        // A factory allocating both request buffers (die at 0) and cached
        // entries (die at ~12).
        let h = hist(&[(0, 400), (1, 30), (11, 50), (12, 300), (13, 40)]);
        match classify_row(&h) {
            RowVerdict::Conflict(peaks) => assert_eq!(peaks, vec![0, 12]),
            v => panic!("expected conflict, got {v:?}"),
        }
    }

    #[test]
    fn shallow_noise_does_not_split_a_peak() {
        // One mound with a tiny dip — not a conflict.
        let h = hist(&[(2, 100), (3, 95), (4, 98), (5, 40)]);
        assert!(matches!(classify_row(&h), RowVerdict::Lifetime(_)));
    }

    #[test]
    fn sparse_rows_are_insufficient() {
        let h = hist(&[(0, 3), (5, 2)]);
        assert_eq!(classify_row(&h), RowVerdict::Insufficient);
    }

    /// A table whose one row, `pack(1, 0)`, infers to generation `age`.
    fn table_inferring(age: u8) -> OldTable {
        let mut t = OldTable::new();
        for _ in 0..100 {
            t.record_allocation(pack(1, 0));
        }
        for _ in 0..90 {
            for a in 0..age {
                t.record_survival(pack(1, 0), a);
            }
        }
        t
    }

    const NO_GARBAGE: [f64; 16] = [0.0; 16];

    #[test]
    fn learn_only_raises_estimates() {
        let mut decisions = BTreeMap::new();
        learn(&infer(&table_inferring(3)), &mut decisions, |_| false, 0.0, &NO_GARBAGE);
        assert_eq!(decisions, BTreeMap::from([(pack(1, 0), 3)]), "a new row is inserted");
        learn(&infer(&table_inferring(7)), &mut decisions, |_| false, 0.0, &NO_GARBAGE);
        assert_eq!(decisions[&pack(1, 0)], 7, "a higher verdict raises the estimate");
        // A pretenured context's fresh window degenerates to an age-0
        // spike; it must not pull the estimate back down.
        learn(&infer(&table_inferring(0)), &mut decisions, |_| false, 0.0, &NO_GARBAGE);
        assert_eq!(decisions[&pack(1, 0)], 7, "a lower verdict never lowers it");
    }

    #[test]
    fn learn_skips_held_rows() {
        let outcome = infer(&table_inferring(7));
        let mut decisions = BTreeMap::from([(pack(1, 0), 2)]);
        learn(&outcome, &mut decisions, |key| key == pack(1, 0), 0.0, &NO_GARBAGE);
        assert_eq!(decisions[&pack(1, 0)], 2, "the held prior is left alone");
        let mut decisions = BTreeMap::new();
        learn(&outcome, &mut decisions, |_| true, 0.0, &NO_GARBAGE);
        assert!(decisions.is_empty(), "a held row is not inserted either");
        // Fragmentation that demotes a live-learned row leaves a held one.
        let mut decisions = BTreeMap::from([(pack(1, 0), 5), (pack(2, 0), 5)]);
        let demoted = learn(
            &InferenceOutcome::default(),
            &mut decisions,
            |key| key == pack(1, 0),
            0.8,
            &[0.9; 16],
        );
        assert_eq!(demoted, 1);
        assert_eq!(decisions[&pack(1, 0)], 5, "the held prior is not demoted");
        assert_eq!(decisions[&pack(2, 0)], 4, "the live-learned row is");
    }

    #[test]
    fn fragmentation_demotes_estimates() {
        // The merge runs first: an estimate of 5 learned on a fragmented
        // cycle whose generation 5 is mostly garbage lands demoted.
        let mut garbage = NO_GARBAGE;
        garbage[5] = 0.9;
        let mut decisions = BTreeMap::new();
        assert_eq!(learn(&infer(&table_inferring(5)), &mut decisions, |_| false, 0.8, &garbage), 1);
        assert_eq!(decisions[&pack(1, 0)], 4, "demoted from 5 to 4");

        // Both the tenured fragmentation and the generation's garbage
        // share must exceed the threshold, and only generations 1-14 move.
        let demote = |fragmentation: f64, garbage: f64| {
            let mut d: BTreeMap<u32, u8> =
                BTreeMap::from([(0, 0), (1, 1), (2, 5), (3, 14), (4, 15)]);
            learn(&InferenceOutcome::default(), &mut d, |_| false, fragmentation, &[garbage; 16]);
            d.into_values().collect::<Vec<u8>>()
        };
        assert_eq!(demote(0.8, 0.9), [0, 0, 4, 13, 15]);
        assert_eq!(demote(DEMOTION_THRESHOLD, 0.9), [0, 1, 5, 14, 15]);
        assert_eq!(demote(0.8, DEMOTION_THRESHOLD), [0, 1, 5, 14, 15]);
    }

    #[test]
    fn infer_separates_new_and_unresolved_conflicts() {
        let mut t = OldTable::new();
        // Site 1: clean long-lived context.
        for _ in 0..100 {
            t.record_allocation(pack(1, 0));
        }
        for _ in 0..90 {
            t.record_survival(pack(1, 0), 0);
        }
        // Site 2: bimodal (conflict), unexpanded.
        for _ in 0..200 {
            t.record_allocation(pack(2, 0));
        }
        for _ in 0..80 {
            t.record_survival(pack(2, 0), 0);
            t.record_survival(pack(2, 0), 1);
            t.record_survival(pack(2, 0), 2);
        }
        // Now site 2 row: age0=120, age3=80 -> two peaks.
        let out = infer(&t);
        assert!(out.decisions.iter().any(|&(k, age)| k == pack(1, 0) && age == 1));
        assert_eq!(out.new_conflicts, vec![2]);
        assert!(out.unresolved_conflicts.is_empty());

        // After expansion, a still-bimodal sub-row is "unresolved".
        t.clear_counts();
        t.expand_site(2);
        for _ in 0..200 {
            t.record_allocation(pack(2, 7));
        }
        for _ in 0..80 {
            t.record_survival(pack(2, 7), 0);
            t.record_survival(pack(2, 7), 1);
            t.record_survival(pack(2, 7), 2);
        }
        let out2 = infer(&t);
        assert_eq!(out2.unresolved_conflicts, vec![2]);
        assert!(out2.new_conflicts.is_empty());
    }
}
