//! Warm start: an offline decision profile imported into a live run and
//! blended with live evidence.
//!
//! A POLM2-style profile (see [`crate::offline`]) is resolved against the
//! program at the first JIT compile; each matching allocation site becomes
//! a decision the moment it is compiled, carrying the entry's confidence.
//! Such *imported* rows hold their offline prior: live inference may not
//! overwrite them until the blend decay releases them or they graduate.
//!
//! The blend decay judges a prior on live canary evidence. A pretenured
//! context produces no young survivals on its own, so imported rows are
//! published canary-flagged: one in [`rolp_vm::CANARY_STRIDE`] of their
//! allocations stays young and ages through the survivor spaces like any
//! other object. The closing epoch's OLD-table row then tells the truth
//! about current traffic: canaries that survive confirm the prior
//! (confidence restored); an epoch whose canaries all died before their
//! first collection contradicts it (confidence halves). Below
//! `CONFIDENCE_FLOOR` the prior is released and the row handed back to
//! live inference — every allocation young again, fully observable. After
//! `CONFIRMATIONS_TO_GRADUATE` confirming epochs in a row the prior
//! graduates instead: probation ends, the canary flag is dropped, and the
//! row is trusted like a live-learned decision.

use std::collections::{BTreeMap, HashMap};

use rolp_vm::{AllocSiteId, CallSiteId, Program};

use crate::offline::{DecisionProfile, ProfileValidation, DEFAULT_CONFIDENCE};
use crate::old_table::OldTable;

/// Remaining confidence below which an imported row's offline prior is
/// released: the row is dropped from the published table (so
/// mis-pretenuring stops immediately) and live inference owns it from
/// then on.
const CONFIDENCE_FLOOR: u8 = 16;

/// Consecutive canary-confirmed epochs after which an imported row
/// *graduates* from probation: the canary flag is dropped and the row is
/// trusted exactly like a live-learned decision (§7.4 semantics — once
/// the workload has re-confirmed the prior, re-measuring it forever
/// would only keep survivor tracking alive and let late, noisy
/// inference perturb an otherwise stable table).
pub(crate) const CONFIRMATIONS_TO_GRADUATE: u8 = 3;

/// What one epoch's blend decay did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlendEpoch {
    /// Imported rows whose confidence halved.
    pub decayed: u64,
    /// Imported rows released to live inference (removed from the working
    /// set).
    pub released: u64,
    /// Imported rows still holding their prior afterwards.
    pub remaining: u64,
}

/// The imported-profile state of one profiler.
#[derive(Debug, Default)]
pub(crate) struct WarmStart {
    /// Offline-profile `(generation, confidence)` pairs awaiting their
    /// site's JIT compilation (`None` until the first compile resolves
    /// the profile).
    pending: Option<HashMap<AllocSiteId, (u8, u8)>>,
    /// Imported rows still holding their offline prior: row key →
    /// remaining confidence.
    imported: HashMap<u32, u8>,
    /// Consecutive canary-confirmed epochs per probationary row.
    confirm_streak: HashMap<u32, u8>,
    /// What the import applied and rejected (`None` when no profile was
    /// configured or no method has been compiled yet).
    pub validation: Option<ProfileValidation>,
    /// An import happened but its trace event / counter bump is still
    /// pending (no trace handle inside `on_jit_compile`).
    pending_note: bool,
    /// Imported rows that graduated to full trust.
    pub graduated: u64,
    /// Lifetime total of confidence halvings.
    pub decays: u64,
    /// Lifetime total of rows released to live inference.
    pub released: u64,
}

impl WarmStart {
    /// Resolves `profile` against the program, with full shape validation,
    /// the first time it is called; later calls do nothing. Returns the
    /// profile's distinguishing call sites for the resolver to re-freeze
    /// (empty when there are none or the profile was already resolved).
    pub fn resolve_once(
        &mut self,
        profile: Option<&DecisionProfile>,
        program: &Program,
    ) -> Vec<CallSiteId> {
        if self.pending.is_some() {
            return Vec::new();
        }
        let Some(profile) = profile else {
            self.pending = Some(HashMap::new());
            return Vec::new();
        };
        let resolved = profile.resolve_validated(program);
        self.validation = Some(resolved.validation);
        self.pending_note = true;
        self.pending = Some(resolved.decisions);
        resolved.call_sites
    }

    /// Seeds the working set with a freshly compiled site's imported
    /// decision under row `key`. Returns whether the site had an entry.
    pub fn seed(&mut self, site: AllocSiteId, key: u32, decisions: &mut BTreeMap<u32, u8>) -> bool {
        let Some(&(gen, conf)) = self.pending.as_ref().and_then(|m| m.get(&site)) else {
            return false;
        };
        decisions.entry(key).or_insert(gen);
        self.imported.insert(key, conf);
        true
    }

    /// Whether row `key` still holds its offline prior (live inference
    /// must not overwrite it).
    pub fn holds(&self, key: u32) -> bool {
        self.imported.contains_key(&key)
    }

    /// Export confidence for a decision row: imported rows carry what is
    /// left of their offline prior; live-learned rows export at full
    /// confidence.
    pub fn confidence_of(&self, key: u32) -> u8 {
        self.imported.get(&key).copied().unwrap_or(DEFAULT_CONFIDENCE)
    }

    /// Whether row `key` is on canary probation: imported and pretenured.
    /// Generation-0 priors are exempt: they say the object dies around
    /// its first collection, so a surviving canary is structurally not
    /// expected (zero survivals cannot contradict the prior), and
    /// misprediction cost is bounded — a wrong gen-0 region dies
    /// wholesale and is reclaimed without copying.
    pub fn is_probationary(&self, key: u32, decisions: &BTreeMap<u32, u8>) -> bool {
        self.imported.contains_key(&key) && decisions.get(&key).is_some_and(|&g| g > 0)
    }

    /// True while any imported row is still canary-probationary.
    pub fn any_probationary(&self, decisions: &BTreeMap<u32, u8>) -> bool {
        self.imported.keys().any(|&k| self.is_probationary(k, decisions))
    }

    /// Imported rows still governing their decision (probationary,
    /// graduated, and generation-0-exempt rows alike).
    pub fn rows_active(&self) -> u64 {
        self.imported.len() as u64 + self.graduated
    }

    /// The import validation, once, for the first safepoint after the
    /// import to trace and count.
    pub fn take_import_note(&mut self) -> Option<ProfileValidation> {
        if !std::mem::take(&mut self.pending_note) {
            return None;
        }
        self.validation
    }

    /// One epoch of the confidence-weighted decay, judged on the closing
    /// epoch's OLD-table rows (see the module docs). Released rows leave
    /// `decisions`; graduated rows stay and stop being held.
    pub fn decay(&mut self, table: &OldTable, decisions: &mut BTreeMap<u32, u8>) -> BlendEpoch {
        let mut epoch = BlendEpoch::default();
        let mut released = Vec::new();
        let mut graduated = Vec::new();
        for (&key, conf) in self.imported.iter_mut() {
            // Generation-0 priors are exempt (`is_probationary`).
            if decisions.get(&key).is_none_or(|&g| g == 0) {
                continue;
            }
            let hist = table.histogram(key);
            let allocs = hist[0] as u64;
            let survivals: u64 = hist[1..].iter().map(|&c| c as u64).sum();
            // Too few allocations to expect canaries in the sample: no
            // evidence either way this epoch.
            if allocs < 2 * rolp_vm::CANARY_STRIDE as u64 {
                continue;
            }
            if survivals > 0 {
                *conf = DEFAULT_CONFIDENCE;
                let streak = self.confirm_streak.entry(key).or_insert(0);
                *streak += 1;
                if *streak >= CONFIRMATIONS_TO_GRADUATE {
                    graduated.push(key);
                }
                continue;
            }
            self.confirm_streak.insert(key, 0);
            *conf /= 2;
            epoch.decayed += 1;
            if *conf < CONFIDENCE_FLOOR {
                released.push(key);
            }
        }
        for key in released {
            self.imported.remove(&key);
            self.confirm_streak.remove(&key);
            decisions.remove(&key);
            epoch.released += 1;
        }
        for key in graduated {
            self.imported.remove(&key);
            self.confirm_streak.remove(&key);
            self.graduated += 1;
        }
        self.decays += epoch.decayed;
        self.released += epoch.released;
        epoch.remaining = self.imported.len() as u64;
        epoch
    }
}
