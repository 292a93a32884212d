//! Offline decision profiles (POLM2-style warm start).
//!
//! The paper's §10 notes that NG2C (annotations), POLM2 (offline
//! profiling), and ROLP (online profiling) share the same JVM and
//! collector and can be combined. This module is that combination point:
//! a [`DecisionProfile`] captures ROLP's learned state in a
//! run-independent form (keyed by source location, not by the dynamic
//! 16-bit profile ids) so a later run can start pretenuring *immediately*,
//! skipping the warmup the paper measures in Fig. 10 — exactly what an
//! offline profile buys.
//!
//! # The `rolp-profile-v1` on-disk format
//!
//! Line-oriented text, one keyword per line:
//!
//! ```text
//! rolp-profile-v1
//! fingerprint 0123456789abcdef
//! epochs 12
//! geometry 1024 64
//! entries 2
//! decision pkg.Class::method@bci <gen> <confidence>
//! callsite pkg.Caller::m->pkg.Callee::n
//! ```
//!
//! - `fingerprint` — FNV-1a 64 over the program shape (method names,
//!   call-site edges, allocation-site locations). A loader checks it
//!   against [`program_fingerprint`] of the running program; a mismatch
//!   means the profile came from a different program version and entries
//!   are applied only where their location still resolves (partially
//!   applied, counted — see [`ProfileValidation`]).
//! - `epochs` — inference epochs the exporting run completed (how much
//!   evidence backs the profile).
//! - `geometry` — the exporting run's OLD-table shape
//!   (`site_rows tss_rows`), recorded for diagnostics.
//! - `entries` — declared decision count; a truncated file fails to parse
//!   instead of silently importing a prefix.
//! - `decision` — one pretenuring decision with a confidence in
//!   `0..=100`, the starting weight for the importing run's
//!   confidence-weighted decay (see [`crate::warm_start`]).
//! - `callsite` — one frozen distinguishing call site (§5), keyed by
//!   caller and callee method names so the importing run can re-enable
//!   its conflict separation from epoch 0.
//!
//! The version line is mandatory: a file whose first significant line is
//! anything else is rejected with a line-numbered error. Every other
//! header line is optional; a profile without `fingerprint` gets only
//! per-entry location validation.
//!
//! Decisions keyed by a conflicted context (nonzero thread stack state)
//! are not exported — stack-state hashes are not stable across runs (the
//! JIT assigns call-site identifiers randomly); the online profiler
//! re-derives them quickly since the distinguishing call sites *are*
//! exported and re-frozen on import.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use rolp_vm::{AllocSiteId, CallSiteId, JitState, Program};

use crate::context::{site_of, tss_of};
use crate::profiler::RolpProfiler;

/// The current on-disk format version line.
pub const PROFILE_FORMAT_V1: &str = "rolp-profile-v1";

/// Full confidence: what a live-learned row exports at, and what an
/// imported row returns to once live evidence confirms it (see
/// [`crate::warm_start`]).
pub const DEFAULT_CONFIDENCE: u8 = 100;

/// One exported decision: a source location, its target generation, and
/// the confidence (0..=100) the importing run's blend decay starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Method name, e.g. `"cassandra.db.Memtable::insert"`.
    pub method: String,
    /// Bytecode index of the allocation site within the method.
    pub bci: u32,
    /// Target generation (0..=15).
    pub generation: u8,
    /// Confidence weight (0..=100).
    pub confidence: u8,
}

/// One frozen distinguishing call site (§5), keyed by method names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallSiteEntry {
    /// Caller method name.
    pub caller: String,
    /// Callee method name; `None` for virtual call sites with no static
    /// target (serialized as `?`).
    pub callee: Option<String>,
}

/// A run-independent capture of ROLP's learned state: pretenuring
/// decisions, frozen conflict-resolver call sites, and the exporting
/// run's provenance (fingerprint, epoch count, OLD-table geometry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionProfile {
    /// Program-shape fingerprint of the exporting run (`None` when the
    /// file omits the `fingerprint` line).
    pub fingerprint: Option<u64>,
    /// Inference epochs the exporting run completed.
    pub epochs: u64,
    /// OLD-table geometry `(site_rows, tss_rows)` of the exporting run.
    pub geometry: Option<(usize, usize)>,
    /// Entries, sorted by (method, bci) for stable output.
    pub entries: Vec<ProfileEntry>,
    /// Frozen distinguishing call sites, sorted by (caller, callee).
    pub call_sites: Vec<CallSiteEntry>,
}

/// Why parsing a profile failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ProfileParseError {}

/// FNV-1a 64 over the program shape: every method name, every call-site
/// edge, every allocation-site location. Two program versions that moved,
/// added, or removed any of those fingerprint differently.
pub fn program_fingerprint(program: &Program) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        // Field separator so concatenations can't collide.
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    };
    for m in program.methods() {
        mix(b"m");
        mix(program.method(m).name.as_bytes());
    }
    for cs in program.call_sites() {
        let decl = program.call_site(cs);
        mix(b"c");
        mix(program.method(decl.caller).name.as_bytes());
        match decl.callee {
            Some(callee) => mix(program.method(callee).name.as_bytes()),
            None => mix(b"?"),
        }
    }
    for s in program.alloc_sites() {
        let decl = program.alloc_site(s);
        mix(b"a");
        mix(program.method(decl.method).name.as_bytes());
        mix(&decl.bci.to_le_bytes());
    }
    h
}

/// What survived load-time validation of a profile against a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileValidation {
    /// The profile carried a fingerprint (exported profiles do; one
    /// without leaves only per-entry validation).
    pub fingerprint_checked: bool,
    /// The fingerprint matched the running program (meaningful only when
    /// `fingerprint_checked`).
    pub fingerprint_matched: bool,
    /// Decision entries in the profile.
    pub entries_total: usize,
    /// Entries whose location resolved to a live allocation site.
    pub entries_applied: usize,
    /// Entries rejected (no such method/bci in this program).
    pub entries_rejected: usize,
    /// Frozen call sites in the profile.
    pub call_sites_total: usize,
    /// Call sites whose caller→callee edge resolved.
    pub call_sites_applied: usize,
    /// Call sites rejected (edge absent from this program).
    pub call_sites_rejected: usize,
}

impl ProfileValidation {
    /// True when every entry and call site resolved (and the fingerprint,
    /// if present, matched).
    pub fn fully_applied(&self) -> bool {
        self.entries_rejected == 0
            && self.call_sites_rejected == 0
            && (!self.fingerprint_checked || self.fingerprint_matched)
    }

    /// True when nothing in the profile applies to this program — the
    /// partial-apply path degenerated to a rejection.
    pub fn nothing_applied(&self) -> bool {
        self.entries_applied == 0
            && self.call_sites_applied == 0
            && (self.entries_total > 0 || self.call_sites_total > 0)
    }
}

/// A profile resolved against a concrete program.
#[derive(Debug, Clone, Default)]
pub struct ResolvedProfile {
    /// Allocation-site id → (target generation, confidence).
    pub decisions: HashMap<AllocSiteId, (u8, u8)>,
    /// Resolved frozen distinguishing call sites.
    pub call_sites: Vec<CallSiteId>,
    /// What was applied and what was rejected.
    pub validation: ProfileValidation,
}

impl DecisionProfile {
    /// Exports the profiler's current learned state. Only decisions with
    /// a zero thread-stack-state key are portable (see module docs); the
    /// frozen distinguishing call sites that separate the others are
    /// exported by name instead.
    pub fn from_profiler(profiler: &RolpProfiler, program: &Program, jit: &JitState) -> Self {
        let _ = jit;
        let mut entries = Vec::new();
        for (&ctx, &generation) in profiler.decisions() {
            if tss_of(ctx) != 0 {
                continue;
            }
            let Some(&site) = profiler.pid_to_site.get(&site_of(ctx)) else {
                continue;
            };
            let decl = program.alloc_site(site);
            entries.push(ProfileEntry {
                method: program.method(decl.method).name.clone(),
                bci: decl.bci,
                generation,
                confidence: profiler.warm.confidence_of(ctx),
            });
        }
        entries.sort_by(|a, b| (&a.method, a.bci).cmp(&(&b.method, b.bci)));

        let mut call_sites: Vec<CallSiteEntry> = profiler
            .frozen_call_sites()
            .iter()
            .map(|&cs| {
                let decl = program.call_site(cs);
                CallSiteEntry {
                    caller: program.method(decl.caller).name.clone(),
                    callee: decl.callee.map(|m| program.method(m).name.clone()),
                }
            })
            .collect();
        call_sites.sort();
        call_sites.dedup();

        let geometry = {
            let g = profiler.old.geometry();
            Some((g.site_rows(), g.tss_rows()))
        };
        DecisionProfile {
            fingerprint: Some(program_fingerprint(program)),
            epochs: profiler.inferences(),
            geometry,
            entries,
            call_sites,
        }
    }

    /// Resolves the profile against a program with full validation:
    /// fingerprint check, per-entry location matching, and call-site edge
    /// matching. Entries that don't resolve are counted, never applied —
    /// a profile from a different program partially applies (or applies
    /// nothing) instead of silently mis-pretenuring.
    pub fn resolve_validated(&self, program: &Program) -> ResolvedProfile {
        let mut v = ProfileValidation {
            fingerprint_checked: self.fingerprint.is_some(),
            fingerprint_matched: self.fingerprint == Some(program_fingerprint(program)),
            entries_total: self.entries.len(),
            call_sites_total: self.call_sites.len(),
            ..Default::default()
        };

        let by_loc: HashMap<(&str, u32), (u8, u8)> = self
            .entries
            .iter()
            .map(|e| ((e.method.as_str(), e.bci), (e.generation, e.confidence)))
            .collect();
        let mut decisions = HashMap::new();
        for site in program.alloc_sites() {
            let decl = program.alloc_site(site);
            let name = program.method(decl.method).name.as_str();
            if let Some(&(gen, conf)) = by_loc.get(&(name, decl.bci)) {
                decisions.insert(site, (gen, conf));
            }
        }
        // Count per *entry* (duplicates in the program apply one entry to
        // several sites; an entry is applied if any site matched it).
        let applied_locs: std::collections::HashSet<(&str, u32)> = decisions
            .keys()
            .map(|&site| {
                let decl = program.alloc_site(site);
                (program.method(decl.method).name.as_str(), decl.bci)
            })
            .collect();
        for e in &self.entries {
            if applied_locs.contains(&(e.method.as_str(), e.bci)) {
                v.entries_applied += 1;
            } else {
                v.entries_rejected += 1;
            }
        }

        let mut by_edge: HashMap<(&str, Option<&str>), Vec<CallSiteId>> = HashMap::new();
        for cs in program.call_sites() {
            let decl = program.call_site(cs);
            let caller = program.method(decl.caller).name.as_str();
            let callee = decl.callee.map(|m| program.method(m).name.as_str());
            by_edge.entry((caller, callee)).or_default().push(cs);
        }
        let mut call_sites = Vec::new();
        for e in &self.call_sites {
            match by_edge.get(&(e.caller.as_str(), e.callee.as_deref())) {
                Some(ids) => {
                    call_sites.extend_from_slice(ids);
                    v.call_sites_applied += 1;
                }
                None => v.call_sites_rejected += 1,
            }
        }
        call_sites.sort();
        call_sites.dedup();

        ResolvedProfile { decisions, call_sites, validation: v }
    }

    /// Resolves the profile against a program: allocation-site id → target
    /// generation, for sites whose location matches an entry. The
    /// validation-free view of [`DecisionProfile::resolve_validated`].
    pub fn resolve(&self, program: &Program) -> HashMap<AllocSiteId, u8> {
        self.resolve_validated(program)
            .decisions
            .into_iter()
            .map(|(site, (gen, _conf))| (site, gen))
            .collect()
    }

    /// Number of decision entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the profile has no decision entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for DecisionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{PROFILE_FORMAT_V1}")?;
        if let Some(fp) = self.fingerprint {
            writeln!(f, "fingerprint {fp:016x}")?;
        }
        writeln!(f, "epochs {}", self.epochs)?;
        if let Some((site_rows, tss_rows)) = self.geometry {
            writeln!(f, "geometry {site_rows} {tss_rows}")?;
        }
        writeln!(f, "entries {}", self.entries.len())?;
        for e in &self.entries {
            writeln!(f, "decision {}@{} {} {}", e.method, e.bci, e.generation, e.confidence)?;
        }
        for c in &self.call_sites {
            writeln!(f, "callsite {}->{}", c.caller, c.callee.as_deref().unwrap_or("?"))?;
        }
        Ok(())
    }
}

impl FromStr for DecisionProfile {
    type Err = ProfileParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut profile = DecisionProfile::default();
        let mut declared_entries: Option<usize> = None;
        let mut saw_version = false;
        let mut last_line = 0usize;
        for (i, raw) in s.lines().enumerate() {
            last_line = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: String| ProfileParseError { line: i + 1, reason };
            if !saw_version {
                // The first significant line must be the version header.
                if line != PROFILE_FORMAT_V1 {
                    return Err(err(if line.starts_with("rolp-profile-") {
                        format!("unsupported profile version `{line}` (this build reads {PROFILE_FORMAT_V1})")
                    } else {
                        format!("missing `{PROFILE_FORMAT_V1}` header")
                    }));
                }
                saw_version = true;
                continue;
            }
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            match keyword {
                "fingerprint" => {
                    let fp = u64::from_str_radix(rest.trim(), 16)
                        .map_err(|_| err("fingerprint is not a hex number".into()))?;
                    profile.fingerprint = Some(fp);
                }
                "epochs" => {
                    profile.epochs =
                        rest.trim().parse().map_err(|_| err("epochs is not a number".into()))?;
                }
                "geometry" => {
                    let mut it = rest.split_whitespace();
                    let parse_rows = |v: Option<&str>| {
                        v.and_then(|v| v.parse::<usize>().ok())
                            .ok_or_else(|| err("geometry needs two row counts".into()))
                    };
                    let site_rows = parse_rows(it.next())?;
                    let tss_rows = parse_rows(it.next())?;
                    profile.geometry = Some((site_rows, tss_rows));
                }
                "entries" => {
                    declared_entries = Some(
                        rest.trim().parse().map_err(|_| err("entries is not a number".into()))?,
                    );
                }
                "decision" => {
                    let mut it = rest.split_whitespace();
                    let loc = it.next().ok_or_else(|| err("missing location".into()))?;
                    let gen = it.next().ok_or_else(|| err("missing generation".into()))?;
                    let conf = it.next().ok_or_else(|| err("missing confidence".into()))?;
                    if it.next().is_some() {
                        return Err(err("trailing fields after confidence".into()));
                    }
                    let (method, bci) =
                        loc.rsplit_once('@').ok_or_else(|| err("missing @bci".into()))?;
                    let bci: u32 = bci.parse().map_err(|_| err("bci is not a number".into()))?;
                    let generation: u8 =
                        gen.parse().map_err(|_| err("generation is not a number".into()))?;
                    if generation > 15 {
                        return Err(err("generation out of range (0..=15)".into()));
                    }
                    let confidence: u8 =
                        conf.parse().map_err(|_| err("confidence is not a number".into()))?;
                    if confidence > 100 {
                        return Err(err("confidence out of range (0..=100)".into()));
                    }
                    if method.is_empty() {
                        return Err(err("empty method name".into()));
                    }
                    profile.entries.push(ProfileEntry {
                        method: method.to_string(),
                        bci,
                        generation,
                        confidence,
                    });
                }
                "callsite" => {
                    let (caller, callee) =
                        rest.rsplit_once("->").ok_or_else(|| err("missing ->callee".into()))?;
                    if caller.is_empty() || callee.is_empty() {
                        return Err(err("empty caller or callee".into()));
                    }
                    profile.call_sites.push(CallSiteEntry {
                        caller: caller.to_string(),
                        callee: (callee != "?").then(|| callee.to_string()),
                    });
                }
                other => {
                    return Err(err(format!("unknown profile keyword `{other}`")));
                }
            }
        }
        if !saw_version {
            return Err(ProfileParseError {
                line: last_line.max(1),
                reason: format!("empty profile: missing `{PROFILE_FORMAT_V1}` header"),
            });
        }
        if let Some(declared) = declared_entries {
            if profile.entries.len() != declared {
                return Err(ProfileParseError {
                    line: last_line,
                    reason: format!(
                        "truncated profile: header declares {declared} decision(s), found {}",
                        profile.entries.len()
                    ),
                });
            }
        }
        profile.entries.sort_by(|a, b| (&a.method, a.bci).cmp(&(&b.method, b.bci)));
        profile.call_sites.sort();
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_vm::ProgramBuilder;

    fn sample() -> DecisionProfile {
        DecisionProfile {
            fingerprint: Some(0xDEAD_BEEF_1234_5678),
            epochs: 9,
            geometry: Some((1024, 64)),
            entries: vec![
                ProfileEntry { method: "a.B::c".into(), bci: 3, generation: 7, confidence: 100 },
                ProfileEntry { method: "x.Y::z".into(), bci: 11, generation: 15, confidence: 25 },
            ],
            call_sites: vec![
                CallSiteEntry { caller: "a.B::c".into(), callee: Some("x.Y::z".into()) },
                CallSiteEntry { caller: "x.Y::z".into(), callee: None },
            ],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let p = sample();
        let text = p.to_string();
        assert!(text.starts_with(PROFILE_FORMAT_V1), "{text}");
        let back: DecisionProfile = text.parse().expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn headerless_profiles_are_rejected_at_line_1() {
        let err = "a.B::c@3 7\n".parse::<DecisionProfile>().expect_err("no header");
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("missing `rolp-profile-v1` header"), "{err}");
        // Comments and blank lines before the first significant line are
        // skipped; the error names the line that should have been the header.
        let err = "# comment\n\n a.B::c@3 7 \n".parse::<DecisionProfile>().expect_err("no header");
        assert_eq!(err.line, 3);
        let err = "".parse::<DecisionProfile>().expect_err("empty");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let text = "rolp-profile-v1\ndecision a.B::c@3 7 100\nbroken line\n";
        let err = text.parse::<DecisionProfile>().expect_err("must fail");
        assert_eq!(err.line, 3);
        let text2 = "rolp-profile-v1\ndecision a.B::c@3 99 100\n";
        let err2 = text2.parse::<DecisionProfile>().expect_err("must fail");
        assert_eq!(err2.line, 2);
        assert!(err2.reason.contains("out of range"));
    }

    #[test]
    fn v1_parser_rejects_malformed_lines() {
        for (text, needle) in [
            ("rolp-profile-v1\ndecision a.B::c@3 7\n", "missing confidence"),
            ("rolp-profile-v1\ndecision a.B::c@3 7 200\n", "out of range"),
            ("rolp-profile-v1\ndecision a.B::c 7 50\n", "missing @bci"),
            ("rolp-profile-v1\nfingerprint zzz\n", "not a hex number"),
            ("rolp-profile-v1\ngeometry 1024\n", "two row counts"),
            ("rolp-profile-v1\ncallsite a.B::c\n", "missing ->callee"),
            ("rolp-profile-v1\nfrobnicate 3\n", "unknown profile keyword"),
            ("rolp-profile-v2\n", "unsupported profile version"),
        ] {
            let err = text.parse::<DecisionProfile>().expect_err(text);
            assert!(err.reason.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn truncated_profiles_fail_cleanly() {
        let full = sample().to_string();
        // Cut after the header + first decision: the declared count no
        // longer matches.
        let cut: String = full.lines().take(5).map(|l| format!("{l}\n")).collect();
        let err = cut.parse::<DecisionProfile>().expect_err("truncation detected");
        assert!(err.reason.contains("truncated"), "{err}");
    }

    #[test]
    fn fingerprint_is_shape_sensitive() {
        let build = |bci: u32| {
            let mut b = ProgramBuilder::new();
            let m = b.method("a.B::c", 50, false);
            let w = b.method("x.Y::z", 40, false);
            b.call_site(m, w);
            b.alloc_site(m, bci);
            b.build()
        };
        let p1 = build(3);
        let p2 = build(4);
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p1), "deterministic");
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2), "bci moved");
    }

    #[test]
    fn resolve_matches_by_location() {
        let mut b = ProgramBuilder::new();
        let m = b.method("a.B::c", 50, false);
        let hit = b.alloc_site(m, 3);
        let miss = b.alloc_site(m, 4);
        let program = b.build();
        let resolved = sample().resolve(&program);
        assert_eq!(resolved.get(&hit), Some(&7));
        assert_eq!(resolved.get(&miss), None);
    }

    #[test]
    fn validation_counts_partial_application() {
        let mut b = ProgramBuilder::new();
        let m = b.method("a.B::c", 50, false);
        let w = b.method("x.Y::z", 40, false);
        b.call_site(m, w);
        let hit = b.alloc_site(m, 3);
        let program = b.build();

        let resolved = sample().resolve_validated(&program);
        let v = resolved.validation;
        assert!(v.fingerprint_checked);
        assert!(!v.fingerprint_matched, "sample fingerprint is synthetic");
        assert_eq!(v.entries_total, 2);
        assert_eq!(v.entries_applied, 1, "only a.B::c@3 resolves");
        assert_eq!(v.entries_rejected, 1);
        assert_eq!(v.call_sites_applied, 1, "a.B::c -> x.Y::z resolves");
        assert_eq!(v.call_sites_rejected, 1, "the virtual x.Y::z edge does not");
        assert_eq!(resolved.decisions.get(&hit), Some(&(7, 100)));
        assert_eq!(resolved.call_sites.len(), 1);
        assert!(!v.fully_applied());
        assert!(!v.nothing_applied());
    }

    #[test]
    fn foreign_profile_applies_nothing() {
        let mut b = ProgramBuilder::new();
        let m = b.method("other.Program::main", 50, false);
        b.alloc_site(m, 1);
        let program = b.build();
        let resolved = sample().resolve_validated(&program);
        assert!(resolved.validation.nothing_applied());
        assert!(resolved.decisions.is_empty());
        assert!(resolved.call_sites.is_empty());
    }
}
