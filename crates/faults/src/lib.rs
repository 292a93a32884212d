//! Deterministic fault injection for the ROLP reproduction.
//!
//! Two pressure scenarios reach the overhead governor (`rolp::governor`):
//! an allocation burst, whose synthetic record-path work pushes the
//! measured profiling overhead over its budget, and the saturation of the
//! 16-bit allocation-site id space the paper's context encoding really
//! has (§7.5). A [`FaultPlan`] describes them as data, so the governor's
//! `Full → Off → Full` walk is reproducible: the same plan injects the
//! same events on every run.
//!
//! The crate is dependency-free and reads no clocks: a plan is pure data,
//! and the profiler asks the [`FaultInjector`] what to inject at each GC
//! cycle.

/// One pressure scenario within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// From `at_cycle` on, the 16-bit allocation-site id space behaves as
    /// exhausted: new hot sites are refused a profile id (§7.5 saturation
    /// path) without allocating 65 535 real sites first.
    SiteIdExhaustion {
        /// GC cycle at which the space saturates.
        at_cycle: u64,
    },
    /// For cycles in `from_cycle..until_cycle`, `events_per_cycle`
    /// synthetic record-path events hit the profiler, priced like
    /// profiled allocations: an allocation burst.
    AllocBurst {
        /// First burst cycle (inclusive).
        from_cycle: u64,
        /// End of the burst (exclusive).
        until_cycle: u64,
        /// Record-path events injected per burst cycle.
        events_per_cycle: u64,
    },
}

/// A named set of pressure scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan name (canned name or `"custom"` for parsed specs).
    pub name: String,
    /// The scenarios to run.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// The canned plans CI smokes; every one must complete without panic.
    pub fn canned_names() -> &'static [&'static str] {
        &["pressure-spike", "id-exhaustion"]
    }

    /// Looks up a canned plan by name.
    pub fn named(name: &str) -> Option<Self> {
        let faults = match name {
            // A burst that subsides. Sized so the measured overhead
            // exceeds its 5% budget at `--scale 256`, driving the
            // governor Full -> Off and, after the burst, back to Full.
            "pressure-spike" => vec![FaultKind::AllocBurst {
                from_cycle: 16,
                until_cycle: 48,
                events_per_cycle: 3_000_000,
            }],
            // Saturate the profile-id space.
            "id-exhaustion" => vec![FaultKind::SiteIdExhaustion { at_cycle: 24 }],
            _ => return None,
        };
        Some(FaultPlan { name: name.into(), faults })
    }

    /// Parses a plan: either a canned name or a `;`-separated list of
    /// fault atoms, `exhaust-ids@<cycle>` and
    /// `burst@<from>..<until>x<events>`, e.g. `exhaust-ids@8;burst@16..64x50000`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(plan) = Self::named(spec.trim()) {
            return Ok(plan);
        }
        let mut plan = FaultPlan { name: "custom".into(), faults: Vec::new() };
        for atom in spec.split(';') {
            let atom = atom.trim();
            if atom.is_empty() {
                continue;
            }
            if let Some(rest) = atom.strip_prefix("exhaust-ids@") {
                plan.faults.push(FaultKind::SiteIdExhaustion { at_cycle: parse_u64(rest, atom)? });
            } else if let Some(rest) = atom.strip_prefix("burst@") {
                let bad = || bad_atom(atom, "expected <from>..<until>x<events>");
                let (range, events) = rest.split_once('x').ok_or_else(bad)?;
                let (from, until) = range.split_once("..").ok_or_else(bad)?;
                plan.faults.push(FaultKind::AllocBurst {
                    from_cycle: parse_u64(from, atom)?,
                    until_cycle: parse_u64(until, atom)?,
                    events_per_cycle: parse_u64(events, atom)?,
                });
            } else {
                return Err(format!(
                    "unknown fault atom '{atom}' (canned plans: {}; atoms: \
                     exhaust-ids@<cycle>, burst@<from>..<until>x<events>)",
                    Self::canned_names().join(", ")
                ));
            }
        }
        Ok(plan)
    }
}

fn parse_u64(s: &str, atom: &str) -> Result<u64, String> {
    s.trim().parse::<u64>().map_err(|_| bad_atom(atom, "not a number"))
}

fn bad_atom(atom: &str, why: &str) -> String {
    format!("bad fault atom '{atom}': {why}")
}

/// What to inject at one GC cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleFaults {
    /// Force the profile-id space exhausted before this cycle's work.
    pub exhaust_site_ids: bool,
    /// Synthetic record-path events to charge to profiling.
    pub burst_events: u64,
}

/// The per-run injector: resolves a [`FaultPlan`] cycle by cycle.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    exhaust_fired: bool,
}

impl FaultInjector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, exhaust_fired: false }
    }

    /// Resolves the plan for GC cycle `cycle`. Exhaustion fires once, at
    /// the first cycle at or past its own; bursts fire on every cycle in
    /// their window.
    pub fn on_cycle(&mut self, cycle: u64) -> CycleFaults {
        let mut out = CycleFaults::default();
        for fault in &self.plan.faults {
            match *fault {
                FaultKind::SiteIdExhaustion { at_cycle } => {
                    if cycle >= at_cycle && !self.exhaust_fired {
                        out.exhaust_site_ids = true;
                        self.exhaust_fired = true;
                    }
                }
                FaultKind::AllocBurst { from_cycle, until_cycle, events_per_cycle } => {
                    if (from_cycle..until_cycle).contains(&cycle) {
                        out.burst_events += events_per_cycle;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_plans_all_resolve() {
        for name in FaultPlan::canned_names() {
            let plan = FaultPlan::named(name).expect("canned plan exists");
            assert_eq!(&plan.name, name);
            assert!(!plan.faults.is_empty());
            // parse() accepts the canned name directly.
            assert_eq!(FaultPlan::parse(name).unwrap(), plan);
        }
        assert!(FaultPlan::named("no-such-plan").is_none());
    }

    #[test]
    fn spec_parses_both_atoms() {
        let plan = FaultPlan::parse("exhaust-ids@32; burst@16..64x50000").unwrap();
        assert_eq!(plan.name, "custom");
        assert_eq!(
            plan.faults,
            vec![
                FaultKind::SiteIdExhaustion { at_cycle: 32 },
                FaultKind::AllocBurst { from_cycle: 16, until_cycle: 64, events_per_cycle: 50000 },
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage_readably() {
        // Unknown atoms and plan names that are not canned.
        for spec in [
            "warp-core@9",
            "seed=7",
            "seed=7;burst@16..64x1000",
            "collide-tss@16=170",
            "flood-rows@8x64",
            "drop-merge%5",
            "delay-merge%3",
            "merge-chaos",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            let atom = spec.split(';').next().unwrap();
            assert!(err.contains(atom), "{spec}: {err}");
            for name in FaultPlan::canned_names() {
                assert!(err.contains(name), "{spec}: error lists canned plans: {err}");
            }
        }
        assert!(FaultPlan::parse("burst@16x5").is_err(), "missing range");
        assert!(FaultPlan::parse("exhaust-ids@x").is_err(), "not a number");
    }

    #[test]
    fn exhaustion_fires_exactly_once() {
        let mut inj = FaultInjector::new(FaultPlan::parse("exhaust-ids@4").unwrap());
        assert!(!inj.on_cycle(3).exhaust_site_ids);
        assert!(inj.on_cycle(4).exhaust_site_ids);
        assert!(!inj.on_cycle(5).exhaust_site_ids, "one-shot: already applied");
    }

    #[test]
    fn burst_window_respects_bounds() {
        let mut inj = FaultInjector::new(FaultPlan::parse("burst@10..12x5").unwrap());
        assert_eq!(inj.on_cycle(9), CycleFaults::default());
        assert_eq!(inj.on_cycle(10).burst_events, 5);
        assert_eq!(inj.on_cycle(11).burst_events, 5);
        assert_eq!(inj.on_cycle(12), CycleFaults::default(), "until is exclusive");
    }
}
