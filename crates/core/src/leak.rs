//! Memory-leak detection from lifetime statistics (paper §2.2).
//!
//! The paper notes that ROLP's per-allocation-context lifetime statistics
//! enable additional use-cases, naming leak detection explicitly. Two
//! complementary signals are implemented:
//!
//! 1. *Live-population growth* (primary): each marking pass produces a
//!    census of live objects per allocation context; a context whose live
//!    population grows monotonically across consecutive censuses while it
//!    keeps allocating is the classic "collection that only grows".
//! 2. *Immortal-age pileup* (secondary): a context whose OLD-table window
//!    accumulates objects at the saturated maximum age while fresh
//!    allocations continue.

use std::collections::HashSet;

use rolp_vm::{JitState, Program};

use crate::context::site_of;
use crate::old_table::AGE_COLUMNS;
use crate::profiler::RolpProfiler;

/// Relative growth between consecutive censuses for a context to count as
/// "still growing" (filters noise around stable populations).
const GROWTH_FACTOR: f64 = 1.05;

/// One leak suspect.
#[derive(Debug, Clone)]
pub struct LeakSuspect {
    /// The allocation context.
    pub context: u32,
    /// Source location, `"pkg.Class::method @bci N"`, when resolvable.
    pub location: String,
    /// Live objects at the most recent census.
    pub live_objects: u64,
    /// Live objects at the oldest census in the comparison window.
    pub live_objects_before: u64,
    /// Censuses over which the population grew monotonically.
    pub growing_for: usize,
}

/// A leak report.
#[derive(Debug, Clone, Default)]
pub struct LeakReport {
    /// Suspects, largest live population first.
    pub suspects: Vec<LeakSuspect>,
}

impl LeakReport {
    /// Builds a report from the profiler's recent liveness censuses:
    /// contexts whose live population is at least `min_live` and grew
    /// monotonically across all recorded censuses (at least three) are
    /// suspects. Falls back to the immortal-age heuristic when fewer than
    /// three censuses exist.
    pub fn gather(
        profiler: &RolpProfiler,
        program: &Program,
        jit: &JitState,
        min_live: u64,
    ) -> LeakReport {
        let _ = jit;
        let mut suspects = Vec::new();
        let history = &profiler.liveness_history;

        if history.len() >= 3 {
            let latest = history.back().expect("non-empty");
            let candidates: HashSet<u32> =
                latest.iter().filter(|(_, &n)| n >= min_live).map(|(&c, _)| c).collect();
            for ctx in candidates {
                let series: Vec<u64> =
                    history.iter().map(|h| h.get(&ctx).copied().unwrap_or(0)).collect();
                let growing = series
                    .windows(2)
                    .all(|w| w[1] as f64 >= w[0] as f64 * GROWTH_FACTOR || w[0] == 0);
                if !growing || series[0] == series[series.len() - 1] {
                    continue;
                }
                suspects.push(LeakSuspect {
                    context: ctx,
                    location: Self::locate(profiler, program, ctx),
                    live_objects: *series.last().expect("non-empty"),
                    live_objects_before: series[0],
                    growing_for: series.len(),
                });
            }
        } else {
            // Secondary signal: immortal-age pileup in the current window.
            for key in profiler.old.touched_rows() {
                let hist = profiler.old.histogram(key);
                let immortal = hist[AGE_COLUMNS - 1] as u64;
                if immortal >= min_live && hist[0] > 0 {
                    suspects.push(LeakSuspect {
                        context: key,
                        location: Self::locate(profiler, program, key),
                        live_objects: immortal,
                        live_objects_before: 0,
                        growing_for: 1,
                    });
                }
            }
        }
        suspects.sort_by_key(|s| std::cmp::Reverse(s.live_objects));
        LeakReport { suspects }
    }

    fn locate(profiler: &RolpProfiler, program: &Program, context: u32) -> String {
        let site_id = site_of(context);
        profiler
            .pid_to_site
            .get(&site_id)
            .map(|&s| {
                let decl = program.alloc_site(s);
                format!("{} @bci {}", program.method(decl.method).name, decl.bci)
            })
            .unwrap_or_else(|| format!("<site {site_id}>"))
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        if self.suspects.is_empty() {
            return "no leak suspects".to_string();
        }
        let mut out = String::from("leak suspects (live population growing across GC censuses):\n");
        for s in &self.suspects {
            out.push_str(&format!(
                "  {:<50} {:>9} live (was {:>8} {} censuses ago)\n",
                s.location,
                s.live_objects,
                s.live_objects_before,
                s.growing_for.saturating_sub(1),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::pack;
    use crate::profiler::RolpConfig;
    use rolp_gc::GcHooks;
    use rolp_vm::{JitConfig, ProgramBuilder, ThreadId, VmProfiler};
    use std::collections::HashMap;

    fn census(entries: &[(u32, u64)]) -> HashMap<u32, u64> {
        entries.iter().copied().collect()
    }

    #[test]
    fn growing_context_is_flagged_and_stable_one_is_not() {
        let mut b = ProgramBuilder::new();
        let m = b.method("app.cache.Index::put", 50, false);
        let _site = b.alloc_site(m, 7);
        let program = b.build();
        let mut jit = JitState::new(&program, JitConfig::default());

        let mut p = RolpProfiler::new(RolpConfig::default());
        p.on_jit_compile(&program, &mut jit, m);

        let leak = pack(1, 0);
        let healthy = pack(2, 0);
        p.on_liveness(&census(&[(leak, 1_000), (healthy, 5_000)]));
        p.on_liveness(&census(&[(leak, 2_000), (healthy, 5_100)]));
        p.on_liveness(&census(&[(leak, 3_000), (healthy, 4_900)]));

        let report = LeakReport::gather(&p, &program, &jit, 100);
        assert_eq!(report.suspects.len(), 1);
        let s = &report.suspects[0];
        assert_eq!(s.context, leak);
        assert_eq!(s.live_objects, 3_000);
        assert!(s.location.contains("app.cache.Index::put"));
        assert!(report.render().contains("app.cache.Index::put"));
    }

    #[test]
    fn short_history_falls_back_to_immortal_heuristic() {
        let program = ProgramBuilder::new().build();
        let jit = JitState::new(&program, JitConfig::default());
        let mut p = RolpProfiler::new(RolpConfig::default());
        for _ in 0..50 {
            p.on_alloc(3, 0, ThreadId(0));
        }
        for _ in 0..40 {
            for age in 0..15 {
                p.old.record_survival(pack(3, 0), age);
            }
        }
        let report = LeakReport::gather(&p, &program, &jit, 10);
        assert_eq!(report.suspects.len(), 1);
        assert_eq!(report.suspects[0].live_objects, 40);
    }

    #[test]
    fn empty_history_and_table_report_nothing() {
        let program = ProgramBuilder::new().build();
        let jit = JitState::new(&program, JitConfig::default());
        let p = RolpProfiler::new(RolpConfig::default());
        let report = LeakReport::gather(&p, &program, &jit, 1);
        assert!(report.suspects.is_empty());
        assert_eq!(report.render(), "no leak suspects");
    }

    #[test]
    fn history_is_bounded() {
        let mut p = RolpProfiler::new(RolpConfig::default());
        for i in 0..20u64 {
            p.on_liveness(&census(&[(pack(1, 0), i)]));
        }
        assert!(p.liveness_history.len() <= 6);
    }
}
