//! Differential property test: [`SharedOldTable`] equals [`OldTable`]
//! when driven single-threaded.
//!
//! The §7.6 race harness measures lost updates as the distance between
//! the shared table and the exact sequential table, so the two must agree
//! exactly when nothing races. This test replays generated streams of the
//! operations the harness performs — site expansions up front, then
//! allocations and survivals — through both tables and compares every
//! touched row and the age-0 total. It runs under Miri: the geometry is
//! small and the vendored proptest RNG is deterministic.

use proptest::prelude::*;
use rolp::context::pack;
use rolp::{OldTable, TableGeometry};
use rolp_bench::SharedOldTable;

/// Small geometry (64 site rows, 16 tss rows) so site ids ≥ 64 and stack
/// states ≥ 16 exercise the masking/aliasing paths, and Miri stays fast.
const SITE_ROWS: usize = 64;
const TSS_ROWS: usize = 16;

fn small_geometry() -> TableGeometry {
    TableGeometry::new(SITE_ROWS, TSS_ROWS)
}

/// One recorded event. Site ids deliberately exceed the 64-row geometry
/// (69 aliases 5, …) and stack states exceed the 16-row blocks.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Alloc { site: u16, tss: u16 },
    Survive { site: u16, tss: u16, age: u8 },
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        4 => (1u16..80, 0u16..24).prop_map(|(site, tss)| Ev::Alloc { site, tss }),
        3 => (1u16..80, 0u16..24, 0u8..16)
            .prop_map(|(site, tss, age)| Ev::Survive { site, tss, age }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// With expansions installed first, as the harness does, both tables
    /// hold the same rows, histograms and age-0 total.
    #[test]
    fn shared_table_matches_old_table_single_threaded(
        expand in prop::collection::vec(1u16..80, 0..4),
        events in prop::collection::vec(ev_strategy(), 0..250),
    ) {
        let mut seq = OldTable::with_geometry(small_geometry());
        let shared = SharedOldTable::with_geometry(small_geometry());
        for &site in &expand {
            seq.expand_site(site);
            shared.expand_site(site);
        }
        for &ev in &events {
            match ev {
                Ev::Alloc { site, tss } => {
                    seq.record_allocation(pack(site, tss));
                    shared.record_allocation(pack(site, tss));
                }
                Ev::Survive { site, tss, age } => {
                    seq.record_survival(pack(site, tss), age);
                    shared.record_survival(pack(site, tss), age);
                }
            }
        }
        let snapshot = shared.snapshot();
        let keys: Vec<u32> = snapshot.keys().copied().collect();
        prop_assert_eq!(&keys, &seq.touched_rows(), "sorted row keys");
        for (&key, &hist) in &snapshot {
            prop_assert_eq!(hist, seq.histogram(key), "histogram for {:#010x}", key);
        }
        prop_assert_eq!(seq.age0_total(), shared.age0_total());

        // The exact age-0 total is also checkable against the stream:
        // allocations add one, survivals at age 0 remove at most one.
        let allocs = events.iter()
            .filter(|e| matches!(e, Ev::Alloc { .. }))
            .count() as u64;
        prop_assert!(seq.age0_total() <= allocs);
    }
}
