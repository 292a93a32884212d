//! Model check for the safepoint merge protocol (worker publish →
//! coordinator merge → slot reset), run by the `loom` CI job:
//!
//! ```sh
//! cargo test -p rolp --features loom --test loom_merge
//! ```
//!
//! Under `--features loom`, [`rolp::PublishSlot`] is compiled against the
//! (vendored) loom primitives, so every atomic op inside the protocol is
//! a schedule point and the cell access is tracked for races across the
//! seeded interleavings `loom::model` explores.
#![cfg(feature = "loom")]

use std::sync::Arc;

use rolp::{merge_worker_tables, LifetimeTable, OldTable, PublishSlot, WorkerTable};

#[test]
fn loom_safepoint_merge_protocol() {
    loom::model(|| {
        let slots: Arc<Vec<PublishSlot<WorkerTable>>> =
            Arc::new((0..2).map(|_| PublishSlot::new()).collect());

        // Two GC pauses back to back, so the check also covers slot
        // *reuse* after the coordinator's reset.
        for round in 0..2u32 {
            let producers: Vec<_> = (0..2u32)
                .map(|w| {
                    let slots = Arc::clone(&slots);
                    loom::thread::spawn(move || {
                        let mut private = WorkerTable::new();
                        // Worker w records survivals for its own context.
                        private.record_survival(rolp::context::pack(1 + w as u16, 0), round as u8);
                        private.record_survival(rolp::context::pack(1 + w as u16, 0), round as u8);
                        slots[w as usize].publish(private);
                    })
                })
                .collect();

            // Coordinator: spin on each slot, as the safepoint does.
            let mut workers: Vec<WorkerTable> = slots
                .iter()
                .map(|slot| loop {
                    if let Some(table) = slot.try_take() {
                        break table;
                    }
                    loom::thread::yield_now();
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }

            let mut global = OldTable::new();
            for w in 0..2u16 {
                global.record_allocation(rolp::context::pack(1 + w, 0));
                global.record_allocation(rolp::context::pack(1 + w, 0));
            }
            let summary = merge_worker_tables(&mut workers, &mut global);
            assert_eq!(summary.total, 4, "all published records must merge");
            assert_eq!(summary.per_worker, vec![2, 2]);
            for w in 0..2u16 {
                let h = global.histogram(rolp::context::pack(1 + w, 0));
                assert_eq!(h[round as usize + 1], 2, "both survivals visible after merge");
            }
            // Slots must have reset for the next pause.
            assert!(slots.iter().all(|s| !s.is_ready()));
        }
    });
}
