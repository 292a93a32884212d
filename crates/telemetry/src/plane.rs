//! The telemetry plane: one cell block, attribution spans, snapshot
//! publication.
//!
//! The runtime multiplexes every guest thread on one OS thread, so the
//! plane is plain single-threaded state behind an `Rc`: `Cell` counters,
//! one `RefCell<Histogram>` per series, and an `Rc` snapshot history.
//! None of it is `Send` or `Sync`, so the compiler rejects any
//! cross-thread use. Every `RefCell` borrow starts and ends inside one
//! plane method with no call-out while it is held, so a drop guard that
//! publishes during a panic (the CLI's crash flush) never meets a live
//! borrow.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use rolp_metrics::Histogram;

use crate::bucket::{Bucket, CounterId, GaugeId, HistId};
use crate::snapshot::MetricsSnapshot;

/// The run's cumulative metric cells: time per bucket, event counters
/// and one histogram per series.
pub struct Cells {
    time_ns: [Cell<u64>; Bucket::COUNT],
    counters: [Cell<u64>; CounterId::COUNT],
    histograms: [RefCell<Histogram>; HistId::COUNT],
}

impl Cells {
    fn new() -> Self {
        Cells {
            time_ns: Default::default(),
            counters: Default::default(),
            histograms: Default::default(),
        }
    }

    /// Time attributed to `bucket` so far.
    pub fn time(&self, bucket: Bucket) -> u64 {
        self.time_ns[bucket.index()].get()
    }

    /// Current value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()].get()
    }
}

impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: u64 = Bucket::ALL.iter().map(|&b| self.time(b)).sum();
        f.debug_struct("Cells").field("attributed_ns", &total).finish()
    }
}

struct Plane {
    current: Cell<Bucket>,
    cells: Cells,
    gauges: [Cell<u64>; GaugeId::COUNT],
    /// Every published snapshot, oldest first; entry `v` is version `v`.
    history: RefCell<Vec<Rc<MetricsSnapshot>>>,
}

/// The per-run telemetry handle. Clones share one plane.
///
/// Records into the cells (attributed time, counters, histograms),
/// holds the gauges and the current attribution bucket, and publishes
/// immutable, versioned [`MetricsSnapshot`]s. Every published snapshot
/// is kept: `--metrics-out` and the crash guard export the whole
/// history.
#[derive(Clone)]
pub struct Telemetry {
    plane: Rc<Plane>,
}

impl Telemetry {
    /// A fresh plane whose history holds the empty version-0 snapshot.
    pub fn new() -> Self {
        Telemetry {
            plane: Rc::new(Plane {
                current: Cell::new(Bucket::MutatorApp),
                cells: Cells::new(),
                gauges: Default::default(),
                history: RefCell::new(vec![Rc::new(MetricsSnapshot::empty())]),
            }),
        }
    }

    /// The live cells (read without a publish).
    pub fn cells(&self) -> &Cells {
        &self.plane.cells
    }

    /// The bucket charges are currently attributed to.
    pub fn current(&self) -> Bucket {
        self.plane.current.get()
    }

    /// Opens an attribution span: charges land in `bucket` until the
    /// returned guard drops (which restores the previous bucket).
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, bucket: Bucket) -> SpanGuard {
        let prev = self.plane.current.replace(bucket);
        SpanGuard { plane: Rc::clone(&self.plane), prev }
    }

    /// Attributes `ns` to the current bucket (the `VmEnv::charge` hook).
    #[inline]
    pub fn on_charge(&self, ns: u64) {
        self.add(self.current(), ns);
    }

    /// Attributes `ns` directly to `bucket`, bypassing the current span
    /// (pause decomposition, idle time, modeled profiler stages).
    #[inline]
    pub fn add(&self, bucket: Bucket, ns: u64) {
        let cell = &self.plane.cells.time_ns[bucket.index()];
        cell.set(cell.get() + ns);
    }

    /// Increments counter `id` by `n`.
    #[inline]
    pub fn bump(&self, id: CounterId, n: u64) {
        let cell = &self.plane.cells.counters[id.index()];
        cell.set(cell.get() + n);
    }

    /// Records `value` into histogram series `id`.
    #[inline]
    pub fn record(&self, id: HistId, value: u64) {
        self.plane.cells.histograms[id.index()].borrow_mut().record(value);
    }

    /// Sets gauge `id` to `value` (last write wins).
    pub fn set_gauge(&self, id: GaugeId, value: u64) {
        self.plane.gauges[id.index()].set(value);
    }

    /// Current value of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.plane.gauges[id.index()].get()
    }

    /// Copies the cells and gauges into the next snapshot, stamped
    /// `at_ns`, appends it to the history and returns it.
    pub fn publish(&self, at_ns: u64) -> Rc<MetricsSnapshot> {
        let plane = &*self.plane;
        let cells = &plane.cells;
        let version = plane.history.borrow().len() as u64;
        let snapshot = Rc::new(MetricsSnapshot::assemble(
            version,
            at_ns,
            std::array::from_fn(|i| cells.time_ns[i].get()),
            std::array::from_fn(|i| cells.counters[i].get()),
            std::array::from_fn(|i| plane.gauges[i].get()),
            cells.histograms.iter().map(|h| h.borrow().clone()).collect(),
        ));
        plane.history.borrow_mut().push(Rc::clone(&snapshot));
        snapshot
    }

    /// The current (last published) snapshot. A held snapshot never
    /// changes; later publishes append new ones.
    pub fn load(&self) -> Rc<MetricsSnapshot> {
        Rc::clone(self.plane.history.borrow().last().expect("history never empty"))
    }

    /// Every published snapshot, oldest first (including the initial
    /// empty one).
    pub fn history(&self) -> Vec<Rc<MetricsSnapshot>> {
        self.plane.history.borrow().clone()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("current", &self.current())
            .field("cells", self.cells())
            .finish()
    }
}

/// Restores the previous attribution bucket when dropped.
pub struct SpanGuard {
    plane: Rc<Plane>,
    prev: Bucket,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.plane.current.set(self.prev);
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard").field("restores", &self.prev).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_land_in_the_current_bucket() {
        let t = Telemetry::new();
        t.on_charge(100);
        {
            let _g = t.span(Bucket::MutatorProfiling);
            t.on_charge(30);
        }
        t.on_charge(5);
        assert_eq!(t.cells().time(Bucket::MutatorApp), 105);
        assert_eq!(t.cells().time(Bucket::MutatorProfiling), 30);
    }

    #[test]
    fn spans_nest_and_restore() {
        let t = Telemetry::new();
        assert_eq!(t.current(), Bucket::MutatorApp);
        {
            let _outer = t.span(Bucket::JitCompile);
            assert_eq!(t.current(), Bucket::JitCompile);
            {
                let _inner = t.span(Bucket::MutatorProfiling);
                assert_eq!(t.current(), Bucket::MutatorProfiling);
            }
            assert_eq!(t.current(), Bucket::JitCompile);
        }
        assert_eq!(t.current(), Bucket::MutatorApp);
    }

    #[test]
    fn guard_restores_on_panic() {
        let t = Telemetry::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = t.span(Bucket::GcMark);
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(t.current(), Bucket::MutatorApp, "guard restored during unwind");
    }

    #[test]
    fn publish_copies_cells_and_gauges() {
        let t = Telemetry::new();
        t.add(Bucket::MutatorApp, 150);
        t.add(Bucket::GcMark, 7);
        t.bump(CounterId::GcPauses, 3);
        t.record(HistId::GcPauseNs, 10);
        t.record(HistId::GcPauseNs, 1_000);
        t.set_gauge(GaugeId::DecisionVersion, 4);

        let s = t.publish(99);
        assert_eq!(s.version(), 1);
        assert_eq!(s.at_ns(), 99);
        assert_eq!(s.time(Bucket::MutatorApp), 150);
        assert_eq!(s.time(Bucket::GcMark), 7);
        assert_eq!(s.counter(CounterId::GcPauses), 3);
        assert_eq!(s.gauge(GaugeId::DecisionVersion), 4);
        let h = s.histogram(HistId::GcPauseNs);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000);
    }

    #[test]
    fn publish_versions_are_monotonic_and_cumulative() {
        let t = Telemetry::new();
        t.add(Bucket::MutatorApp, 10);
        assert_eq!(t.publish(1).version(), 1);
        t.add(Bucket::MutatorApp, 5);
        assert_eq!(t.publish(2).version(), 2);
        // Cells are cumulative, so later snapshots contain earlier time.
        assert_eq!(t.load().time(Bucket::MutatorApp), 15);
        let history = t.history();
        assert_eq!(history.len(), 3);
        assert_eq!(history[1].time(Bucket::MutatorApp), 10);
    }

    #[test]
    fn held_snapshot_is_unchanged_by_a_later_publish() {
        let t = Telemetry::new();
        t.add(Bucket::MutatorApp, 9_000);
        let held = t.publish(1);
        t.add(Bucket::MutatorApp, 1);
        t.set_gauge(GaugeId::HeapUsedBytes, 7);
        t.publish(2);
        assert_eq!(held.version(), 1);
        assert_eq!(held.time(Bucket::MutatorApp), 9_000);
        assert_eq!(held.gauge(GaugeId::HeapUsedBytes), 0);
        assert_eq!(t.load().version(), 2);
        assert_eq!(t.load().time(Bucket::MutatorApp), 9_001);
    }

    #[test]
    fn cells_read_live_without_publish() {
        let t = Telemetry::new();
        t.add(Bucket::MutatorProfiling, 42);
        assert_eq!(t.cells().time(Bucket::MutatorProfiling), 42);
        assert_eq!(t.load().version(), 0, "no publish happened");
    }
}
