//! Per-request latency accounting with coordinated-omission correction
//! and hierarchical decomposition.
//!
//! Every request is charged from its *intended* start (the open-loop
//! schedule's timestamp), not its actual start: when a GC pause stalls
//! the server, every request whose intended arrival fell during or after
//! the stall inherits the queueing delay. Recording only service time
//! (actual start to completion) would hide exactly the tail the paper
//! targets — the classic coordinated-omission mistake.
//!
//! The service time of each request is further decomposed from the
//! telemetry plane's time buckets: the first nine [`Bucket`]s partition
//! clock-backed time exactly (an invariant `rolp-telemetry` tests), so
//! the per-request bucket deltas must sum to the request's service wall
//! time — `scripts/slo_gate.py` enforces this end to end.

use rolp_metrics::{Histogram, SimTime};
use rolp_telemetry::{Bucket, Cells};

/// Coordinated-omission-corrected latency: completion minus *intended*
/// start. This is what SLO attainment is measured against.
pub fn corrected_latency_ns(intended: SimTime, completion: SimTime) -> u64 {
    completion.saturating_sub(intended).as_nanos()
}

/// Queueing delay: how late the request actually started.
pub fn queue_delay_ns(intended: SimTime, actual_start: SimTime) -> u64 {
    actual_start.saturating_sub(intended).as_nanos()
}

/// A snapshot of the clock-backed time buckets, taken immediately before
/// a request runs so the post-request deltas decompose its service time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketSnapshot {
    times: [u64; Bucket::COUNT],
}

impl BucketSnapshot {
    /// Captures the current cumulative per-bucket times.
    pub fn capture(cells: &Cells) -> Self {
        let mut times = [0u64; Bucket::COUNT];
        for b in Bucket::ALL {
            times[b.index()] = cells.time(b);
        }
        BucketSnapshot { times }
    }

    /// The decomposition of the time elapsed since this snapshot.
    pub fn delta(&self, cells: &Cells) -> Decomposition {
        let d = |b: Bucket| cells.time(b) - self.times[b.index()];
        Decomposition {
            app_ns: d(Bucket::MutatorApp),
            gc_ns: d(Bucket::GcMark) + d(Bucket::GcEvac) + d(Bucket::GcRemset) + d(Bucket::GcOther),
            profiler_ns: d(Bucket::MutatorProfiling) + d(Bucket::GcProfiling),
            jit_ns: d(Bucket::JitCompile),
            idle_ns: d(Bucket::Idle),
        }
    }
}

/// One request's service time split by mechanism. `gc_ns` is
/// stop-the-world pause time, `profiler_ns` is ROLP's own footprint
/// (mutator-side profiling instructions + GC-side survivor tracking).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decomposition {
    /// Guest computation (the application itself).
    pub app_ns: u64,
    /// Stop-the-world GC pause time (mark + evacuate + remset + other).
    pub gc_ns: u64,
    /// Profiler stall time (mutator profiling + GC survivor tracking).
    pub profiler_ns: u64,
    /// JIT compilation charged to the request.
    pub jit_ns: u64,
    /// Idle time (should be 0 inside a request; pacing happens between).
    pub idle_ns: u64,
}

impl Decomposition {
    /// Total decomposed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.app_ns + self.gc_ns + self.profiler_ns + self.jit_ns + self.idle_ns
    }

    /// Accumulates another decomposition into this one.
    pub fn accumulate(&mut self, other: &Decomposition) {
        self.app_ns += other.app_ns;
        self.gc_ns += other.gc_ns;
        self.profiler_ns += other.profiler_ns;
        self.jit_ns += other.jit_ns;
        self.idle_ns += other.idle_ns;
    }
}

/// Aggregated latency statistics for one serving run.
#[derive(Debug)]
pub struct LatencyRecorder {
    /// Corrected latency (completion - intended), the SLO series.
    corrected: Histogram,
    /// Service time (completion - actual start).
    service: Histogram,
    /// Queueing delay (actual start - intended).
    queue: Histogram,
    /// SLO thresholds, ascending, in nanoseconds.
    slo_ns: Vec<u64>,
    /// Exact count of requests meeting each threshold.
    slo_hits: Vec<u64>,
    total: u64,
    /// Exact sums for the decomposition-vs-wall invariant.
    service_wall_ns: u128,
    decomposed: Decomposition,
    decomposed_ns: u128,
}

impl LatencyRecorder {
    /// A recorder gating against the given SLO thresholds (milliseconds).
    pub fn new(slo_ms: &[f64]) -> Self {
        let mut slo_ns: Vec<u64> = slo_ms.iter().map(|ms| (ms * 1e6) as u64).collect();
        slo_ns.sort_unstable();
        let n = slo_ns.len();
        LatencyRecorder {
            corrected: Histogram::new(),
            service: Histogram::new(),
            queue: Histogram::new(),
            slo_ns,
            slo_hits: vec![0; n],
            total: 0,
            service_wall_ns: 0,
            decomposed: Decomposition::default(),
            decomposed_ns: 0,
        }
    }

    /// Records one completed request.
    pub fn record(
        &mut self,
        intended: SimTime,
        actual_start: SimTime,
        completion: SimTime,
        decomp: &Decomposition,
    ) {
        let corrected = corrected_latency_ns(intended, completion);
        let service = completion.saturating_sub(actual_start).as_nanos();
        self.corrected.record(corrected);
        self.service.record(service);
        self.queue.record(queue_delay_ns(intended, actual_start));
        for (i, &t) in self.slo_ns.iter().enumerate() {
            if corrected <= t {
                self.slo_hits[i] += 1;
            }
        }
        self.total += 1;
        self.service_wall_ns += service as u128;
        self.decomposed.accumulate(decomp);
        self.decomposed_ns += decomp.total_ns() as u128;
    }

    /// Requests recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The corrected-latency histogram (SLO series).
    pub fn corrected(&self) -> &Histogram {
        &self.corrected
    }

    /// The service-time histogram.
    pub fn service(&self) -> &Histogram {
        &self.service
    }

    /// The queueing-delay histogram.
    pub fn queue(&self) -> &Histogram {
        &self.queue
    }

    /// `(threshold_ns, hits, attainment)` per configured SLO, ascending.
    pub fn attainment(&self) -> Vec<(u64, u64, f64)> {
        self.slo_ns
            .iter()
            .zip(&self.slo_hits)
            .map(|(&t, &h)| {
                let frac = if self.total == 0 { 1.0 } else { h as f64 / self.total as f64 };
                (t, h, frac)
            })
            .collect()
    }

    /// Requests that missed the tightest (first) SLO threshold.
    pub fn primary_misses(&self) -> u64 {
        if self.slo_hits.is_empty() {
            0
        } else {
            self.total - self.slo_hits[0]
        }
    }

    /// Total service wall time across requests, nanoseconds.
    pub fn service_wall_ns(&self) -> u128 {
        self.service_wall_ns
    }

    /// Accumulated decomposition across requests.
    pub fn decomposed(&self) -> &Decomposition {
        &self.decomposed
    }

    /// Total decomposed nanoseconds across requests. The serve gate
    /// asserts this equals [`LatencyRecorder::service_wall_ns`] within
    /// tolerance (the telemetry plane's partition invariant, observed
    /// per request end to end).
    pub fn decomposed_ns(&self) -> u128 {
        self.decomposed_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn corrected_latency_charges_from_intended_start() {
        // Request intended at 100ms, started at 140ms (queued behind a
        // pause), finished at 141ms: service is 1ms, corrected is 41ms.
        assert_eq!(corrected_latency_ns(t(100), t(141)), 41_000_000);
        assert_eq!(queue_delay_ns(t(100), t(140)), 40_000_000);
        // An on-time request has zero queueing delay.
        assert_eq!(queue_delay_ns(t(100), t(100)), 0);
    }

    /// The canonical coordinated-omission scenario: a server that
    /// answers instantly except for one 100ms stall. Uncorrected
    /// (service-time) percentiles see a single slow request;
    /// corrected percentiles see every request scheduled during the
    /// stall inherit its share of the delay.
    #[test]
    fn stalled_server_inflates_corrected_tail_but_not_service_tail() {
        let mut rec = LatencyRecorder::new(&[10.0]);
        let d = Decomposition::default();
        // 1000 requests intended 1ms apart. The server stalls from
        // t=500ms to t=600ms; requests intended in [500,600) all start
        // at 600ms and complete instantly.
        for i in 0..1_000u64 {
            let intended = SimTime::from_millis(i);
            let actual = if (500..600).contains(&i) { t(600) } else { intended };
            let completion = actual + SimTime::from_micros(10);
            rec.record(intended, actual, completion, &d);
        }
        // Service time is flat: every request took 10us of service.
        assert!(rec.service().percentile(99.0) < 1_000_000);
        // Corrected p95: 10% of requests carry up to 100ms of queueing,
        // so the p95 lands well above the service tail...
        let p95 = rec.corrected().percentile(95.0);
        assert!(p95 > 10_000_000, "corrected p95 {p95}ns should exceed 10ms");
        // ...and attainment against the 10ms SLO reflects the late
        // requests, not the single stall: i in [500, 590] have corrected
        // latency (600-i)ms + 10us > 10ms — 91 misses.
        let (_, hits, frac) = rec.attainment()[0];
        assert_eq!(rec.total() - hits, 91, "requests queued > 10ms miss the SLO");
        assert!((0.90..0.92).contains(&frac), "attainment {frac}");
        assert_eq!(rec.primary_misses(), 91);
    }

    #[test]
    fn attainment_is_exact_per_threshold() {
        let mut rec = LatencyRecorder::new(&[1.0, 10.0]);
        let d = Decomposition::default();
        // Latencies: 0.5ms, 5ms, 50ms.
        for ms in [0u64, 4, 49] {
            let intended = SimTime::ZERO;
            rec.record(intended, intended, t(ms) + SimTime::from_micros(500), &d);
        }
        let att = rec.attainment();
        assert_eq!(att[0].0, 1_000_000);
        assert_eq!(att[0].1, 1, "one request under 1ms");
        assert_eq!(att[1].1, 2, "two requests under 10ms");
        assert_eq!(rec.primary_misses(), 2);
    }

    #[test]
    fn decomposition_sums_and_accumulates() {
        let a = Decomposition { app_ns: 5, gc_ns: 3, profiler_ns: 2, jit_ns: 1, idle_ns: 0 };
        assert_eq!(a.total_ns(), 11);
        let mut acc = Decomposition::default();
        acc.accumulate(&a);
        acc.accumulate(&a);
        assert_eq!(acc.total_ns(), 22);
        assert_eq!(acc.gc_ns, 6);
    }

    #[test]
    fn bucket_snapshot_decomposes_deltas() {
        use rolp_telemetry::Telemetry;
        let tel = Telemetry::new();
        tel.add(Bucket::MutatorApp, 100);
        let snap = BucketSnapshot::capture(tel.cells());
        tel.add(Bucket::MutatorApp, 40);
        tel.add(Bucket::GcEvac, 25);
        tel.add(Bucket::GcMark, 5);
        tel.add(Bucket::MutatorProfiling, 7);
        let d = snap.delta(tel.cells());
        assert_eq!(d.app_ns, 40, "pre-snapshot time excluded");
        assert_eq!(d.gc_ns, 30);
        assert_eq!(d.profiler_ns, 7);
        assert_eq!(d.total_ns(), 77);
    }

    #[test]
    fn tlab_refill_stalls_decompose_into_gc_not_app() {
        // The allocation fast path charges TLAB refill stalls to
        // `Bucket::GcOther` (see `rolp-gc`'s refill charging): a
        // per-request decomposition spanning a refill must report the
        // stall under `gc_ns`, never `app_ns`, while the sum-to-wall
        // partition stays exact.
        use rolp_telemetry::Telemetry;
        let tel = Telemetry::new();
        let snap = BucketSnapshot::capture(tel.cells());
        tel.add(Bucket::MutatorApp, 500);
        tel.add(Bucket::GcOther, 160); // a mid-request refill stall
        let d = snap.delta(tel.cells());
        assert_eq!(d.app_ns, 500, "app time excludes the refill stall");
        assert_eq!(d.gc_ns, 160, "the refill stall is GC/profiler overhead");
        assert_eq!(d.total_ns(), 660, "partition stays exact");
    }
}
