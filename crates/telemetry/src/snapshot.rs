//! Immutable, versioned metric snapshots and their renderers.
//!
//! A [`MetricsSnapshot`] is a copy of the telemetry cells and gauges at
//! one point in simulated time ([`crate::Telemetry::publish`]).

use rolp_metrics::Histogram;
use rolp_trace::json::JsonObject;

use crate::bucket::{Bucket, CounterId, GaugeId, HistId};

/// The quantiles exported per histogram series (JSONL and Prometheus).
pub const EXPORT_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// An immutable copy of the cells and gauges at one point in simulated
/// time.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    version: u64,
    at_ns: u64,
    time_ns: [u64; Bucket::COUNT],
    counters: [u64; CounterId::COUNT],
    gauges: [u64; GaugeId::COUNT],
    histograms: Vec<Histogram>,
}

impl MetricsSnapshot {
    /// The empty version-0 snapshot every history starts from.
    pub fn empty() -> Self {
        MetricsSnapshot {
            version: 0,
            at_ns: 0,
            time_ns: [0; Bucket::COUNT],
            counters: [0; CounterId::COUNT],
            gauges: [0; GaugeId::COUNT],
            histograms: (0..HistId::COUNT).map(|_| Histogram::new()).collect(),
        }
    }

    /// Assembles a snapshot from copied cell state (plane-side).
    pub(crate) fn assemble(
        version: u64,
        at_ns: u64,
        time_ns: [u64; Bucket::COUNT],
        counters: [u64; CounterId::COUNT],
        gauges: [u64; GaugeId::COUNT],
        histograms: Vec<Histogram>,
    ) -> Self {
        assert_eq!(histograms.len(), HistId::COUNT);
        MetricsSnapshot { version, at_ns, time_ns, counters, gauges, histograms }
    }

    /// The snapshot's version (0 = initial empty snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Simulated time the snapshot was taken at, nanoseconds.
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// Time attributed to `bucket`, nanoseconds.
    pub fn time(&self, bucket: Bucket) -> u64 {
        self.time_ns[bucket.index()]
    }

    /// Value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Value of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.index()]
    }

    /// The histogram for series `id`.
    pub fn histogram(&self, id: HistId) -> &Histogram {
        &self.histograms[id.index()]
    }

    /// Clock-backed time attributed so far: every bucket except the
    /// modeled profiler stages. Equals the simulated clock reading when
    /// all charge sites are instrumented.
    pub fn clock_backed_ns(&self) -> u64 {
        Bucket::ALL.iter().filter(|b| !b.is_modeled()).map(|&b| self.time(b)).sum()
    }

    /// Busy mutator time: application work + profiling instructions +
    /// JIT compiles (idle and pause time excluded).
    pub fn busy_mutator_ns(&self) -> u64 {
        self.time(Bucket::MutatorApp)
            + self.time(Bucket::MutatorProfiling)
            + self.time(Bucket::JitCompile)
    }

    /// Self-measured profiler overhead: the fraction of busy mutator
    /// time spent executing profiling instructions. This is the metric
    /// the paper's ~5% claim is about (§8.3) and the overhead signal the
    /// governor meters. 0.0 when no mutator time has been attributed yet.
    pub fn profiling_overhead(&self) -> f64 {
        let busy = self.busy_mutator_ns();
        if busy == 0 {
            return 0.0;
        }
        self.time(Bucket::MutatorProfiling) as f64 / busy as f64
    }

    /// Renders the snapshot as one flat JSON object (a JSONL stream row).
    ///
    /// All values are scalar, so any JSON reader takes the row as one flat
    /// object.
    pub fn to_jsonl(&self) -> String {
        let mut obj = JsonObject::new();
        obj.str("schema", "rolp-metrics-v1")
            .u64("version", self.version)
            .u64("at_ns", self.at_ns)
            .u64("busy_mutator_ns", self.busy_mutator_ns())
            .f64("profiling_overhead", self.profiling_overhead());
        for b in Bucket::ALL {
            obj.u64(&format!("time_{}_ns", b.label()), self.time(b));
        }
        for c in CounterId::ALL {
            obj.u64(&format!("count_{}", c.label()), self.counter(c));
        }
        for g in GaugeId::ALL {
            obj.u64(g.label(), self.gauge(g));
        }
        for h in HistId::ALL {
            let hist = self.histogram(h);
            obj.u64(&format!("{}_count", h.label()), hist.count());
            for q in EXPORT_QUANTILES {
                let key = format!("{}_p{}", h.label(), (q * 100.0) as u32);
                obj.u64(&key, hist.value_at_quantile(q));
            }
            obj.u64(&format!("{}_max", h.label()), hist.max());
        }
        obj.finish()
    }

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP rolp_time_ns Simulated time attributed per bucket.\n");
        out.push_str("# TYPE rolp_time_ns counter\n");
        for b in Bucket::ALL {
            out.push_str(&format!("rolp_time_ns{{bucket=\"{}\"}} {}\n", b.label(), self.time(b)));
        }
        out.push_str("# HELP rolp_events_total Monotonic event counts.\n");
        out.push_str("# TYPE rolp_events_total counter\n");
        for c in CounterId::ALL {
            out.push_str(&format!(
                "rolp_events_total{{event=\"{}\"}} {}\n",
                c.label(),
                self.counter(c)
            ));
        }
        for g in GaugeId::ALL {
            out.push_str(&format!("# TYPE rolp_{} gauge\n", g.label()));
            out.push_str(&format!("rolp_{} {}\n", g.label(), self.gauge(g)));
        }
        out.push_str("# HELP rolp_profiling_overhead Self-measured profiler overhead fraction.\n");
        out.push_str("# TYPE rolp_profiling_overhead gauge\n");
        out.push_str(&format!("rolp_profiling_overhead {}\n", self.profiling_overhead()));
        for h in HistId::ALL {
            let hist = self.histogram(h);
            out.push_str(&format!("# TYPE rolp_{} summary\n", h.label()));
            for q in EXPORT_QUANTILES {
                out.push_str(&format!(
                    "rolp_{}{{quantile=\"{}\"}} {}\n",
                    h.label(),
                    q,
                    hist.value_at_quantile(q)
                ));
            }
            out.push_str(&format!("rolp_{}_sum {}\n", h.label(), hist.sum()));
            out.push_str(&format!("rolp_{}_count {}\n", h.label(), hist.count()));
        }
        out.push_str(&format!("rolp_snapshot_version {}\n", self.version));
        out.push_str(&format!("rolp_snapshot_at_ns {}\n", self.at_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut time = [0u64; Bucket::COUNT];
        time[Bucket::MutatorApp.index()] = 9_000;
        time[Bucket::MutatorProfiling.index()] = 500;
        time[Bucket::JitCompile.index()] = 500;
        time[Bucket::GcEvac.index()] = 2_000;
        let mut counters = [0u64; CounterId::COUNT];
        counters[CounterId::JitCompiles.index()] = 3;
        let mut gauges = [0u64; GaugeId::COUNT];
        gauges[GaugeId::HeapUsedBytes.index()] = 4096;
        let mut hists: Vec<Histogram> = (0..HistId::COUNT).map(|_| Histogram::new()).collect();
        hists[HistId::GcPauseNs.index()].record(1_000_000);
        MetricsSnapshot::assemble(7, 12_000, time, counters, gauges, hists)
    }

    #[test]
    fn overhead_is_profiling_share_of_busy_mutator_time() {
        let s = sample();
        assert_eq!(s.busy_mutator_ns(), 10_000);
        assert!((s.profiling_overhead() - 0.05).abs() < 1e-12);
        assert_eq!(s.clock_backed_ns(), 12_000);
    }

    #[test]
    fn empty_snapshot_reports_zero_overhead() {
        let s = MetricsSnapshot::empty();
        assert_eq!(s.profiling_overhead(), 0.0);
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn jsonl_row_is_flat_and_parseable() {
        let row = sample().to_jsonl();
        // One object on one line with scalar values only, so splitting on
        // `,` and the first `:` recovers every field.
        assert!(row.starts_with('{') && row.ends_with('}'), "{row}");
        let body = &row[1..row.len() - 1];
        assert!(!body.contains(['{', '}', '[', ']', '\n']), "not flat: {row}");
        let fields: std::collections::BTreeMap<&str, &str> = body
            .split(',')
            .map(|kv| kv.split_once(':').expect("\"key\":value"))
            .map(|(k, v)| (k.trim_matches('"'), v))
            .collect();
        assert_eq!(fields.len(), body.split(',').count(), "keys are unique");
        assert_eq!(fields["schema"], "\"rolp-metrics-v1\"");
        assert_eq!(fields["version"], "7");
        assert_eq!(fields["at_ns"], "12000");
        assert_eq!(fields["time_mutator_app_ns"], "9000");
        assert_eq!(fields["count_jit_compiles"], "3");
        assert_eq!(fields["heap_used_bytes"], "4096");
        assert_eq!(fields["gc_pause_ns_count"], "1");
        assert!(fields.contains_key("gc_pause_ns_p99"));
        assert_eq!(fields["profiling_overhead"], "0.05");
    }

    #[test]
    fn prometheus_dump_contains_all_series() {
        let text = sample().to_prometheus();
        assert!(text.contains("rolp_time_ns{bucket=\"mutator_app\"} 9000"));
        assert!(text.contains("rolp_events_total{event=\"jit_compiles\"} 3"));
        assert!(text.contains("rolp_heap_used_bytes 4096"));
        assert!(text.contains("rolp_profiling_overhead 0.05"));
        assert!(text.contains("rolp_gc_pause_ns{quantile=\"0.99\"}"));
        assert!(text.contains("rolp_gc_pause_ns_count 1"));
        assert!(text.contains("rolp_snapshot_version 7"));
        // Every exposition line is `name{labels} value` or `# comment`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_sum_is_exact() {
        let mut hists: Vec<Histogram> = (0..HistId::COUNT).map(|_| Histogram::new()).collect();
        // Seven samples summing to 61: a float mean times the count
        // rounds down to 60.
        for v in [1, 2, 3, 5, 8, 13, 29] {
            hists[HistId::GcPauseNs.index()].record(v);
        }
        let s = MetricsSnapshot::assemble(
            1,
            0,
            [0; Bucket::COUNT],
            [0; CounterId::COUNT],
            [0; GaugeId::COUNT],
            hists,
        );
        let text = s.to_prometheus();
        assert!(text.contains("rolp_gc_pause_ns_sum 61\n"), "{text}");
        assert!(text.contains("rolp_gc_pause_ns_count 7\n"), "{text}");
    }
}
