//! Shared output sinks for the CLI binaries.
//!
//! Both binaries (`rolp-sim`, `rolp-serve`) write their machine-readable
//! artifacts through the same two mechanisms:
//!
//! - [`write_atomic`] — temp file + rename, so a reader (or a crash)
//!   never observes a half-written file;
//! - [`CrashGuard`] — an armed drop guard that, if the run panics,
//!   publishes whatever the telemetry cells hold and flushes well-formed
//!   partial documents for `--stats-json` and `--metrics-out` instead of
//!   leaving the sinks missing or truncated mid-record.
//!
//! Each binary compiles this file as its own module, so items unused by
//! one binary are expected.
#![allow(dead_code)]

use std::rc::Rc;

use rolp_telemetry::{MetricsSnapshot, Telemetry};

/// Writes `contents` to `path` via a temp file + atomic rename, so
/// readers never observe a half-written file.
pub fn write_atomic(path: &str, contents: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} to {path}: {e}"))
}

/// Renders the snapshot history as a JSONL stream, downsampled so
/// consecutive rows are at least `interval_secs` of simulated time
/// apart. The empty version-0 snapshot is skipped and the final one is
/// always kept.
pub fn metrics_jsonl(metrics: &[Rc<MetricsSnapshot>], interval_secs: u64) -> String {
    let interval_ns = interval_secs.saturating_mul(1_000_000_000);
    let mut out = String::new();
    let mut next_at = 0u64;
    let last = metrics.len().saturating_sub(1);
    for (i, snap) in metrics.iter().enumerate() {
        if snap.version() == 0 {
            continue;
        }
        if snap.at_ns() < next_at && i != last {
            continue;
        }
        next_at = snap.at_ns().saturating_add(interval_ns);
        out.push_str(&snap.to_jsonl());
        out.push('\n');
    }
    out
}

/// Keeps `--stats-json` and `--metrics-out` valid even when a run panics
/// mid-way: on unwind it publishes whatever the telemetry cells hold,
/// writes a small well-formed partial stats document (schema
/// `rolp-stats-partial-v1`) in place of the full summary, and flushes
/// the downsampled snapshot history — ending with the crash-time partial
/// snapshot — as the metrics JSONL stream. All writes go through
/// [`write_atomic`], so a crash never leaves truncated JSON behind.
pub struct CrashGuard {
    stats_path: Option<String>,
    metrics_path: Option<String>,
    metrics_interval: u64,
    telemetry: Telemetry,
    armed: bool,
}

impl CrashGuard {
    /// Arms a guard when at least one crash-safe sink was requested.
    pub fn arm(
        stats_path: Option<&String>,
        metrics_path: Option<&String>,
        metrics_interval: u64,
        telemetry: &Telemetry,
    ) -> Option<CrashGuard> {
        if stats_path.is_none() && metrics_path.is_none() {
            return None;
        }
        Some(CrashGuard {
            stats_path: stats_path.cloned(),
            metrics_path: metrics_path.cloned(),
            metrics_interval,
            telemetry: telemetry.clone(),
            armed: true,
        })
    }

    /// Stands the guard down once the real outputs have been written.
    pub fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for CrashGuard {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() {
            return;
        }
        // The simulated clock is out of reach mid-unwind; stamp the
        // flush with the last published snapshot's timestamp.
        let at_ns = self.telemetry.load().at_ns();
        let snapshot = self.telemetry.publish(at_ns);
        if let Some(path) = &self.stats_path {
            let body = format!(
                "{{\"schema\":\"rolp-stats-partial-v1\",\"panic\":true,\"telemetry\":{}}}",
                snapshot.to_jsonl()
            );
            let _ = write_atomic(path, &body);
            eprintln!("stats: run panicked — partial telemetry snapshot written to {path}");
        }
        if let Some(path) = &self.metrics_path {
            // The whole downsampled history, ending with the crash-flush
            // snapshot published above: every row is a complete record.
            let history = self.telemetry.history();
            let body = metrics_jsonl(&history, self.metrics_interval);
            let rows = body.lines().count();
            let _ = write_atomic(path, &body);
            eprintln!("metrics: run panicked — {rows} snapshot(s) flushed to {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    use rolp_telemetry::Bucket;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rolp-cli-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let path = temp_path("atomic.json");
        let path_str = path.to_str().unwrap();
        std::fs::write(&path, "old").unwrap();
        write_atomic(path_str, "{\"new\":true}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"new\":true}");
        assert!(!std::path::Path::new(&format!("{path_str}.tmp")).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panic_guard_flushes_a_valid_partial_snapshot() {
        let path = temp_path("partial.json");
        let path_str = path.to_str().unwrap().to_string();
        let telemetry = Telemetry::new();
        telemetry.add(Bucket::MutatorApp, 1_000);

        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = CrashGuard::arm(Some(&path_str), None, 1, &telemetry);
            panic!("boom");
        }));
        assert!(result.is_err());

        let body = std::fs::read_to_string(&path).expect("partial snapshot written");
        assert!(body.starts_with("{\"schema\":\"rolp-stats-partial-v1\",\"panic\":true"), "{body}");
        assert!(body.contains("\"schema\":\"rolp-metrics-v1\""), "{body}");
        assert!(body.contains("\"time_mutator_app_ns\":1000"), "{body}");
        assert!(body.trim_end().ends_with('}'), "{body}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panic_guard_flushes_the_metrics_stream_with_a_final_partial_row() {
        let path = temp_path("crash-metrics.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let telemetry = Telemetry::new();
        // Two published windows before the crash...
        telemetry.add(Bucket::MutatorApp, 500);
        telemetry.publish(1_000_000_000);
        telemetry.add(Bucket::MutatorApp, 500);
        telemetry.publish(2_000_000_000);
        // ...plus unpublished progress the crash flush must capture.
        telemetry.add(Bucket::GcMark, 42);

        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = CrashGuard::arm(None, Some(&path_str), 1, &telemetry);
            panic!("boom");
        }));
        assert!(result.is_err());

        let body = std::fs::read_to_string(&path).expect("metrics stream written");
        let rows: Vec<&str> = body.lines().collect();
        assert_eq!(rows.len(), 3, "two windows + crash flush: {body}");
        for row in &rows {
            assert!(row.starts_with('{') && row.ends_with('}'), "complete record: {row}");
            assert!(row.contains("\"schema\":\"rolp-metrics-v1\""), "{row}");
        }
        assert!(
            rows[2].contains("\"time_gc_mark_ns\":42"),
            "crash flush has the tail: {}",
            rows[2]
        );
        assert!(!std::path::Path::new(&format!("{}.tmp", path.display())).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disarmed_guard_writes_nothing() {
        let stats = temp_path("disarmed.json");
        let metrics = temp_path("disarmed.jsonl");
        let stats_str = stats.to_str().unwrap().to_string();
        let metrics_str = metrics.to_str().unwrap().to_string();
        let telemetry = Telemetry::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut guard =
                CrashGuard::arm(Some(&stats_str), Some(&metrics_str), 1, &telemetry).unwrap();
            guard.disarm();
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(!stats.exists());
        assert!(!metrics.exists());
    }

    #[test]
    fn guard_is_not_armed_without_sinks() {
        assert!(CrashGuard::arm(None, None, 1, &Telemetry::new()).is_none());
    }

    #[test]
    fn metrics_jsonl_downsamples_and_keeps_the_final_row() {
        let telemetry = Telemetry::new();
        for i in 1..=10u64 {
            telemetry.add(Bucket::MutatorApp, 100);
            telemetry.publish(i * 1_000_000_000); // one per simulated second
        }
        let body = metrics_jsonl(&telemetry.history(), 4);
        let rows: Vec<&str> = body.lines().collect();
        // t=1s, t=5s, t=9s, plus the forced final row at t=10s.
        assert_eq!(rows.len(), 4, "{body}");
        assert!(rows[0].contains("\"at_ns\":1000000000"), "{}", rows[0]);
        assert!(rows.last().unwrap().contains("\"at_ns\":10000000000"));
        for row in &rows {
            assert!(row.starts_with('{') && row.ends_with('}'), "{row}");
            assert!(row.contains("\"schema\":\"rolp-metrics-v1\""), "{row}");
        }
    }
}
