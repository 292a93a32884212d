//! Trace exporters: JSONL event log and Chrome `trace_event` format.
//!
//! - [`to_jsonl`] writes one flat JSON object per event per line: the
//!   `type`/`ts_ns`/`thread`/`seq` envelope, then the event's payload.
//! - [`to_chrome_trace`] writes the Trace Event Format consumed by
//!   `chrome://tracing` and Perfetto: GC pauses become complete (`"X"`)
//!   slices with real durations, heap watermarks become counter (`"C"`)
//!   tracks, and everything else becomes instant (`"i"`) markers whose
//!   `args` hold the same payload fields as the JSONL line.

use crate::json::JsonObject;
use crate::{EventKind, TraceEvent, GLOBAL_THREAD};

/// Writes an event's payload fields into `obj`: every field of the kind,
/// none of the envelope. The JSONL line and the Chrome instant's `args`
/// both come from here.
fn write_payload(kind: &EventKind, obj: &mut JsonObject) {
    match kind {
        EventKind::GcPause {
            kind,
            cause,
            duration_ns,
            bytes_copied,
            survivors,
            regions_in_cset,
            regions_released,
            regions_fully_dead,
            gen_bytes,
        } => {
            obj.str("kind", kind)
                .str("cause", cause)
                .u64("duration_ns", *duration_ns)
                .u64("bytes_copied", *bytes_copied)
                .u64("survivors", *survivors)
                .u64("regions_in_cset", *regions_in_cset)
                .u64("regions_released", *regions_released)
                .u64("regions_fully_dead", *regions_fully_dead)
                .u64_array("gen_bytes", gen_bytes);
        }
        EventKind::HeapWatermark { used_bytes, committed_bytes, free_regions, total_regions } => {
            obj.u64("used_bytes", *used_bytes)
                .u64("committed_bytes", *committed_bytes)
                .u64("free_regions", *free_regions)
                .u64("total_regions", *total_regions);
        }
        EventKind::JitCompile { method, osr } => {
            obj.u64("method", *method as u64).bool("osr", *osr);
        }
        EventKind::CallProfiling { call_site, enabled } => {
            obj.u64("call_site", *call_site as u64).bool("enabled", *enabled);
        }
        EventKind::ProfilerInference {
            epoch,
            old_rows,
            old_bytes,
            new_conflicts,
            unresolved_conflicts,
            decisions,
            demotions,
        } => {
            obj.u64("epoch", *epoch)
                .u64("old_rows", *old_rows)
                .u64("old_bytes", *old_bytes)
                .u64("new_conflicts", *new_conflicts)
                .u64("unresolved_conflicts", *unresolved_conflicts)
                .u64("decisions", *decisions)
                .u64("demotions", *demotions);
        }
        EventKind::ConflictBatch { action, size } => {
            obj.str("action", action).u64("size", *size);
        }
        EventKind::DecisionChange { context, from_gen, to_gen, reason } => {
            obj.u64("context", *context as u64)
                .u64("from_gen", *from_gen as u64)
                .u64("to_gen", *to_gen as u64)
                .str("reason", reason);
        }
        EventKind::SurvivorTracking { enabled } => {
            obj.bool("enabled", *enabled);
        }
        EventKind::OldTableMerge { cycle, total_records } => {
            obj.u64("cycle", *cycle).u64("total_records", *total_records);
        }
        EventKind::DecisionPublish { version, changed_rows, decisions } => {
            obj.u64("version", *version)
                .u64("changed_rows", *changed_rows)
                .u64("decisions", *decisions);
        }
        EventKind::GovernorTransition { from, to, reason, profiling_ns, mutator_ns } => {
            obj.str("from", from)
                .str("to", to)
                .str("reason", reason)
                .u64("profiling_ns", *profiling_ns)
                .u64("mutator_ns", *mutator_ns);
        }
        EventKind::ProfileImport {
            entries,
            applied,
            rejected,
            call_sites,
            had_fingerprint,
            fingerprint_matched,
        } => {
            obj.u64("entries", *entries)
                .u64("applied", *applied)
                .u64("rejected", *rejected)
                .u64("call_sites", *call_sites)
                .bool("had_fingerprint", *had_fingerprint)
                .bool("fingerprint_matched", *fingerprint_matched);
        }
        EventKind::ProfileBlend { epoch, decayed, released, remaining } => {
            obj.u64("epoch", *epoch)
                .u64("decayed", *decayed)
                .u64("released", *released)
                .u64("remaining", *remaining);
        }
        EventKind::ServePhaseShift { phase, rate_rps, requests_before } => {
            obj.u64("phase", *phase as u64)
                .u64("rate_rps", *rate_rps)
                .u64("requests_before", *requests_before);
        }
    }
}

/// Renders one event as a flat JSON object.
fn event_to_json(event: &TraceEvent) -> String {
    let mut obj = JsonObject::new();
    obj.str("type", event.kind.type_name())
        .u64("ts_ns", event.ts.as_nanos())
        .u64("thread", event.thread as u64)
        .u64("seq", event.seq);
    write_payload(&event.kind, &mut obj);
    obj.finish()
}

/// Renders the event stream as JSONL (one object per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// Display track for an event in the Chrome trace: GC/profiler events on
/// tid 0, mutator thread `t` on tid `t + 1`.
fn chrome_tid(thread: u32) -> u64 {
    if thread == GLOBAL_THREAD {
        0
    } else {
        thread as u64 + 1
    }
}

/// Renders the event stream in Chrome `trace_event` format (a JSON object
/// with a `traceEvents` array), loadable in `chrome://tracing` / Perfetto.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 2);
    // Name the tracks.
    let mut meta = JsonObject::new();
    meta.str("name", "thread_name")
        .str("ph", "M")
        .u64("pid", 1)
        .u64("tid", 0)
        .raw("args", "{\"name\":\"GC + profiler\"}");
    entries.push(meta.finish());
    for e in events {
        let mut obj = JsonObject::new();
        obj.u64("pid", 1).u64("tid", chrome_tid(e.thread)).str("cat", e.kind.type_name());
        match &e.kind {
            EventKind::GcPause { kind, cause, duration_ns, bytes_copied, survivors, .. } => {
                let mut args = JsonObject::new();
                args.str("cause", cause)
                    .u64("bytes_copied", *bytes_copied)
                    .u64("survivors", *survivors);
                obj.str("name", &format!("GC pause ({kind})"))
                    .str("ph", "X")
                    .u64("ts", e.ts.as_micros())
                    .u64("dur", (*duration_ns / 1_000).max(1))
                    .raw("args", &args.finish());
            }
            EventKind::HeapWatermark { used_bytes, committed_bytes, .. } => {
                let mut args = JsonObject::new();
                args.u64("used_mb", used_bytes >> 20).u64("committed_mb", committed_bytes >> 20);
                obj.str("name", "heap")
                    .str("ph", "C")
                    .u64("ts", e.ts.as_micros())
                    .raw("args", &args.finish());
            }
            other => {
                let name = match other {
                    EventKind::JitCompile { osr: true, .. } => "JIT OSR compile",
                    EventKind::JitCompile { .. } => "JIT compile",
                    EventKind::CallProfiling { enabled: true, .. } => "call profiling on",
                    EventKind::CallProfiling { .. } => "call profiling off",
                    EventKind::ProfilerInference { .. } => "ROLP inference",
                    EventKind::ConflictBatch { action, .. } => return_batch_name(action),
                    EventKind::DecisionChange { .. } => "pretenure decision",
                    EventKind::SurvivorTracking { enabled: true } => "survivor tracking on",
                    EventKind::SurvivorTracking { .. } => "survivor tracking off",
                    EventKind::OldTableMerge { .. } => "OLD table merge",
                    EventKind::DecisionPublish { .. } => "decision publish",
                    EventKind::GovernorTransition { .. } => "governor transition",
                    EventKind::ProfileImport { .. } => "profile import",
                    EventKind::ProfileBlend { .. } => "profile blend",
                    EventKind::ServePhaseShift { .. } => "serve phase shift",
                    _ => unreachable!("pause and watermark handled above"),
                };
                let mut args = JsonObject::new();
                write_payload(other, &mut args);
                obj.str("name", name)
                    .str("ph", "i")
                    .str("s", "g")
                    .u64("ts", e.ts.as_micros())
                    .raw("args", &args.finish());
            }
        }
        entries.push(obj.finish());
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn return_batch_name(action: &str) -> &'static str {
    match action {
        "enable" => "conflict batch: enable",
        "shrink" => "conflict batch: shrink",
        "disable" => "conflict batch: disable",
        "freeze" => "conflict batch: freeze",
        _ => "conflict batch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_metrics::SimTime;

    fn sample_events() -> Vec<TraceEvent> {
        let t = SimTime::from_nanos;
        let mut gen_bytes = [0u64; 16];
        gen_bytes[0] = 1024;
        gen_bytes[2] = 4096;
        gen_bytes[15] = 7;
        vec![
            TraceEvent {
                ts: t(1_000),
                thread: GLOBAL_THREAD,
                seq: 0,
                kind: EventKind::GcPause {
                    kind: "young",
                    cause: "eden-full",
                    duration_ns: 2_500_000,
                    bytes_copied: 5 << 20,
                    survivors: 123,
                    regions_in_cset: 9,
                    regions_released: 8,
                    regions_fully_dead: 3,
                    gen_bytes,
                },
            },
            TraceEvent {
                ts: t(2_000),
                thread: GLOBAL_THREAD,
                seq: 1,
                kind: EventKind::HeapWatermark {
                    used_bytes: 100 << 20,
                    committed_bytes: 200 << 20,
                    free_regions: 40,
                    total_regions: 128,
                },
            },
            TraceEvent {
                ts: t(3_000),
                thread: 2,
                seq: 0,
                kind: EventKind::JitCompile { method: 17, osr: true },
            },
            TraceEvent {
                ts: t(4_000),
                thread: GLOBAL_THREAD,
                seq: 2,
                kind: EventKind::CallProfiling { call_site: 99, enabled: true },
            },
            TraceEvent {
                ts: t(5_000),
                thread: GLOBAL_THREAD,
                seq: 3,
                kind: EventKind::ProfilerInference {
                    epoch: 1,
                    old_rows: 42,
                    old_bytes: 42 * 64,
                    new_conflicts: 2,
                    unresolved_conflicts: 1,
                    decisions: 5,
                    demotions: 0,
                },
            },
            TraceEvent {
                ts: t(6_000),
                thread: GLOBAL_THREAD,
                seq: 4,
                kind: EventKind::ConflictBatch { action: "shrink", size: 8 },
            },
            TraceEvent {
                ts: t(7_000),
                thread: GLOBAL_THREAD,
                seq: 5,
                kind: EventKind::DecisionChange {
                    context: 0xABCD_0003,
                    from_gen: 0,
                    to_gen: 2,
                    reason: "inferred",
                },
            },
            TraceEvent {
                ts: t(8_000),
                thread: GLOBAL_THREAD,
                seq: 6,
                kind: EventKind::SurvivorTracking { enabled: false },
            },
            TraceEvent {
                ts: t(9_000),
                thread: GLOBAL_THREAD,
                seq: 7,
                kind: EventKind::OldTableMerge { cycle: 12, total_records: 46 },
            },
            TraceEvent {
                ts: t(10_000),
                thread: GLOBAL_THREAD,
                seq: 8,
                kind: EventKind::DecisionPublish { version: 3, changed_rows: 5, decisions: 17 },
            },
            TraceEvent {
                ts: t(11_000),
                thread: GLOBAL_THREAD,
                seq: 9,
                kind: EventKind::GovernorTransition {
                    from: "full",
                    to: "off",
                    reason: "overhead-budget",
                    profiling_ns: 9_000_000,
                    mutator_ns: 120_000_000,
                },
            },
            TraceEvent {
                ts: t(12_000),
                thread: GLOBAL_THREAD,
                seq: 10,
                kind: EventKind::ProfileImport {
                    entries: 12,
                    applied: 10,
                    rejected: 2,
                    call_sites: 3,
                    had_fingerprint: true,
                    fingerprint_matched: false,
                },
            },
            TraceEvent {
                ts: t(13_000),
                thread: GLOBAL_THREAD,
                seq: 11,
                kind: EventKind::ProfileBlend { epoch: 4, decayed: 3, released: 1, remaining: 9 },
            },
            TraceEvent {
                ts: t(14_000),
                thread: GLOBAL_THREAD,
                seq: 12,
                kind: EventKind::ServePhaseShift {
                    phase: 1,
                    rate_rps: 12_000,
                    requests_before: 240_000,
                },
            },
        ]
    }

    /// The exact JSONL log of [`sample_events`]: one line per event kind.
    const GOLDEN_JSONL: &str = r#"{"type":"gc_pause","ts_ns":1000,"thread":4294967295,"seq":0,"kind":"young","cause":"eden-full","duration_ns":2500000,"bytes_copied":5242880,"survivors":123,"regions_in_cset":9,"regions_released":8,"regions_fully_dead":3,"gen_bytes":[1024,0,4096,0,0,0,0,0,0,0,0,0,0,0,0,7]}
{"type":"heap_watermark","ts_ns":2000,"thread":4294967295,"seq":1,"used_bytes":104857600,"committed_bytes":209715200,"free_regions":40,"total_regions":128}
{"type":"jit_compile","ts_ns":3000,"thread":2,"seq":0,"method":17,"osr":true}
{"type":"call_profiling","ts_ns":4000,"thread":4294967295,"seq":2,"call_site":99,"enabled":true}
{"type":"profiler_inference","ts_ns":5000,"thread":4294967295,"seq":3,"epoch":1,"old_rows":42,"old_bytes":2688,"new_conflicts":2,"unresolved_conflicts":1,"decisions":5,"demotions":0}
{"type":"conflict_batch","ts_ns":6000,"thread":4294967295,"seq":4,"action":"shrink","size":8}
{"type":"decision_change","ts_ns":7000,"thread":4294967295,"seq":5,"context":2882338819,"from_gen":0,"to_gen":2,"reason":"inferred"}
{"type":"survivor_tracking","ts_ns":8000,"thread":4294967295,"seq":6,"enabled":false}
{"type":"old_table_merge","ts_ns":9000,"thread":4294967295,"seq":7,"cycle":12,"total_records":46}
{"type":"decision_publish","ts_ns":10000,"thread":4294967295,"seq":8,"version":3,"changed_rows":5,"decisions":17}
{"type":"governor_transition","ts_ns":11000,"thread":4294967295,"seq":9,"from":"full","to":"off","reason":"overhead-budget","profiling_ns":9000000,"mutator_ns":120000000}
{"type":"profile_import","ts_ns":12000,"thread":4294967295,"seq":10,"entries":12,"applied":10,"rejected":2,"call_sites":3,"had_fingerprint":true,"fingerprint_matched":false}
{"type":"profile_blend","ts_ns":13000,"thread":4294967295,"seq":11,"epoch":4,"decayed":3,"released":1,"remaining":9}
{"type":"serve_phase_shift","ts_ns":14000,"thread":4294967295,"seq":12,"phase":1,"rate_rps":12000,"requests_before":240000}
"#;

    #[test]
    fn jsonl_lines_are_golden_for_every_event_kind() {
        let jsonl = to_jsonl(&sample_events());
        for (line, want) in jsonl.lines().zip(GOLDEN_JSONL.lines()) {
            assert_eq!(line, want);
        }
        assert_eq!(jsonl, GOLDEN_JSONL, "one line per event, newline-terminated");
    }

    #[test]
    fn chrome_trace_is_structurally_sound() {
        let events = sample_events();
        let trace = to_chrome_trace(&events);
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.trim_end().ends_with("]}"));
        // One entry per event plus the thread-name metadata record.
        let entries = trace.matches("\"ph\":").count();
        assert_eq!(entries, events.len() + 1);
        // The pause is a complete slice with a microsecond duration.
        assert!(trace.contains("\"name\":\"GC pause (young)\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"dur\":2500"));
        // The watermark is a counter track.
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("\"used_mb\":100"));
        // Instants carry their JSONL payload, without the envelope, in
        // args.
        assert!(trace.contains("\"name\":\"JIT OSR compile\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"ts\":3,\"args\":{\"method\":17,\"osr\":true}}"));
        assert!(trace.contains("\"cat\":\"profiler_inference\""));
    }

    #[test]
    fn sub_microsecond_pauses_keep_nonzero_duration() {
        let mut e = sample_events()[0];
        if let EventKind::GcPause { ref mut duration_ns, .. } = e.kind {
            *duration_ns = 300;
        }
        let trace = to_chrome_trace(&[e]);
        assert!(trace.contains("\"dur\":1"), "rounded up to 1us: {trace}");
    }
}
