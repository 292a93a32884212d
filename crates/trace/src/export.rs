//! Trace exporters: JSONL event log and Chrome `trace_event` format.
//!
//! - [`to_jsonl`] writes one flat JSON object per event per line; the log
//!   round-trips through [`parse_jsonl`] (used by tests and analysis
//!   scripts).
//! - [`to_chrome_trace`] writes the Trace Event Format consumed by
//!   `chrome://tracing` and Perfetto: GC pauses become complete (`"X"`)
//!   slices with real durations, heap watermarks become counter (`"C"`)
//!   tracks, and everything else becomes instant (`"i"`) markers.

use crate::json::{parse_flat_object, JsonObject, JsonValue};
use crate::{EventKind, TraceEvent, GLOBAL_THREAD};
use rolp_metrics::SimTime;
use std::collections::BTreeMap;

/// Renders one event as a flat JSON object.
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut obj = JsonObject::new();
    obj.str("type", event.kind.type_name())
        .u64("ts_ns", event.ts.as_nanos())
        .u64("thread", event.thread as u64)
        .u64("seq", event.seq);
    match &event.kind {
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

/// Maps a parsed label back to the `&'static str` the event model uses.
///
/// The table holds exactly the labels the runtime emits; an unknown label
/// (e.g. from a hand-edited log) is leaked on each parse so parsing still
/// succeeds.
fn intern(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        // Pause kinds (`full` is also a governor state).
        "young",
        "mixed",
        "full",
        "handshake",
        // Pause causes.
        "eden-full",
        "alloc-failure",
        "evac-failure",
        "heap-full",
        "initial-mark",
        "remark",
        "relocate",
        "occupancy",
        "allocation",
        // Conflict-batch actions.
        "enable",
        "shrink",
        "disable",
        "freeze",
        // Decision-change reasons.
        "inferred",
        "demoted",
        "released",
        // Governor states and transition reasons.
        "off",
        "overhead-budget",
        "recovered",
    ];
    for k in KNOWN {
        if *k == s {
            return k;
        }
    }
    Box::leak(s.to_owned().into_boxed_str())
}

fn get_u64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, String> {
    map.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing u64 field '{key}'"))
}

fn get_bool(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<bool, String> {
    map.get(key).and_then(JsonValue::as_bool).ok_or_else(|| format!("missing bool field '{key}'"))
}

fn get_label(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<&'static str, String> {
    map.get(key)
        .and_then(JsonValue::as_str)
        .map(intern)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

/// Parses a JSONL event log back into events (inverse of [`to_jsonl`]).
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let map = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = map
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing 'type'", lineno + 1))?
            .to_owned();
        let kind = (|| -> Result<EventKind, String> {
            Ok(match ty.as_str() {
                "gc_pause" => {
                    let mut gen_bytes = [0u64; 16];
                    if let Some(JsonValue::UintArray(xs)) = map.get("gen_bytes") {
                        for (i, v) in xs.iter().take(16).enumerate() {
                            gen_bytes[i] = *v;
                        }
                    }
                    EventKind::GcPause {
                        kind: get_label(&map, "kind")?,
                        cause: get_label(&map, "cause")?,
                        duration_ns: get_u64(&map, "duration_ns")?,
                        bytes_copied: get_u64(&map, "bytes_copied")?,
                        survivors: get_u64(&map, "survivors")?,
                        regions_in_cset: get_u64(&map, "regions_in_cset")?,
                        regions_released: get_u64(&map, "regions_released")?,
                        regions_fully_dead: get_u64(&map, "regions_fully_dead")?,
                        gen_bytes,
                    }
                }
                "heap_watermark" => EventKind::HeapWatermark {
                    used_bytes: get_u64(&map, "used_bytes")?,
                    committed_bytes: get_u64(&map, "committed_bytes")?,
                    free_regions: get_u64(&map, "free_regions")?,
                    total_regions: get_u64(&map, "total_regions")?,
                },
                "jit_compile" => EventKind::JitCompile {
                    method: get_u64(&map, "method")? as u32,
                    osr: get_bool(&map, "osr")?,
                },
                "call_profiling" => EventKind::CallProfiling {
                    call_site: get_u64(&map, "call_site")? as u32,
                    enabled: get_bool(&map, "enabled")?,
                },
                "profiler_inference" => EventKind::ProfilerInference {
                    epoch: get_u64(&map, "epoch")?,
                    old_rows: get_u64(&map, "old_rows")?,
                    old_bytes: get_u64(&map, "old_bytes")?,
                    new_conflicts: get_u64(&map, "new_conflicts")?,
                    unresolved_conflicts: get_u64(&map, "unresolved_conflicts")?,
                    decisions: get_u64(&map, "decisions")?,
                    demotions: get_u64(&map, "demotions")?,
                },
                "conflict_batch" => EventKind::ConflictBatch {
                    action: get_label(&map, "action")?,
                    size: get_u64(&map, "size")?,
                },
                "decision_change" => EventKind::DecisionChange {
                    context: get_u64(&map, "context")? as u32,
                    from_gen: get_u64(&map, "from_gen")? as u8,
                    to_gen: get_u64(&map, "to_gen")? as u8,
                    reason: get_label(&map, "reason")?,
                },
                "survivor_tracking" => {
                    EventKind::SurvivorTracking { enabled: get_bool(&map, "enabled")? }
                }
                "old_table_merge" => EventKind::OldTableMerge {
                    cycle: get_u64(&map, "cycle")?,
                    total_records: get_u64(&map, "total_records")?,
                },
                "decision_publish" => EventKind::DecisionPublish {
                    version: get_u64(&map, "version")?,
                    changed_rows: get_u64(&map, "changed_rows")?,
                    decisions: get_u64(&map, "decisions")?,
                },
                "governor_transition" => EventKind::GovernorTransition {
                    from: get_label(&map, "from")?,
                    to: get_label(&map, "to")?,
                    reason: get_label(&map, "reason")?,
                    profiling_ns: get_u64(&map, "profiling_ns")?,
                    mutator_ns: get_u64(&map, "mutator_ns")?,
                },
                "profile_import" => EventKind::ProfileImport {
                    entries: get_u64(&map, "entries")?,
                    applied: get_u64(&map, "applied")?,
                    rejected: get_u64(&map, "rejected")?,
                    call_sites: get_u64(&map, "call_sites")?,
                    had_fingerprint: get_bool(&map, "had_fingerprint")?,
                    fingerprint_matched: get_bool(&map, "fingerprint_matched")?,
                },
                "profile_blend" => EventKind::ProfileBlend {
                    epoch: get_u64(&map, "epoch")?,
                    decayed: get_u64(&map, "decayed")?,
                    released: get_u64(&map, "released")?,
                    remaining: get_u64(&map, "remaining")?,
                },
                "serve_phase_shift" => EventKind::ServePhaseShift {
                    phase: get_u64(&map, "phase")? as u32,
                    rate_rps: get_u64(&map, "rate_rps")?,
                    requests_before: get_u64(&map, "requests_before")?,
                },
                other => return Err(format!("unknown event type '{other}'")),
            })
        })()
        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(TraceEvent {
            ts: SimTime::from_nanos(
                get_u64(&map, "ts_ns").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            ),
            thread: get_u64(&map, "thread").map_err(|e| format!("line {}: {e}", lineno + 1))?
                as u32,
            seq: get_u64(&map, "seq").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            kind,
        });
    }
    Ok(events)
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
                // Strip the envelope fields the JSONL form carries; the
                // instant's args keep the payload for inspection.
                let full = parse_flat_object(&event_to_json(e)).expect("own output parses");
                let mut args = JsonObject::new();
                for (k, v) in &full {
                    if matches!(k.as_str(), "type" | "ts_ns" | "thread" | "seq") {
                        continue;
                    }
                    match v {
                        JsonValue::Str(s) => args.str(k, s),
                        JsonValue::Uint(n) => args.u64(k, *n),
                        JsonValue::Float(f) => args.f64(k, *f),
                        JsonValue::Bool(b) => args.bool(k, *b),
                        JsonValue::UintArray(xs) => args.u64_array(k, xs),
                    };
                }
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

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = sample_events();
        let jsonl = to_jsonl(&events);
        let parsed = parse_jsonl(&jsonl).expect("parse");
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_reports_line_numbers_on_errors() {
        let good = event_to_json(&sample_events()[2]);
        let input = format!("{good}\n{{\"type\":\"nope\"}}\n");
        let err = parse_jsonl(&input).unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn governor_labels_intern_without_leaking() {
        // A leaked label gets a fresh allocation on every parse; a known
        // one is the table's own `&'static str` each time.
        for label in ["full", "off", "overhead-budget", "recovered"] {
            assert!(std::ptr::eq(intern(label), intern(label)), "{label} is not interned");
        }
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
        // Instants carry their payload in args.
        assert!(trace.contains("\"name\":\"JIT OSR compile\""));
        assert!(trace.contains("\"ph\":\"i\""));
        // Every line between the brackets is valid flat-ish JSON: check a
        // couple parse (instants/counters are flat except the args object).
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
