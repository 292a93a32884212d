#!/usr/bin/env python3
"""Telemetry gate for the per-PR smoke run.

Validates the live-metrics artifacts a `rolp-sim` run emits and enforces
the paper's ~5% profiling-overhead bound (ROLP §8.3) on self-measured
numbers:

1. `--jsonl` — the `--metrics-out` stream. Every line must be a flat
   JSON object with the `rolp-metrics-v1` schema: all time buckets,
   event counters, gauges, and histogram percentile keys present;
   versions strictly increasing; timestamps and monotonic metrics
   non-decreasing; and the final snapshot's `profiling_overhead` within
   the bound.
2. `--prom` (optional) — the `--metrics-prom` dump. Spot-checks the
   Prometheus text exposition: bucket/counter families, the overhead
   gauge, and the snapshot version are present.
3. `--bench` (optional) — a `ROLP_BENCH_JSON` stats file from the quick
   `fig8_9_pause_distribution` run. Every ROLP row's self-measured
   `profiling_overhead` must stay within the bound.

Usage:
    scripts/metrics_gate.py --jsonl run.jsonl [--prom run.prom]
                            [--bench bench_stats.json]
                            [--max-overhead 0.05]

Exit status: 0 = all good, 1 = gate violation, 2 = usage/format error.
"""

import argparse
import json
import sys

BUCKETS = [
    "mutator_app", "mutator_profiling", "jit_compile", "idle",
    "gc_mark", "gc_evac", "gc_remset", "gc_profiling", "gc_other",
    "profiler_merge", "profiler_infer", "profiler_resolve",
    "profiler_publish",
]
COUNTERS = [
    "profiled_allocs", "unprofiled_allocs", "jit_compiles", "gc_pauses",
    "epochs_inferred", "profile_entries_imported", "profile_blend_decays",
    "serve_requests", "serve_slo_misses", "tlab_refills", "microcache_hits",
    "microcache_misses",
]
GAUGES = [
    "heap_used_bytes", "heap_committed_bytes", "decision_version",
    "governor_state",
]
HISTOGRAMS = [
    "gc_pause_ns", "jit_compile_ns", "profiler_epoch_ns",
    "serve_latency_ns", "serve_queue_ns",
]
HIST_SUFFIXES = ["count", "p50", "p90", "p99", "max"]

# Keys that may only grow between consecutive snapshots (cumulative
# counters; gauges and histogram percentiles may move both ways).
MONOTONIC = (
    ["version", "at_ns", "busy_mutator_ns"]
    + [f"time_{b}_ns" for b in BUCKETS]
    + [f"count_{c}" for c in COUNTERS]
    + [f"{h}_count" for h in HISTOGRAMS]
)


def required_keys():
    keys = ["schema", "version", "at_ns", "busy_mutator_ns",
            "profiling_overhead"]
    keys += [f"time_{b}_ns" for b in BUCKETS]
    keys += [f"count_{c}" for c in COUNTERS]
    keys += GAUGES
    for h in HISTOGRAMS:
        keys += [f"{h}_{s}" for s in HIST_SUFFIXES]
    return keys


def fail(msg):
    print(f"metrics_gate: {msg}", file=sys.stderr)
    sys.exit(1)


def usage_error(msg):
    print(f"metrics_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def check_jsonl(path, max_overhead):
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        usage_error(f"cannot read {path}: {e}")
    if not lines:
        fail(f"{path} contains no snapshots")

    need = required_keys()
    prev = None
    for i, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except ValueError as e:
            fail(f"{path}:{i}: not valid JSON ({e})")
        if not isinstance(row, dict):
            fail(f"{path}:{i}: snapshot row is not an object")
        if row.get("schema") != "rolp-metrics-v1":
            fail(f"{path}:{i}: schema is {row.get('schema')!r}, "
                 f"expected 'rolp-metrics-v1'")
        missing = [k for k in need if k not in row]
        if missing:
            fail(f"{path}:{i}: missing key(s) {missing}")
        if prev is not None:
            if row["version"] <= prev["version"]:
                fail(f"{path}:{i}: version {row['version']} does not "
                     f"increase over {prev['version']}")
            for k in MONOTONIC:
                if row[k] < prev[k]:
                    fail(f"{path}:{i}: cumulative '{k}' went backwards "
                         f"({prev[k]} -> {row[k]})")
        prev = row

    overhead = prev["profiling_overhead"]
    if overhead > max_overhead:
        fail(f"{path}: final self-measured profiling overhead "
             f"{overhead:.4f} exceeds the {max_overhead:.2f} bound")
    print(f"  [OK] {path}: {len(lines)} snapshot(s), schema valid, final "
          f"overhead {overhead * 100:.2f}% (limit "
          f"{max_overhead * 100:.0f}%)")


def check_prom(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        usage_error(f"cannot read {path}: {e}")
    probes = (
        ['rolp_time_ns{bucket="%s"}' % b for b in BUCKETS]
        + ['rolp_events_total{event="%s"}' % c for c in COUNTERS]
        + [f"rolp_{g}" for g in GAUGES]
        + ["rolp_profiling_overhead", "rolp_snapshot_version",
           "rolp_snapshot_at_ns"]
    )
    missing = [p for p in probes if p not in text]
    if missing:
        fail(f"{path}: missing Prometheus series {missing}")
    print(f"  [OK] {path}: Prometheus exposition complete "
          f"({len(probes)} series probed)")


def check_bench(path, max_overhead):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        usage_error(f"cannot read {path}: {e}")
    rows = data.get("results")
    if not isinstance(rows, list) or not rows:
        usage_error(f"{path} is not a bench stats file")
    checked = 0
    for row in rows:
        collector = row.get("collector", "")
        if "ROLP" not in collector:
            continue
        overhead = row.get("profiling_overhead")
        if overhead is None:
            fail(f"{path}: row {row.get('workload')}/{collector} has no "
                 f"'profiling_overhead' — regenerate with the current "
                 f"bench harness")
        if overhead > max_overhead:
            fail(f"{path}: {row.get('workload')}/{collector} self-measured "
                 f"overhead {overhead:.4f} exceeds the "
                 f"{max_overhead:.2f} bound")
        checked += 1
        print(f"  [OK] {row.get('workload')}/{collector}: overhead "
              f"{overhead * 100:.2f}% (limit {max_overhead * 100:.0f}%)")
    if checked == 0:
        fail(f"{path}: no ROLP rows to check")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jsonl", help="--metrics-out JSONL stream to validate")
    ap.add_argument("--prom", help="--metrics-prom dump to validate")
    ap.add_argument("--bench", help="ROLP_BENCH_JSON stats file to gate")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="allowed profiling overhead fraction "
                         "(default 0.05)")
    args = ap.parse_args()
    if not (args.jsonl or args.prom or args.bench):
        usage_error("nothing to check: pass --jsonl, --prom, or --bench")

    if args.jsonl:
        check_jsonl(args.jsonl, args.max_overhead)
    if args.prom:
        check_prom(args.prom)
    if args.bench:
        check_bench(args.bench, args.max_overhead)
    print("metrics_gate: all checks passed")


if __name__ == "__main__":
    main()
