#!/usr/bin/env python3
"""Fold a churnet NDJSON telemetry trace into a phase-breakdown report.

Traces come from `churnet_sweep --telemetry <file>` or
`churnet_repro --telemetry <file>` (schema v1; see src/telemetry/
trace_sink.hpp and docs/observability.md). Default mode prints:

  * a per-phase table (total seconds, share of measured time, span count)
    from the sweep_end aggregate (falling back to summing job events when
    no sweep_end is present, e.g. a trace cut short);
  * the counters (churn events, messages, snapshot bytes, ...);
  * per-cell wall-clock hotspots (slowest cells first, --top N).

--check validates each trace it is given instead: every line parses as a
JSON object, carries a known "ev" with that event's required fields, the
trace starts with trace_begin (schema 1), and span_begin/span_end names
balance. Exit 1 with a line-numbered message on the first violation —
this is the CI schema gate for telemetry artifacts.

Usage:
  telemetry_report.py trace.ndjson            # phase breakdown
  telemetry_report.py --check a.ndjson b.ndjson   # schema validation (CI)
  telemetry_report.py --top 5 trace.ndjson
"""

import argparse
import json
import sys

# Required fields per event kind (schema v1). Extra fields are allowed:
# consumers must ignore unknown keys so the schema can grow additively.
REQUIRED_FIELDS = {
    "trace_begin": {"schema", "tool", "ts_ms"},
    "span_begin": {"name", "t_s"},
    "span_end": {"name", "t_s", "wall_s"},
    "sweep_begin": {"label", "cells", "reps", "jobs", "threads", "t_s",
                    "spec"},
    "job": {"cell", "replication", "seed", "t_s", "wall_s", "phases",
            "counters"},
    "heartbeat": {"t_s", "jobs_done", "jobs_total", "eta_s",
                  "threads_busy"},
    "sweep_end": {"label", "jobs", "wall_s", "t_s", "phases", "counters"},
    "trace_end": {"t_s"},
}


def parse_trace(path):
    """Yields (line_number, event_dict); raises ValueError on bad lines."""
    with open(path) as f:
        for number, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"line {number}: not valid JSON ({error})")
            if not isinstance(event, dict):
                raise ValueError(f"line {number}: not a JSON object")
            yield number, event


def check(path):
    """Schema validation; returns an error string or None when valid."""
    first = True
    open_spans = []
    saw_end = False
    for number, event in parse_trace(path):
        kind = event.get("ev")
        if kind not in REQUIRED_FIELDS:
            return f"line {number}: unknown event kind {kind!r}"
        if first:
            if kind != "trace_begin":
                return (f"line {number}: trace must start with trace_begin, "
                        f"got {kind!r}")
            if event.get("schema") != 1:
                return (f"line {number}: unsupported schema "
                        f"{event.get('schema')!r} (expected 1)")
            first = False
        missing = REQUIRED_FIELDS[kind] - set(event)
        if missing:
            return (f"line {number}: {kind} missing field(s) "
                    f"{sorted(missing)}")
        if kind == "span_begin":
            open_spans.append(event["name"])
        elif kind == "span_end":
            if event["name"] not in open_spans:
                return (f"line {number}: span_end {event['name']!r} "
                        f"without a matching span_begin")
            open_spans.remove(event["name"])
        elif kind == "job":
            for section in ("phases", "counters"):
                if not isinstance(event[section], dict):
                    return (f"line {number}: job {section} must be an "
                            f"object")
        elif kind == "trace_end":
            saw_end = True
    if first:
        return "empty trace (no events)"
    if open_spans:
        return f"unclosed span(s) at end of trace: {open_spans}"
    if not saw_end:
        return "trace has no trace_end (run cut short?)"
    return None


def fold(path):
    """Returns (phases, counters, jobs, meta) folded from the trace.

    phases: {name: {"s": float, "calls": int}}; counters: {name: int};
    jobs: list of job events; meta: tool/threads/wall info for the header.
    """
    phases = {}
    counters = {}
    jobs = []
    meta = {}
    saw_aggregate = False
    for _, event in parse_trace(path):
        kind = event.get("ev")
        if kind == "trace_begin":
            meta["tool"] = event.get("tool", "?")
        elif kind == "sweep_begin":
            meta["threads"] = event.get("threads")
            meta["jobs"] = event.get("jobs")
        elif kind == "job":
            jobs.append(event)
        elif kind == "sweep_end":
            # The authoritative aggregate of this sweep's jobs (the sink
            # resets it at every sweep_begin), so a multi-sweep trace
            # sums its sweep_end records.
            saw_aggregate = True
            for name, entry in event.get("phases", {}).items():
                slot = phases.setdefault(name, {"s": 0.0, "calls": 0})
                slot["s"] += float(entry.get("s", 0.0))
                slot["calls"] += int(entry.get("calls", 0))
            for name, value in event.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
        elif kind == "trace_end":
            meta["wall_s"] = event.get("t_s")
    if not saw_aggregate:
        # Trace cut short: fall back to summing the per-job slices.
        for event in jobs:
            for name, entry in event.get("phases", {}).items():
                slot = phases.setdefault(name, {"s": 0.0, "calls": 0})
                slot["s"] += float(entry.get("s", 0.0))
                slot["calls"] += int(entry.get("calls", 0))
            for name, value in event.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
    return phases, counters, jobs, meta


def cell_identity(event):
    """Human label for a job's cell from its identity fields."""
    parts = []
    for key in ("scenario", "churn", "protocol"):
        value = event.get(key)
        if value and value != "none":
            parts.append(str(value))
    for key in ("n", "d"):
        if key in event:
            parts.append(f"{key}={event[key]}")
    return " ".join(parts) if parts else f"cell {event.get('cell', '?')}"


def report(path, top):
    phases, counters, jobs, meta = fold(path)
    tool = meta.get("tool", "?")
    wall = meta.get("wall_s")
    print(f"trace: {path} (tool: {tool}"
          + (f", wall {wall:.2f}s" if wall is not None else "") + ")")

    measured = sum(slot["s"] for slot in phases.values())
    print("\nphase breakdown (CPU seconds across all threads):")
    print(f"  {'phase':<14} {'seconds':>10} {'share':>7} {'spans':>10}")
    for name, slot in sorted(phases.items(), key=lambda kv: -kv[1]["s"]):
        share = slot["s"] / measured if measured > 0 else 0.0
        print(f"  {name:<14} {slot['s']:>10.3f} {share:>6.1%} "
              f"{slot['calls']:>10}")
    print(f"  {'total measured':<14} {measured:>10.3f}")

    if counters:
        print("\ncounters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:<16} {value:>16,}")

    if jobs and top > 0:
        # Fold job wall time per cell, then show the slowest cells.
        cells = {}
        for event in jobs:
            key = cell_identity(event)
            slot = cells.setdefault(key, {"wall_s": 0.0, "jobs": 0})
            slot["wall_s"] += float(event.get("wall_s", 0.0))
            slot["jobs"] += 1
        print(f"\nslowest cells (by summed job wall clock, top {top}):")
        ranked = sorted(cells.items(), key=lambda kv: -kv[1]["wall_s"])
        for key, slot in ranked[:top]:
            print(f"  {slot['wall_s']:>9.3f}s  {slot['jobs']:>4} job(s)  "
                  f"{key}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("traces", nargs="+",
                        help="NDJSON telemetry trace file (several only "
                             "with --check)")
    parser.add_argument("--check", action="store_true",
                        help="validate each trace against schema v1 and "
                             "exit (the CI artifact gate)")
    parser.add_argument("--top", type=int, default=10,
                        help="cells to list in the hotspot table "
                             "(default 10; 0 disables)")
    args = parser.parse_args()
    if not args.check and len(args.traces) != 1:
        parser.error("the report reads one trace; pass several only "
                     "with --check")
    current = args.traces[0]
    try:
        if args.check:
            for current in args.traces:
                error = check(current)
                if error is not None:
                    print(f"{current}: INVALID: {error}")
                    return 1
                print(f"{current}: valid schema-v1 telemetry trace")
            return 0
        return report(current, args.top)
    except (OSError, ValueError) as error:
        print(f"{current}: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
