#!/usr/bin/env python3
"""Summarize a gcol Chrome trace-event JSON (produced by `--trace`).

Reads the trace written by obs::TraceSession (bench harness `--trace
out.json`) and prints these tables:

  1. top-N kernels by total time — launches, items, total/mean ms, and the
     imbalance pair (max/mean busy ratio, barrier-wait share) aggregated
     over every launch of that kernel;
  2. memory-traffic roofline — per kernel, modeled bytes (the Tier A
     traffic model each launch stamps as bytes_read/bytes_written args),
     bytes/item, achieved GB/s, % of the machine's measured STREAM-triad
     peak (gcol_meta.peak_gbps), and — when the trace was recorded with
     --hw-counters — IPC and LLC miss rate from the per-launch hardware
     counters, ranked by total bytes (the top offenders);
  3. per-direction breakdown — launches, items, and time attributed to
     push vs pull vs direction-less kernels (the "direction" launch arg the
     direction-optimized frontier engine stamps), showing what the
     occupancy-adaptive heuristic actually chose over the run;
  4. imbalance table — kernels ranked by time-weighted max/mean busy ratio,
     the straggler evidence behind the paper's load-balancing argument;
  5. per-phase breakdown — total time and span count per phase name
     (ScopedPhase annotations: algorithm rounds, datasets, runs), computed
     on self time so nested phases don't double-count their parents.

With --check the script instead validates the trace structure (parses as
JSON, has the trace-event envelope, spans are well-formed with non-negative
timestamps/durations, per-worker tracks are named, and EVERY kernel-track
span carries the slot-telemetry-derived args the observability contract
promises: items, slots, busy_max_over_mean, barrier_wait_share) and exits
non-zero on any violation — CI runs this against the smoke trace. A kernel
span missing those args is a FAILURE, not a skip: it means a launch path
stopped threading telemetry through.

--csv PATH additionally exports the per-kernel table (time, traffic,
roofline and hardware-counter columns) as machine-readable CSV.

Usage:
  trace_report.py TRACE.json [--top 15] [--csv kernels.csv]
  trace_report.py TRACE.json --check
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

# Track ids assigned by obs::TraceSession.
KERNEL_TID = 0
PHASE_TID = 1
FIRST_WORKER_TID = 2
# Streams get their own track group at stream * 4096 (kernels at the base).
STREAM_TRACK_STRIDE = 4096

# Per-slot-telemetry args every kernel span must carry (stamped by
# TraceSession::on_kernel_launch from the device's SlotTelemetry array);
# a span without them means a launch path dropped telemetry.
REQUIRED_KERNEL_ARGS = ("items", "slots", "busy_max_over_mean",
                        "barrier_wait_share")


def is_kernel_tid(tid: int) -> bool:
    return tid % STREAM_TRACK_STRIDE == 0


def load_doc(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        sys.exit(f"{path}: not a Chrome trace-event document "
                 "(no traceEvents key)")
    if not isinstance(doc["traceEvents"], list):
        sys.exit(f"{path}: traceEvents is not a list")
    return doc


def load_events(path: str) -> list[dict]:
    return load_doc(path)["traceEvents"]


def check(path: str) -> int:
    """Structural validation; prints one line per problem, exits non-zero."""
    doc = load_doc(path)
    events = doc["traceEvents"]
    problems = []
    meta = doc.get("gcol_meta")
    if meta is not None:
        if not isinstance(meta.get("peak_gbps"), (int, float)) or \
                meta["peak_gbps"] < 0:
            problems.append("gcol_meta.peak_gbps missing or negative")
        if not isinstance(meta.get("hw_counters"), bool):
            problems.append("gcol_meta.hw_counters missing or not a bool")
    named_tracks = set()
    span_count = counter_count = 0
    last_end_by_tid: dict[int, float] = {}
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "thread_name":
                named_tracks.add(e.get("tid"))
            continue
        if ph == "C":
            counter_count += 1
            if e.get("ts", -1) < 0:
                problems.append(f"event {i}: counter with negative ts")
            if "value" not in (e.get("args") or {}):
                problems.append(f"event {i}: counter without args.value")
            continue
        if ph == "X":
            span_count += 1
            ts = e.get("ts")
            dur = e.get("dur")
            tid = e.get("tid")
            if not isinstance(e.get("name"), str) or not e["name"]:
                problems.append(f"event {i}: span without a name")
            if ts is None or ts < 0:
                problems.append(f"event {i}: span with bad ts {ts!r}")
            if dur is None or dur < 0:
                problems.append(f"event {i}: span with bad dur {dur!r}")
            if tid is None:
                problems.append(f"event {i}: span without tid")
                continue
            if tid not in named_tracks:
                problems.append(f"event {i}: span on unnamed track {tid}")
            # Every kernel span must carry the slot-telemetry-derived args;
            # a miss means a launch path dropped telemetry, and silently
            # passing would let the observability contract rot.
            if is_kernel_tid(tid):
                args = e.get("args") or {}
                missing = [a for a in REQUIRED_KERNEL_ARGS if a not in args]
                if missing:
                    problems.append(
                        f"event {i}: kernel span '{e.get('name')}' missing "
                        f"telemetry args: {', '.join(missing)}")
                if ("bytes_read" in args) != ("bytes_written" in args):
                    problems.append(
                        f"event {i}: kernel span '{e.get('name')}' has "
                        "half a traffic model (bytes_read xor "
                        "bytes_written)")
            # Kernel launches are serial (one host thread), so kernel-track
            # spans must not overlap; same for each worker track.
            if ts is not None and dur is not None and \
                    (tid == KERNEL_TID or tid >= FIRST_WORKER_TID):
                prev_end = last_end_by_tid.get(tid, 0.0)
                # 1 µs slack: ts/dur round-trip through double formatting.
                if ts < prev_end - 1.0:
                    problems.append(
                        f"event {i}: span on track {tid} starts at {ts} "
                        f"before previous span ended at {prev_end}")
                last_end_by_tid[tid] = max(prev_end, ts + dur)
            continue
        problems.append(f"event {i}: unknown phase type {ph!r}")
    if span_count == 0:
        problems.append("no span events at all")
    if KERNEL_TID not in named_tracks or PHASE_TID not in named_tracks:
        problems.append("kernel/phase metadata tracks missing")
    for p in problems[:50]:
        print(f"CHECK FAIL: {p}")
    if problems:
        print(f"{path}: {len(problems)} problem(s), "
              f"{span_count} spans, {counter_count} counters")
        return 1
    workers = len([t for t in named_tracks if t >= FIRST_WORKER_TID])
    print(f"{path}: OK — {span_count} spans, {counter_count} counter "
          f"samples, {workers} worker track(s)")
    return 0


def report(path: str, top: int, csv_path: str | None = None) -> int:
    doc = load_doc(path)
    events = doc["traceEvents"]
    meta = doc.get("gcol_meta") or {}
    peak_gbps = meta.get("peak_gbps", 0.0)

    kernels: dict[str, dict] = defaultdict(
        lambda: {"launches": 0, "items": 0, "ms": 0.0,
                 "imbal_weighted": 0.0, "wait_weighted": 0.0,
                 "imbal_weight": 0.0,
                 "bytes_read": 0, "bytes_written": 0, "modeled_ms": 0.0,
                 "cycles": 0, "instructions": 0,
                 "llc_loads": 0, "llc_misses": 0, "branch_misses": 0})
    directions: dict[str, dict] = defaultdict(
        lambda: {"launches": 0, "items": 0, "ms": 0.0})
    phase_spans: list[tuple[str, float, float]] = []  # (name, ts, dur)

    for e in events:
        if e.get("ph") != "X":
            continue
        tid = e.get("tid")
        dur_ms = e.get("dur", 0.0) / 1000.0
        if tid == KERNEL_TID:
            k = kernels[e["name"]]
            args = e.get("args") or {}
            k["launches"] += 1
            k["items"] += args.get("items", 0)
            k["ms"] += dur_ms
            direction = args.get("direction")
            if direction not in ("push", "pull"):
                direction = "direction-less"
            d = directions[direction]
            d["launches"] += 1
            d["items"] += args.get("items", 0)
            d["ms"] += dur_ms
            if "busy_max_over_mean" in args and dur_ms > 0:
                k["imbal_weighted"] += dur_ms * args["busy_max_over_mean"]
                k["wait_weighted"] += dur_ms * args.get(
                    "barrier_wait_share", 0.0)
                k["imbal_weight"] += dur_ms
            if "bytes_read" in args:
                k["bytes_read"] += args["bytes_read"]
                k["bytes_written"] += args.get("bytes_written", 0)
                k["modeled_ms"] += dur_ms
            for counter in ("cycles", "instructions", "llc_loads",
                            "llc_misses", "branch_misses"):
                k[counter] += args.get(counter, 0)
        elif tid == PHASE_TID:
            phase_spans.append((e["name"], e.get("ts", 0.0),
                                e.get("dur", 0.0)))

    if not kernels:
        sys.exit(f"{path}: no kernel spans (was the trace produced with "
                 "--trace?)")

    def imbal(k):
        if k["imbal_weight"] == 0:
            return None, None
        return (k["imbal_weighted"] / k["imbal_weight"],
                k["wait_weighted"] / k["imbal_weight"])

    total_ms = sum(k["ms"] for k in kernels.values())
    by_time = sorted(kernels.items(), key=lambda kv: -kv[1]["ms"])

    print(f"== top {min(top, len(by_time))} kernels by total time "
          f"({len(kernels)} kernels, {total_ms:.1f} ms total) ==")
    header = (f"{'kernel':<32} {'launches':>8} {'items':>12} "
              f"{'total ms':>9} {'mean ms':>8} {'% time':>6} "
              f"{'max/mean':>8} {'wait %':>6}")
    print(header)
    print("-" * len(header))
    for name, k in by_time[:top]:
        ratio, wait = imbal(k)
        print(f"{name:<32} {k['launches']:>8} {k['items']:>12} "
              f"{k['ms']:>9.2f} {k['ms'] / k['launches']:>8.3f} "
              f"{100.0 * k['ms'] / total_ms if total_ms else 0.0:>5.1f}% "
              f"{ratio if ratio is not None else float('nan'):>8.2f} "
              f"{100.0 * wait if wait is not None else float('nan'):>5.1f}%")

    # Memory-traffic roofline: modeled bytes vs the measured bandwidth
    # ceiling, ranked by total bytes (the top offenders). GB/s uses only
    # the wall time of the launches that carried a model, so partially
    # modeled kernels are not diluted.
    modeled = [(name, k) for name, k in kernels.items()
               if k["bytes_read"] + k["bytes_written"] > 0]
    have_hw = any(k["cycles"] > 0 for _, k in kernels.items())
    if modeled:
        total_bytes = sum(k["bytes_read"] + k["bytes_written"]
                          for _, k in modeled)
        peak_note = (f", peak {peak_gbps:.1f} GB/s"
                     if peak_gbps else ", peak unknown")
        print(f"\n== memory-traffic roofline ({len(modeled)} modeled "
              f"kernels, {total_bytes / 1e6:.1f} MB modeled{peak_note}) ==")
        header = (f"{'kernel':<32} {'MB':>9} {'B/item':>7} "
                  f"{'GB/s':>7} {'% peak':>6}")
        if have_hw:
            header += f" {'IPC':>5} {'LLC miss':>8}"
        print(header)
        print("-" * len(header))
        for name, k in sorted(
                modeled,
                key=lambda kv: -(kv[1]["bytes_read"] +
                                 kv[1]["bytes_written"]))[:top]:
            total = k["bytes_read"] + k["bytes_written"]
            gbps = (total / (k["modeled_ms"] * 1e6)
                    if k["modeled_ms"] > 0 else 0.0)
            pct = 100.0 * gbps / peak_gbps if peak_gbps else float("nan")
            per_item = total / k["items"] if k["items"] else 0.0
            line = (f"{name:<32} {total / 1e6:>9.2f} {per_item:>7.1f} "
                    f"{gbps:>7.2f} {pct:>5.1f}%")
            if have_hw:
                ipc = (k["instructions"] / k["cycles"]
                       if k["cycles"] else float("nan"))
                miss = (k["llc_misses"] / k["llc_loads"]
                        if k["llc_loads"] else float("nan"))
                line += f" {ipc:>5.2f} {100.0 * miss:>7.1f}%"
            print(line)

    if any(d in directions for d in ("push", "pull")):
        print(f"\n== time by traversal direction ==")
        header = (f"{'direction':<16} {'launches':>8} {'items':>12} "
                  f"{'total ms':>9} {'% time':>6}")
        print(header)
        print("-" * len(header))
        for name in ("push", "pull", "direction-less"):
            if name not in directions:
                continue
            d = directions[name]
            print(f"{name:<16} {d['launches']:>8} {d['items']:>12} "
                  f"{d['ms']:>9.2f} "
                  f"{100.0 * d['ms'] / total_ms if total_ms else 0.0:>5.1f}%")

    with_imbal = [(name, k, *imbal(k)) for name, k in kernels.items()]
    with_imbal = [(n, k, r, w) for n, k, r, w in with_imbal if r is not None]
    if with_imbal:
        print(f"\n== imbalance (worst max/mean busy ratio first) ==")
        header = (f"{'kernel':<32} {'max/mean':>8} {'wait %':>6} "
                  f"{'total ms':>9} {'launches':>8}")
        print(header)
        print("-" * len(header))
        for name, k, ratio, wait in sorted(with_imbal,
                                           key=lambda t: -t[2])[:top]:
            print(f"{name:<32} {ratio:>8.2f} {100.0 * wait:>5.1f}% "
                  f"{k['ms']:>9.2f} {k['launches']:>8}")

    if phase_spans:
        # Self time: subtract each phase span's directly-nested children so
        # a dataset phase doesn't re-count its run phases. Spans on the one
        # phase track nest strictly (they come from a scope stack).
        phases: dict[str, dict] = defaultdict(lambda: {"n": 0, "ms": 0.0,
                                                       "self_ms": 0.0})
        ordered = sorted(phase_spans, key=lambda s: (s[1], -s[2]))
        stack: list[tuple[str, float, float, float]] = []  # +child sum
        finished: list[tuple[str, float, float]] = []  # (name, dur, child)
        for name, ts, dur in ordered:
            while stack and ts >= stack[-1][1] + stack[-1][2] - 0.5:
                done = stack.pop()
                finished.append((done[0], done[2], done[3]))
                if stack:
                    stack[-1] = (stack[-1][0], stack[-1][1], stack[-1][2],
                                 stack[-1][3] + done[2])
            stack.append((name, ts, dur, 0.0))
        while stack:
            done = stack.pop()
            finished.append((done[0], done[2], done[3]))
            if stack:
                stack[-1] = (stack[-1][0], stack[-1][1], stack[-1][2],
                             stack[-1][3] + done[2])
        for name, dur, child in finished:
            p = phases[name]
            p["n"] += 1
            p["ms"] += dur / 1000.0
            p["self_ms"] += max(0.0, dur - child) / 1000.0
        print(f"\n== phases ==")
        header = (f"{'phase':<32} {'spans':>7} {'total ms':>9} "
                  f"{'self ms':>9} {'mean ms':>8}")
        print(header)
        print("-" * len(header))
        for name, p in sorted(phases.items(), key=lambda kv: -kv[1]["ms"]):
            print(f"{name:<32} {p['n']:>7} {p['ms']:>9.2f} "
                  f"{p['self_ms']:>9.2f} {p['ms'] / p['n']:>8.3f}")

    if csv_path:
        write_kernel_csv(csv_path, kernels, peak_gbps)
        print(f"\nwrote kernel table CSV: {csv_path}")
    return 0


def write_kernel_csv(csv_path: str, kernels: dict[str, dict],
                     peak_gbps: float) -> None:
    """Full per-kernel table (every kernel, no --top cut) as CSV."""
    columns = ("kernel", "launches", "items", "total_ms",
               "busy_max_over_mean", "barrier_wait_share",
               "bytes_read", "bytes_written", "gbps", "pct_peak",
               "cycles", "instructions", "llc_loads", "llc_misses",
               "branch_misses", "ipc", "llc_miss_rate")
    with open(csv_path, "w") as f:
        f.write(",".join(columns) + "\n")
        for name, k in sorted(kernels.items(), key=lambda kv: -kv[1]["ms"]):
            total = k["bytes_read"] + k["bytes_written"]
            gbps = (total / (k["modeled_ms"] * 1e6)
                    if k["modeled_ms"] > 0 else 0.0)
            pct = 100.0 * gbps / peak_gbps if peak_gbps else 0.0
            imbal = (k["imbal_weighted"] / k["imbal_weight"]
                     if k["imbal_weight"] else 0.0)
            wait = (k["wait_weighted"] / k["imbal_weight"]
                    if k["imbal_weight"] else 0.0)
            ipc = k["instructions"] / k["cycles"] if k["cycles"] else 0.0
            miss = (k["llc_misses"] / k["llc_loads"]
                    if k["llc_loads"] else 0.0)
            f.write(f"{name},{k['launches']},{k['items']},{k['ms']:.6f},"
                    f"{imbal:.4f},{wait:.4f},"
                    f"{k['bytes_read']},{k['bytes_written']},{gbps:.4f},"
                    f"{pct:.2f},{k['cycles']},{k['instructions']},"
                    f"{k['llc_loads']},{k['llc_misses']},"
                    f"{k['branch_misses']},{ipc:.4f},{miss:.6f}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON from --trace")
    parser.add_argument("--top", type=int, default=15,
                        help="kernels to list per table (default 15)")
    parser.add_argument("--check", action="store_true",
                        help="validate trace structure instead of reporting")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also export the full per-kernel table as CSV")
    args = parser.parse_args()
    if args.check:
        return check(args.trace)
    return report(args.trace, args.top, args.csv)


if __name__ == "__main__":
    sys.exit(main())
