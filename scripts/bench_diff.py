#!/usr/bin/env python3
"""Diff two gcol-bench JSON reports (see bench/common/bench_util.hpp).

Accepts gcol-bench-v9 reports. The meta header names the run environment —
worker count, build, frontier policy, streams, CSR reorder strategy,
hardware-counter sampling and measured peak bandwidth — and
batched-throughput records ("kind": "batch") are skipped: batch throughput
is compared by eye, not gated. Compares records
keyed by (dataset, algorithm) and reports, per pair: runtime (ms),
kernel-launch count, color count deltas, and — when both sides carry
telemetry — the time-weighted per-kernel load-imbalance delta. Wall time is
noisy, so ms movements within --ms-tolerance (relative) are not called
regressions; kernel_launches and colors are deterministic for a fixed seed
on a single worker, so ANY increase is flagged.

When the two reports' meta headers differ (different worker count, build
type, ...) the mismatch is printed up front: the numbers may not be
comparable. meta.peak_gbps is a measured float that jitters run to run, so
it warns only when the two machines' peaks differ by more than 15%
relative — that means a different machine (or memory config), not noise.

Exit status is 0 unless --gate is passed, in which case the DETERMINISTIC
regressions (LAUNCHES+, COLORS+, INVALID) fail the run. SLOWER,
IMBALANCE+ and BANDWIDTH- (per-record achieved GB/s of the modeled
traffic dropped by more than --bandwidth-tolerance) are always advisory —
shared CI runners are too noisy to gate on wall time, and both imbalance
and bandwidth are timing-derived ratios — but the flags still land in the
table and the summary so real movement is visible in the job log.

Usage:
  bench_diff.py BASELINE.json AFTER.json [--ms-tolerance 0.25]
                [--imbalance-tolerance 0.25] [--bandwidth-tolerance 0.25]
                [--gate]
  bench_diff.py --self-test
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "gcol-bench-v9"

# meta.peak_gbps is a measured float: ignore run-to-run jitter below this
# relative difference, warn beyond it (a different machine or memory config).
PEAK_GBPS_WARN_REL = 0.15

# Flags that fail a --gate run; everything else is advisory.
GATING_FLAGS = ("INVALID", "LAUNCHES+", "COLORS+")


def load_doc(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    check_schema(doc, path)
    return doc


def check_schema(doc: dict, path: str) -> None:
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: not a {SCHEMA} report "
                 f"(schema={doc.get('schema')!r})")


def index_records(doc: dict, path: str) -> dict[tuple[str, str], dict]:
    records = {}
    for r in doc.get("records", []):
        # Batched-throughput records measure a different quantity
        # (N-graph batch wall time) and carry none of the per-run fields
        # this diff keys on; only classic records are compared.
        if r.get("kind") == "batch":
            continue
        records[(r["dataset"], r["algorithm"])] = r
    if not records:
        sys.exit(f"{path}: no records")
    return records


def record_imbalance(record: dict) -> float | None:
    """Time-weighted mean of per-kernel busy_max_over_mean for one record.

    Weighted by each kernel's total_ms so a tiny perfectly-balanced setup
    kernel cannot mask a skewed hot kernel. None when no kernel in the
    record carries telemetry (a run with no listener).
    """
    kernels = (record.get("metrics") or {}).get("kernels") or {}
    weight_sum = 0.0
    weighted = 0.0
    for stat in kernels.values():
        ratio = stat.get("busy_max_over_mean")
        if ratio is None:
            continue
        weight = stat.get("total_ms", 0.0)
        if weight <= 0.0:
            continue
        weighted += weight * ratio
        weight_sum += weight
    if weight_sum == 0.0:
        return None
    return weighted / weight_sum


def record_bandwidth(record: dict) -> float | None:
    """Aggregate achieved GB/s of the modeled traffic in one record.

    Reconstructs each kernel's modeled wall time from its bytes and gbps
    fields (modeled_ms = bytes / (gbps · 1e6)), then returns total bytes
    over total modeled time — the exact aggregate rate, not a mean of
    ratios. None when no kernel carries a traffic model.
    """
    kernels = (record.get("metrics") or {}).get("kernels") or {}
    total_bytes = 0.0
    total_ms = 0.0
    for stat in kernels.values():
        gbps = stat.get("gbps", 0.0)
        stat_bytes = stat.get("bytes_read", 0) + stat.get("bytes_written", 0)
        if gbps <= 0.0 or stat_bytes <= 0:
            continue
        total_bytes += stat_bytes
        total_ms += stat_bytes / (gbps * 1e6)
    if total_ms == 0.0:
        return None
    return total_bytes / (total_ms * 1e6)


def direction_launches(record: dict) -> dict[str, int]:
    """Launch counts per traversal direction for one record.

    Reads each kernel stat's "direction" field, stamped by the launch since
    the direction-optimized frontier engine (bench_util meta.frontier_mode
    says which policy produced it). Kernels predating the stamp fall back to
    a name-suffix heuristic (..._push / ..._pull); everything else counts as
    "none" (direction-less kernels: scans, rebuilds, setup).
    """
    kernels = (record.get("metrics") or {}).get("kernels") or {}
    totals = {"push": 0, "pull": 0, "none": 0}
    for name, stat in kernels.items():
        direction = stat.get("direction")
        if direction not in ("push", "pull"):
            if name.endswith("_push"):
                direction = "push"
            elif name.endswith("_pull"):
                direction = "pull"
            else:
                direction = "none"
        totals[direction] += stat.get("launches", 0)
    return totals


def sum_directions(records: list[dict]) -> dict[str, int]:
    totals = {"push": 0, "pull": 0, "none": 0}
    for record in records:
        for direction, count in direction_launches(record).items():
            totals[direction] += count
    return totals


def diff_meta(base_doc: dict, after_doc: dict) -> list[str]:
    """Human-readable mismatch lines between the two meta headers."""
    base_meta = base_doc.get("meta") or {}
    after_meta = after_doc.get("meta") or {}
    lines = []
    for key in sorted(set(base_meta) | set(after_meta)):
        b = base_meta.get(key, "<absent>")
        a = after_meta.get(key, "<absent>")
        if key == "peak_gbps" and isinstance(b, (int, float)) \
                and isinstance(a, (int, float)) and b > 0:
            # Measured bandwidth jitters run to run; only a large relative
            # difference means the reports came from different machines.
            if abs(a - b) / b <= PEAK_GBPS_WARN_REL:
                continue
        if b != a:
            lines.append(f"  meta.{key}: {b!r} -> {a!r}")
    return lines


def compare(base_doc: dict, after_doc: dict, base_path: str, after_path: str,
            ms_tolerance: float, imbalance_tolerance: float,
            gate: bool, bandwidth_tolerance: float = 0.25) -> int:
    base = index_records(base_doc, base_path)
    after = index_records(after_doc, after_path)
    common = sorted(set(base) & set(after))
    only_base = sorted(set(base) - set(after))
    only_after = sorted(set(after) - set(base))

    if not common:
        sys.exit("no (dataset, algorithm) pairs in common")

    meta_mismatch = diff_meta(base_doc, after_doc)
    if meta_mismatch:
        print("WARNING: run environments differ — numbers may not be "
              "comparable:")
        for line in meta_mismatch:
            print(line)
        print()

    header = (f"{'dataset':<12} {'algorithm':<28} "
              f"{'ms before':>10} {'ms after':>10} {'Δms':>8} "
              f"{'launches':>14} {'colors':>11} "
              f"{'imbal':>12}  flags")
    print(header)
    print("-" * len(header))

    regressions = []
    for key in common:
        b, a = base[key], after[key]
        flags = []
        if not a.get("valid", False):
            flags.append("INVALID")
        launches_cell = f"{b['kernel_launches']:>6}->{a['kernel_launches']:<6}"
        colors_cell = f"{b['colors']:>4}->{a['colors']:<4}"
        if a["kernel_launches"] > b["kernel_launches"]:
            flags.append("LAUNCHES+")
        if a["colors"] > b["colors"]:
            flags.append("COLORS+")
        if b["ms"] > 0 and (a["ms"] - b["ms"]) / b["ms"] > ms_tolerance:
            flags.append("SLOWER")
        b_imbal = record_imbalance(b)
        a_imbal = record_imbalance(a)
        if b_imbal is not None and a_imbal is not None:
            imbal_cell = f"{b_imbal:>5.2f}->{a_imbal:<5.2f}"
            if (a_imbal - b_imbal) / b_imbal > imbalance_tolerance:
                flags.append("IMBALANCE+")
        else:
            imbal_cell = "-"
        # Advisory bandwidth lane: achieved GB/s of the modeled traffic
        # dropping beyond tolerance means the same bytes took markedly
        # longer to move — a locality/efficiency smell even when total ms
        # stayed inside the (coarser) SLOWER tolerance.
        b_bw = record_bandwidth(b)
        a_bw = record_bandwidth(a)
        if b_bw is not None and a_bw is not None and b_bw > 0 and \
                (b_bw - a_bw) / b_bw > bandwidth_tolerance:
            flags.append("BANDWIDTH-")
        print(f"{key[0]:<12} {key[1]:<28} "
              f"{b['ms']:>10.3f} {a['ms']:>10.3f} "
              f"{fmt_delta(b['ms'], a['ms']):>8} "
              f"{launches_cell:>14} {colors_cell:>11} "
              f"{imbal_cell:>12}  "
              f"{' '.join(flags)}")
        if flags:
            regressions.append((key, flags))

    for key in only_base:
        print(f"{key[0]:<12} {key[1]:<28} (only in baseline)")
    for key in only_after:
        print(f"{key[0]:<12} {key[1]:<28} (only in after)")

    base_dirs = sum_directions([base[k] for k in common])
    after_dirs = sum_directions([after[k] for k in common])
    if any(base_dirs[d] or after_dirs[d] for d in ("push", "pull")):
        print()
        print("per-direction kernel launches (common pairs): "
              f"push {base_dirs['push']}->{after_dirs['push']}  "
              f"pull {base_dirs['pull']}->{after_dirs['pull']}  "
              f"direction-less {base_dirs['none']}->{after_dirs['none']}")

    print()
    gating = [(key, [f for f in flags if f in GATING_FLAGS])
              for key, flags in regressions]
    gating = [(key, flags) for key, flags in gating if flags]
    if regressions:
        print(f"{len(regressions)} regression(s) of {len(common)} pairs "
              f"({len(gating)} gating):")
        for key, flags in regressions:
            print(f"  {key[0]}/{key[1]}: {', '.join(flags)}")
    else:
        print(f"no regressions across {len(common)} pairs "
              f"(ms tolerance {ms_tolerance:.0%})")
    if gate and gating:
        return 1
    return 0


def fmt_delta(before: float, after: float) -> str:
    if before == 0:
        return "n/a"
    pct = 100.0 * (after - before) / before
    return f"{pct:+.1f}%"


# ---------------------------------------------------------------------------
# --self-test: exercise the flag/gate logic on synthetic reports so CI tests
# the gate script itself, not just the reports it reads.
# ---------------------------------------------------------------------------

def _record(dataset="d", algorithm="a", ms=10.0, launches=5, colors=4,
            valid=True, kernels=None) -> dict:
    return {
        "dataset": dataset, "algorithm": algorithm, "ms": ms, "ms_min": ms,
        "colors": colors, "iterations": 3, "kernel_launches": launches,
        "conflicts_resolved": 0, "valid": valid,
        "metrics": {"kernels": kernels or {}},
    }


def _doc(records, meta=None) -> dict:
    doc = {"schema": SCHEMA, "bench": "self_test", "scale": 0.01, "runs": 1,
           "seed": 1, "records": records}
    if meta is not None:
        doc["meta"] = meta
    return doc


def _run_compare(base_doc, after_doc, gate=True, capture=None):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = compare(base_doc, after_doc, "<base>", "<after>",
                       ms_tolerance=0.25, imbalance_tolerance=0.25,
                       gate=gate)
    if capture is not None:
        capture.append(out.getvalue())
    return code


def _batch_only_exits(doc: dict) -> bool:
    """True when a batch-records-only report makes index_records bail out."""
    batch_only = dict(doc)
    batch_only["records"] = [r for r in doc["records"]
                             if r.get("kind") == "batch"]
    try:
        index_records(batch_only, "<batch-only>")
    except SystemExit:
        return True
    return False


def self_test() -> int:
    failures = []

    def check(name, condition):
        print(f"  {'ok' if condition else 'FAIL'}: {name}")
        if not condition:
            failures.append(name)

    print("bench_diff --self-test")

    # Identical reports pass the gate.
    base = _doc([_record()])
    check("identical reports gate clean",
          _run_compare(base, _doc([_record()])) == 0)

    # Each deterministic regression fails the gate.
    check("LAUNCHES+ gates",
          _run_compare(base, _doc([_record(launches=6)])) == 1)
    check("COLORS+ gates",
          _run_compare(base, _doc([_record(colors=5)])) == 1)
    check("INVALID gates",
          _run_compare(base, _doc([_record(valid=False)])) == 1)

    # Launch/color DECREASES are improvements, not regressions.
    check("fewer launches/colors gate clean",
          _run_compare(base, _doc([_record(launches=4, colors=3)])) == 0)

    # SLOWER is advisory: flagged in output, exit 0 under --gate.
    out = []
    code = _run_compare(base, _doc([_record(ms=100.0)]), capture=out)
    check("SLOWER stays advisory", code == 0 and "SLOWER" in out[0])

    # Without --gate even deterministic regressions exit 0.
    check("no --gate never fails",
          _run_compare(base, _doc([_record(valid=False)]), gate=False) == 0)

    # IMBALANCE+ is advisory and fires only on a real worsening.
    def with_imbalance(ratio):
        return _doc([_record(kernels={
            "k": {"launches": 5, "items": 100, "total_ms": 9.0,
                  "busy_max_over_mean": ratio}})])
    out = []
    code = _run_compare(with_imbalance(1.0), with_imbalance(2.0), capture=out)
    check("IMBALANCE+ flagged advisory",
          code == 0 and "IMBALANCE+" in out[0])
    out = []
    code = _run_compare(with_imbalance(1.0), with_imbalance(1.1), capture=out)
    check("imbalance within tolerance unflagged",
          code == 0 and "IMBALANCE+" not in out[0])
    out = []
    code = _run_compare(base, with_imbalance(3.0), capture=out)
    check("imbalance skipped when baseline lacks telemetry",
          code == 0 and "IMBALANCE+" not in out[0])

    # Time-weighting: a skewed hot kernel dominates a balanced cold one.
    hot_cold = _doc([_record(kernels={
        "hot": {"launches": 1, "items": 10, "total_ms": 99.0,
                "busy_max_over_mean": 4.0},
        "cold": {"launches": 1, "items": 10, "total_ms": 1.0,
                 "busy_max_over_mean": 1.0}})])
    imbal = record_imbalance(hot_cold["records"][0])
    check("record imbalance is time-weighted",
          imbal is not None and 3.9 < imbal < 4.0)

    # Per-direction launch accounting: "direction" field wins, name-suffix
    # fallback covers stamps from before the field existed, the rest lands
    # in the direction-less bucket.
    directed = _record(kernels={
        "gr::compute": {"launches": 7, "items": 10, "total_ms": 1.0,
                        "direction": "push"},
        "legacy_pull": {"launches": 3, "items": 10, "total_ms": 1.0},
        "gr::scan": {"launches": 2, "items": 10, "total_ms": 1.0},
    })
    dirs = direction_launches(directed)
    check("direction field counted", dirs["push"] == 7)
    check("name-suffix fallback counted", dirs["pull"] == 3)
    check("direction-less bucketed", dirs["none"] == 2)
    out = []
    _run_compare(_doc([_record()]), _doc([directed]), capture=out)
    check("per-direction summary printed",
          "per-direction kernel launches" in out[0]
          and "push 0->7" in out[0] and "pull 0->3" in out[0])
    out = []
    _run_compare(base, _doc([_record()]), capture=out)
    check("per-direction summary omitted without directions",
          "per-direction kernel launches" not in out[0])

    # Meta mismatch is reported.
    out = []
    _run_compare(_doc([_record()], meta={"workers": 1}),
                 _doc([_record()], meta={"workers": 4}), capture=out)
    check("meta mismatch printed", "meta.workers" in out[0])
    out = []
    _run_compare(_doc([_record()], meta={"workers": 4}),
                 _doc([_record()], meta={"workers": 4}), capture=out)
    check("matching meta silent", "meta.workers" not in out[0])

    # Batched-throughput records are ignored (different quantity: batch
    # wall time, no per-run launch/color fields).
    batch_record = {"dataset": "d", "algorithm": "a", "kind": "batch",
                    "batch": 8, "streams": 4, "ms": 5.0, "seq_ms": 10.0,
                    "graphs_per_s": 1600.0, "speedup_vs_sequential": 2.0,
                    "colors": 4, "pool_allocations": 0, "identical": True,
                    "valid": True}
    batched = _doc([_record(), batch_record], meta={"workers": 1,
                                                    "streams": 4})
    check("batch records skipped", _run_compare(base, batched) == 0)
    check("batch-only report refuses to diff", _batch_only_exits(batched))

    # The full v9 meta header: every config axis mismatch warns, never
    # gates; deterministic regressions still gate across any of them.
    def v9(kernels=None, launches=5, **overrides):
        meta = {"workers": 1, "gcol_threads": "1", "git_sha": "abc",
                "build_type": "Release", "advance_policy": "edge_balanced",
                "frontier_mode": "auto", "streams": 0,
                "reorder": "identity", "hw_counters": False,
                "peak_gbps": 25.0}
        meta.update(overrides)
        return _doc([_record(kernels=kernels, launches=launches)], meta=meta)
    check("v9 vs v9 compares", _run_compare(v9(), v9()) == 0)
    for key, before, after in (("frontier_mode", "auto", "bitmap-push"),
                               ("reorder", "identity", "dbg"),
                               ("hw_counters", False, True)):
        out = []
        code = _run_compare(v9(**{key: before}), v9(**{key: after}),
                            capture=out)
        check(f"meta.{key} mismatch warned, not gated",
              code == 0 and f"meta.{key}: {before!r} -> {after!r}" in out[0])
    # Cross-layout regressions still gate: reordering may not cost colors
    # or launches, so an identity-vs-dbg diff with LAUNCHES+ fails.
    check("cross-layout LAUNCHES+ still gates",
          _run_compare(v9(reorder="identity"),
                       v9(reorder="dbg", launches=6)) == 1)
    # peak_gbps is measured: small jitter stays silent, a big relative
    # difference (different machine) warns.
    out = []
    _run_compare(v9(peak_gbps=25.0), v9(peak_gbps=26.5), capture=out)
    check("peak_gbps jitter silent", "meta.peak_gbps" not in out[0])
    out = []
    code = _run_compare(v9(peak_gbps=25.0), v9(peak_gbps=50.0), capture=out)
    check("peak_gbps machine change warned, not gated",
          code == 0 and "meta.peak_gbps" in out[0])

    # BANDWIDTH-: achieved GB/s of the modeled traffic dropping beyond
    # tolerance is flagged, advisory only; recoveries and small dips stay
    # silent; baselines without traffic fields never flag.
    def traffic_kernels(gbps):
        return {"k": {"launches": 5, "items": 100, "total_ms": 9.0,
                      "bytes_read": 8_000_000, "bytes_written": 2_000_000,
                      "gbps": gbps}}
    bw_base = v9(kernels=traffic_kernels(10.0))
    out = []
    code = _run_compare(bw_base, v9(kernels=traffic_kernels(5.0)),
                        capture=out)
    check("BANDWIDTH- flagged advisory",
          code == 0 and "BANDWIDTH-" in out[0])
    out = []
    code = _run_compare(bw_base, v9(kernels=traffic_kernels(9.0)),
                        capture=out)
    check("bandwidth within tolerance unflagged",
          code == 0 and "BANDWIDTH-" not in out[0])
    out = []
    code = _run_compare(bw_base, v9(kernels=traffic_kernels(20.0)),
                        capture=out)
    check("bandwidth improvement unflagged",
          code == 0 and "BANDWIDTH-" not in out[0])
    out = []
    code = _run_compare(base, v9(kernels=traffic_kernels(5.0)), capture=out)
    check("bandwidth skipped when baseline lacks traffic model",
          code == 0 and "BANDWIDTH-" not in out[0])
    # record_bandwidth reconstructs the aggregate rate exactly.
    bw = record_bandwidth(bw_base["records"][0])
    check("record bandwidth reconstructed",
          bw is not None and 9.99 < bw < 10.01)

    # Any other schema is refused.
    try:
        check_schema({"schema": "gcol-bench-v8"}, "<v8>")
        refused = False
    except SystemExit:
        refused = True
    check("v8 schema refused", refused)

    if failures:
        print(f"self-test FAILED: {len(failures)} case(s)")
        return 1
    print("self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("after", nargs="?")
    parser.add_argument("--ms-tolerance", type=float, default=0.25,
                        help="relative ms increase tolerated as noise "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--imbalance-tolerance", type=float, default=0.25,
                        help="relative per-record imbalance increase "
                             "tolerated before the advisory IMBALANCE+ flag "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--bandwidth-tolerance", type=float, default=0.25,
                        help="relative achieved-GB/s drop (modeled traffic) "
                             "tolerated before the advisory BANDWIDTH- flag "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero on deterministic regressions "
                             "(LAUNCHES+/COLORS+/INVALID; SLOWER, "
                             "IMBALANCE+ and BANDWIDTH- stay advisory)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the script's own unit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.after is None:
        parser.error("baseline and after reports are required "
                     "(or pass --self-test)")

    base_doc = load_doc(args.baseline)
    after_doc = load_doc(args.after)
    return compare(base_doc, after_doc, args.baseline, args.after,
                   args.ms_tolerance, args.imbalance_tolerance, args.gate,
                   args.bandwidth_tolerance)


if __name__ == "__main__":
    sys.exit(main())
