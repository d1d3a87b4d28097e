#!/usr/bin/env python3
"""Alternating A/B runs of the perfbench benchmark between two checkouts.

Runs `python3 <root>/perfbench/run.py --workload W --seed S --seconds T
--trace 0` K times in each of two checkout roots, alternating the roots
(the parent root first on odd pairs, the change root first on even ones) and
giving pair i the seed FIRST_SEED + i - 1. Each run builds its root's
harness on first use, so the two roots measure their own sources.

For every end-to-end metric that BENCHMARK.json declares it prints one
Markdown row per workload: the median of each side, the change in the
median (Δ), each side's interquartile range over its median, the pairs the
change won (strictly better in the metric's direction), and a verdict
against the metric's bound:

  worse   the change's median is worse than the parent's by more than the bound
  spread  a side's IQR over its median exceeds the bound (too noisy to tell)
  gain    the change won at least 9 in 10 pairs and its median is better by
          more than the parent's IQR and by more than the bound
  gain<bound  as gain, but the median moved no more than the bound: a real
          move, yet too small to claim against that bound
  ok      none of the above

`--aa` runs one root against itself (an A/A control: expect no verdict
other than ok). `--pad N` is the layout control: it copies the one root
to `ROOT-padN` beside it (replacing any earlier copy), appends N bytes of
never-executed padding to .text.unlikely in one library source, and runs
the root against that copy. .text.unlikely is where `[[gnu::cold]]` code
goes and the GNU linker places it ahead of the hot .text, so the copy moves
every hot function by N bytes and changes nothing else: a verdict there is
code placement, not code. `--log FILE` appends every run's result as one
JSON line; `--from-log FILE` re-renders the table from such a log without
running anything. `--self-test` checks the statistics and verdicts on canned runs.

Usage (from any directory):
  perf_ab.py PARENT_ROOT CHANGE_ROOT --workload powerlaw_rmat --pairs 10
             --first-seed 101 [--seconds 20] [--log ab.jsonl]
  perf_ab.py ROOT --aa --workload fem_mesh --pairs 10 --first-seed 1
  perf_ab.py ROOT --pad 96 --workload batch_small --pairs 10 --first-seed 1
  perf_ab.py --from-log ab.jsonl [--benchmark BENCHMARK.json]
  perf_ab.py --self-test
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
GAIN_WIN_SHARE = 0.9
# Library source the layout control pads: always linked, never hot.
PAD_FILE = Path("src/core/registry.cpp")
# Top-level entries a padded copy leaves behind: history and build trees.
PAD_SKIP = {".git", ".bench_build", "build"}


def load_metrics(benchmark_path: Path) -> list[dict]:
    with open(benchmark_path) as f:
        return json.load(f)["end_to_end"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative_iqr(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: dict, parent: list[float], change: list[float],
            wins: int) -> str:
    """Classifies one metric's paired runs (see the module docstring)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_median = statistics.median(change)
    worsening = sign * (change_median - parent_median)
    if parent_median and worsening / abs(parent_median) > metric["bound"]:
        return "worse"
    if max(relative_iqr(parent), relative_iqr(change)) > metric["bound"]:
        return "spread"
    if (wins >= math.ceil(GAIN_WIN_SHARE * len(parent)) and
            -worsening > parent_q3 - parent_q1):
        if parent_median and -worsening / abs(parent_median) > metric["bound"]:
            return "gain"
        return "gain<bound"
    return "ok"


def summarize(runs: list[dict], metrics: list[dict]) -> tuple[list, list]:
    """Returns (rows, notes) for the runs of every workload in `runs`.

    Each run is {"workload", "pair", "side", "seed", "result"}, where
    "result" is the run's JSON line or None when the run failed.
    """
    rows, notes = [], []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict | None]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        failed = {side: 0 for side in SIDES}
        complete = []
        for pair in sorted(pairs):
            sides = pairs[pair]
            for side in SIDES:
                if side not in sides:
                    continue  # not run yet (a log read mid-run)
                result = sides[side]
                if result is None or result.get("failed", 0):
                    failed[side] += 1
            if all(sides.get(side) is not None for side in SIDES):
                complete.append(sides)
        notes.append(f"{workload}: {len(complete)} complete pairs; runs with "
                     f"failures: parent {failed['parent']}, change "
                     f"{failed['change']}")
        if "colors" in {m["name"] for m in metrics} and complete:
            equal = sum(s["parent"]["metrics"]["colors"]["value"] ==
                        s["change"]["metrics"]["colors"]["value"]
                        for s in complete)
            notes.append(f"{workload}: colors equal in {equal}/"
                         f"{len(complete)} pairs")
        for metric in metrics:
            name = metric["name"]
            try:
                parent, change = ([s[side]["metrics"][name]["value"]
                                   for s in complete] for side in SIDES)
            except KeyError:
                continue
            if not parent:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            parent_median = statistics.median(parent)
            change_median = statistics.median(change)
            delta = ((change_median - parent_median) / abs(parent_median)
                     if parent_median else 0.0)
            rows.append({
                "workload": workload, "metric": name,
                "parent": parent_median, "change": change_median,
                "delta": delta,
                "iqr_parent": relative_iqr(parent),
                "iqr_change": relative_iqr(change),
                "wins": wins, "pairs": len(parent),
                "verdict": verdict(metric, parent, change, wins),
            })
    return rows, notes


def render(rows: list[dict], notes: list[str]) -> str:
    def number(value: float) -> str:
        return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"

    def percent(value: float) -> str:
        return f"{100 * value:+.1f}%".replace("-", "−")

    lines = ["| workload | metric | parent | change | Δ | "
             "IQR parent / change | wins | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} | "
            f"{number(row['parent'])} | {number(row['change'])} | "
            f"{percent(row['delta'])} | {100 * row['iqr_parent']:.1f}% / "
            f"{100 * row['iqr_change']:.1f}% | {row['wins']}/{row['pairs']} | "
            f"{row['verdict']} |")
    return "\n".join(lines + [""] + notes)


def pad_source(text: str, pad_bytes: int) -> str:
    """Appends `pad_bytes` bytes of never-executed padding to .text.unlikely."""
    return text + (
        "\n// Layout control (scripts/perf_ab.py --pad): unused padding.\n"
        'asm(".pushsection .text.unlikely,\\"ax\\",@progbits\\n"\n'
        f'    ".skip {pad_bytes}\\n"\n'
        '    ".popsection");\n')


def make_padded_copy(root: Path, pad_bytes: int, dest: Path) -> Path:
    """Copies `root` to `dest` (replacing it) with PAD_FILE padded."""
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(root, dest, ignore=lambda where, names: [
        name for name in names if Path(where) == root and name in PAD_SKIP])
    target = dest / PAD_FILE
    target.write_text(pad_source(target.read_text(), pad_bytes))
    return dest


def unlikely_bytes(source: str, workdir: Path) -> int | None:
    """Size of .text.unlikely after compiling `source`, or None without g++."""
    if shutil.which("g++") is None or shutil.which("size") is None:
        return None
    src, obj = workdir / "pad.cpp", workdir / "pad.o"
    src.write_text(source)
    subprocess.run(["g++", "-std=c++20", "-O2", "-c", str(src), "-o",
                    str(obj)], check=True)
    listing = subprocess.run(["size", "-A", str(obj)], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    for line in listing.splitlines():
        fields = line.split()
        if fields and fields[0] == ".text.unlikely":
            return int(fields[1])
    return 0


def run_once(root: Path, workload: str, seed: int, seconds: int):
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_pairs(roots: tuple[Path, Path], workloads: list[str], pairs: int,
              first_seed: int, seconds: int, log_path: str | None):
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            seed = first_seed + pair - 1
            order = SIDES if pair % 2 == 1 else SIDES[::-1]
            for side in order:
                root = roots[SIDES.index(side)]
                result = run_once(root, workload, seed, seconds)
                run = {"workload": workload, "pair": pair, "side": side,
                       "seed": seed, "result": result}
                runs.append(run)
                status = "failed" if result is None else "ok"
                print(f"{workload} pair {pair} seed {seed} {side}: {status}",
                      file=sys.stderr)
                if log_path:
                    with open(log_path, "a") as f:
                        f.write(json.dumps(run) + "\n")
    return runs


def self_test() -> int:
    metrics = [{"name": "greedy_ms", "better": "lower", "bound": 0.25},
               {"name": "colors", "better": "lower", "bound": 0.1}]

    def result(greedy, colors=100, failed=0):
        return {"failed": failed, "metrics": {
            "greedy_ms": {"value": greedy}, "colors": {"value": colors}}}

    def runs_for(workload, parent, change):
        out = []
        for pair, (b, c) in enumerate(zip(parent, change), start=1):
            out.append({"workload": workload, "pair": pair, "side": "parent",
                        "seed": pair, "result": b})
            out.append({"workload": workload, "pair": pair, "side": "change",
                        "seed": pair, "result": c})
        return out

    parent = [20.0, 19.0, 21.0, 20.5, 19.5, 20.0, 19.8, 20.2, 20.1, 19.9]
    runs = runs_for("gain", [result(v) for v in parent],
                    [result(v / 2) for v in parent])
    # Wins every pair and beats the parent's IQR, but by 10% < the bound.
    runs += runs_for("small", [result(v) for v in parent],
                     [result(v * 0.9) for v in parent])
    runs += runs_for("worse", [result(v) for v in parent],
                     [result(v * 1.5) for v in parent])
    runs += runs_for("spread", [result(v) for v in parent],
                     [result(v * (0.6 if k % 2 else 1.4))
                       for k, v in enumerate(parent)])
    runs += runs_for("same", [result(v) for v in parent],
                     [result(v) for v in parent])
    # One change run crashed, one reported a failed call.
    crashed = [result(v) for v in parent]
    crashed[3] = None
    crashed[4] = result(19.5, failed=1)
    runs += runs_for("crash", [result(v) for v in parent], crashed)
    # A log read mid-run: the second pair's change run has not happened.
    runs += runs_for("partial", [result(20.0)], [result(19.0)])
    runs.append({"workload": "partial", "pair": 2, "side": "parent",
                 "seed": 2, "result": result(21.0)})

    rows, notes = summarize(runs, metrics)
    got = {(r["workload"], r["metric"]): r for r in rows}
    checks = [
        (got[("gain", "greedy_ms")]["verdict"], "gain"),
        (got[("gain", "greedy_ms")]["wins"], 10),
        (round(got[("gain", "greedy_ms")]["delta"], 6), -0.5),
        (got[("gain", "colors")]["verdict"], "ok"),
        (got[("gain", "colors")]["wins"], 0),
        (got[("small", "greedy_ms")]["verdict"], "gain<bound"),
        (got[("small", "greedy_ms")]["wins"], 10),
        (got[("worse", "greedy_ms")]["verdict"], "worse"),
        (got[("spread", "greedy_ms")]["verdict"], "spread"),
        (got[("same", "greedy_ms")]["verdict"], "ok"),
        (got[("same", "greedy_ms")]["wins"], 0),
        (got[("crash", "greedy_ms")]["pairs"], 9),
        ("crash: 9 complete pairs; runs with failures: parent 0, change 2"
         in notes, True),
        ("gain: colors equal in 10/10 pairs" in notes, True),
        ("partial: 1 complete pairs; runs with failures: parent 0, change 0"
         in notes, True),
        (quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0)),
        (relative_iqr([7.0]), 0.0),
    ]
    table = render(rows, notes)
    checks.append(("| gain | greedy_ms | 20 | 10 | −50.0% |" in table, True))

    # The layout control adds exactly N bytes to .text.unlikely, and the
    # padded copy differs from its root in PAD_FILE alone.
    plain = "[[gnu::cold]] int rare(int x) { return x * 3; }\n"
    checks.append((pad_source(plain, 96).startswith(plain), True))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        before = unlikely_bytes(plain, tmp)
        if before is not None:
            checks.append((unlikely_bytes(pad_source(plain, 96), tmp) - before,
                           96))
        root = tmp / "root"
        (root / PAD_FILE).parent.mkdir(parents=True)
        (root / PAD_FILE).write_text(plain)
        (root / "README.md").write_text("readme\n")
        (root / ".bench_build").mkdir()
        (root / "src" / "build").mkdir()
        copy = make_padded_copy(root, 32, tmp / "copy")
        checks.append(((copy / PAD_FILE).read_text(), pad_source(plain, 32)))
        checks.append(((copy / "README.md").read_text(), "readme\n"))
        checks.append(((copy / ".bench_build").exists(), False))
        checks.append(((copy / "src" / "build").is_dir(), True))
    failures = [(i, got_value, want) for i, (got_value, want)
                in enumerate(checks) if got_value != want]
    for index, got_value, want in failures:
        print(f"self-test check {index}: got {got_value!r}, want {want!r}")
    if failures:
        return 1
    print(f"self-test: {len(checks)} checks OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path,
                        help="PARENT_ROOT CHANGE_ROOT, or one ROOT with --aa")
    parser.add_argument("--workload", action="append", default=[],
                        help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--aa", action="store_true",
                        help="run the one root against itself")
    parser.add_argument("--pad", type=int, metavar="N",
                        help="run the one root against a copy of it whose "
                        "hot code sits N bytes later")
    parser.add_argument("--log", help="append each run as a JSON line")
    parser.add_argument("--from-log", help="render a log; run nothing")
    parser.add_argument("--benchmark", type=Path,
                        help="BENCHMARK.json (default: the first root's)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.from_log:
        with open(args.from_log) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        benchmark = args.benchmark or Path("BENCHMARK.json")
    else:
        if args.aa and args.pad is not None:
            parser.error("--aa and --pad exclude each other")
        expected = 1 if args.aa or args.pad is not None else 2
        if len(args.roots) != expected or not args.workload:
            parser.error(f"need {expected} root(s) and at least one "
                         "--workload")
        if args.pairs < 1:
            parser.error("--pairs must be >= 1")
        if args.pad is not None and args.pad < 1:
            parser.error("--pad must be >= 1")
        roots = tuple(root.resolve() for root in args.roots)
        if args.aa:
            roots = (roots[0], roots[0])
        if args.pad is not None:
            dest = roots[0].with_name(f"{roots[0].name}-pad{args.pad}")
            roots = (roots[0], make_padded_copy(roots[0], args.pad, dest))
        benchmark = args.benchmark or roots[0] / "BENCHMARK.json"
        runs = run_pairs(roots, args.workload, args.pairs, args.first_seed,
                         args.seconds, args.log)

    rows, notes = summarize(runs, load_metrics(benchmark))
    print(render(rows, notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
