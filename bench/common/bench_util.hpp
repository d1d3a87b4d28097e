#pragma once
// Shared harness utilities for the paper-reproduction benchmarks: argument
// parsing, averaged timed runs with validation (the paper averages 10 runs;
// we default to 3 for CI speed — override with --runs=10), aligned table
// printing with optional CSV output, and the geometric mean the paper's
// speedup summaries use.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "core/result.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/reorder.hpp"
#include "gunrock/frontier.hpp"
#include "obs/json.hpp"

namespace gcol::bench {

struct Args {
  /// Fraction of each paper dataset's vertex count to generate. The default
  /// keeps the full suite in minutes on a small machine; --scale=1
  /// regenerates full-size analogues.
  double scale = 0.03;
  int runs = 3;           ///< timed repetitions averaged per data point
  bool csv = false;       ///< machine-readable output instead of tables
  int min_rgg_scale = 12; ///< Figure 3 sweep lower bound (paper: 15)
  int max_rgg_scale = 17; ///< Figure 3 sweep upper bound (paper: 24)
  std::uint64_t seed = 1;
  std::string json_path;  ///< --json: write a machine-readable report here
  std::string trace_path; ///< --trace: write a Chrome trace-event JSON here
  std::string datasets;   ///< --datasets: comma-separated name filter
  std::string algorithms; ///< --algorithms: comma-separated registry names
  /// --frontier: frontier direction policy handed to every measured run
  /// (bitmap-push | bitmap-pull | auto).
  gr::FrontierMode frontier_mode = gr::FrontierMode::kAuto;
  /// --reorder: cache-aware CSR relabeling strategy applied inside every
  /// measured run (identity | degree_sort | dbg | bfs). The registry
  /// un-permutes colors back to the input labeling, so only locality — not
  /// the external contract — changes.
  graph::ReorderStrategy reorder = graph::ReorderStrategy::kIdentity;
  /// --batch: number of graph copies colored per batched cell. 0 (the
  /// default) keeps the harness in classic single-graph mode; N > 0 switches
  /// supporting harnesses into batched-throughput mode, comparing one
  /// N-graph color::Batch against N sequential single-graph runs.
  int batch = 0;
  /// --hw-counters: sample perf_event hardware counters (cycles,
  /// instructions, LLC, branch misses) around every observed launch.
  /// parse_args resolves this to ACTUAL availability — it stays false when
  /// the flag was passed but perf_event_open is denied (non-Linux, seccomp,
  /// perf_event_paranoid), so meta.hw_counters never lies.
  bool hw_counters = false;
};

/// Parses --scale=0.1 --runs=10 --csv --min-rgg=15 --max-rgg=20 --seed=7
/// --json out.json (or --json=out.json) --trace out.trace.json
/// --datasets=offshore,G3_circuit.
/// Prints usage and exits on --help or unknown arguments.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// True when `name` passes the --datasets filter (an empty filter passes
/// everything). Matching is exact per comma-separated token.
[[nodiscard]] bool dataset_selected(const Args& args, std::string_view name);

/// The datasets a Figure-1-style harness should run: the paper's twelve
/// passing the --datasets filter, plus one synthetic power-law extra per
/// `rmat_<scale>` filter token (graph::rmat_dataset — not a Table I row,
/// so it only runs when named explicitly). Prints an error and exits on a
/// malformed rmat token; scales outside [8, 24] are rejected.
[[nodiscard]] std::vector<graph::DatasetInfo> selected_datasets(
    const Args& args);

/// The algorithms a Figure-1-style harness should run: the paper's nine
/// when --algorithms is empty, otherwise the named registry entries (any
/// registered algorithm — ablation variants and the JP priority family
/// included). Prints an error and exits on an unknown name.
[[nodiscard]] std::vector<const color::AlgorithmSpec*> selected_algorithms(
    const Args& args);

struct Measurement {
  double ms_avg = 0.0;
  double ms_min = 0.0;
  color::Coloring result;  ///< from the last run
  bool valid = false;      ///< every run verified
};

/// Runs `spec` on `csr` `runs` times, verifying each output, and returns the
/// averaged wall time plus the final coloring. When a TraceSession is active
/// each timed run appears as a "run:<algorithm>" phase span on its timeline.
/// `mode` is the frontier policy for the frontier-driven algorithms (others
/// ignore it); harnesses pass Args::frontier_mode. `reorder` is the CSR
/// relabeling strategy the registry applies (and un-permutes) around the
/// color phase; harnesses pass Args::reorder.
[[nodiscard]] Measurement run_averaged(
    const color::AlgorithmSpec& spec, const graph::Csr& csr,
    std::uint64_t seed, int runs,
    gr::FrontierMode mode = gr::FrontierMode::kAuto,
    graph::ReorderStrategy reorder = graph::ReorderStrategy::kIdentity);

/// Geometric mean (the paper's summary statistic for speedups).
[[nodiscard]] double geomean(std::span<const double> values);

/// The machine's measured peak memory bandwidth (GB/s, STREAM-style triad —
/// obs::measure_peak_gbps), the roofline ceiling reports record as
/// meta.peak_gbps. Measured once per process on first call (~tens of ms)
/// and cached; harnesses call it only on reporting paths (--json/--trace)
/// so classic table runs never pay for the calibration.
[[nodiscard]] double peak_gbps();

/// Aligned table printing; in CSV mode prints comma-separated instead.
class TablePrinter {
 public:
  TablePrinter(std::vector<std::string> headers, bool csv);
  void add_row(std::vector<std::string> cells);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  bool csv_;
};

/// Formats a double with fixed precision.
[[nodiscard]] std::string fmt(double value, int precision = 2);

/// Accumulates one schema-stable JSON record per (dataset, algorithm) data
/// point and writes the whole report on demand:
///
///   {"schema": "gcol-bench-v9", "bench": <name>, "scale": F, "runs": N,
///    "seed": N, "meta": {"workers": N, "gcol_threads": S, "git_sha": S,
///    "build_type": S, "advance_policy": S, "frontier_mode": S,
///    "streams": N, "reorder": S, "hw_counters": B, "peak_gbps": F},
///    "records": [{"dataset": ..., "algorithm": ..., "ms": F,
///    "ms_min": F, "colors": N, "iterations": N, "kernel_launches": N,
///    "conflicts_resolved": N, "valid": B, "display_name": ...,
///    "metrics": {...}}, ...]}
///
/// v9 over v8: the "simd" meta key is gone with the compile-selected SIMD
/// backends it named; sim/simd.hpp has one word-loop implementation.
///
/// v8 over v7: v7's trailing replay-mode meta key and its per-kernel
/// replayed-launch / barrier-interval counters are gone with the launch
/// replay mode they described; every launch now pays exactly one barrier.
///
/// v6 over v5: the trailing "hw_counters" (were perf_event counters
/// actually sampled — false covers both "flag absent" and "flag passed but
/// denied") and "peak_gbps" (the machine's measured STREAM-triad bandwidth,
/// the roofline ceiling) meta keys, plus per-kernel traffic-model fields
/// (bytes_read, bytes_written, gbps) and — under --hw-counters — raw
/// counter sums and derived ipc/llc_miss_rate inside each record's
/// metrics.kernels entries (DESIGN.md §3h).
///
/// v5 over v4: the trailing "reorder" meta key — the cache-aware CSR
/// relabeling strategy the measured runs colored under (graph/reorder.hpp:
/// identity | degree_sort | dbg | bfs). Reordering is transparent to the
/// coloring contract (the registry un-permutes colors back to the input
/// labeling), so this key is what distinguishes two otherwise-identical
/// reports in a locality ablation, and bench_diff warns when it moves.
///
/// v4 over v3: a "simd" meta key naming the compile-selected SIMD backend
/// (removed again in v9).
///
/// v3 over v2: the trailing "streams" meta key — the number of device
/// streams the harness scheduled work onto (0 for a classic host-only run),
/// plus the optional per-kernel "streams" count inside metrics.kernels
/// entries whenever a kernel ran on a non-default stream. Batched harnesses
/// (--batch) also append records with "kind": "batch" carrying throughput
/// and batch-vs-sequential speedup; classic records are unchanged.
///
/// v2 over v1: the "meta" run-environment header, plus per-kernel imbalance
/// fields (busy_max_over_mean, barrier_wait_share, items_cov) inside each
/// record's metrics.kernels entries — populated because the measured runs
/// execute under a ScopedDeviceMetrics, whose listener turns on the
/// device's per-slot telemetry.
///
/// Key order is fixed by construction (obs::Json preserves insertion order),
/// so reports diff cleanly across runs and CI can validate them against a
/// fixed schema.
class JsonReport {
 public:
  /// `streams` is the device-stream count the measured runs were scheduled
  /// onto, recorded as meta.streams; classic single-graph harnesses pass 0.
  JsonReport(std::string bench_name, const Args& args, unsigned streams = 0);

  /// True when --json was passed; harnesses skip reporting otherwise.
  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  /// Appends the standard record for one measured (dataset, algorithm) cell.
  void add_measurement(std::string_view dataset, const Measurement& m);

  /// Appends a custom record (dataset statistics, ablation rows, ...).
  /// The caller owns the schema of these; "dataset" should still lead.
  void add_record(obs::Json record);

  /// Writes the report to the --json path. No-op (returns true) when
  /// disabled; returns false on I/O failure.
  [[nodiscard]] bool write() const;

 private:
  std::string path_;
  obs::Json header_;   ///< top-level fields, in schema order
  obs::Json records_;  ///< accumulated record array
};

}  // namespace gcol::bench
