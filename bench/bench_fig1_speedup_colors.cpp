// Figure 1 reproduction: per-dataset speedup vs. Naumov/Color_JPL (Fig. 1a)
// and number of colors (Fig. 1b) for all nine implementations across the 12
// real-world dataset analogues. Closes with the paper's summary statistics:
// Gunrock IS peak and geomean speedup over Naumov JPL, and the MIS-vs-greedy
// and MIS-vs-Naumov color ratios.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "core/batch.hpp"
#include "core/verify.hpp"
#include "graph/datasets.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "sim/timer.hpp"

namespace {

using namespace gcol;

/// --batch=N: batched-throughput mode. For every (dataset, algorithm) cell,
/// time N sequential single-graph runs on the full device, then one N-graph
/// color::Batch (averaged over --runs passes after a warmup pass), and
/// report throughput plus batch-vs-sequential speedup. The warm batch must
/// never touch the upstream allocator (the streams' pooled scratch lanes
/// reach their high-water sizes during warmup), and every batched coloring
/// must be byte-identical to the sequential reference for the deterministic
/// algorithms — both are hard failures, so CI catches regressions in the
/// stream/pool layer the moment this mode runs.
int run_batch_mode(const bench::Args& args,
                   const std::vector<const color::AlgorithmSpec*>& algorithms) {
  sim::Device& device = sim::Device::instance();
  const unsigned full_width = device.num_workers();
  unsigned streams = 0;
  unsigned stream_width = 0;
  {
    // Probe the stream topology a default-constructed batch would use; the
    // measurement loop constructs a fresh Batch per cell so the sequential
    // reference keeps the whole device (no lanes leased while it runs).
    const color::Batch probe(device);
    streams = probe.num_streams();
    stream_width = probe.stream_width();
  }
  bench::JsonReport report("fig1_speedup_colors", args, streams);
  // The racy proposal/resolution algorithms are not run-to-run
  // deterministic at any width > 1, so byte-identity is only checked for
  // the rest (mirrors tests/core/batch_test.cpp).
  const bool any_parallel = full_width > 1 || stream_width > 1;
  const auto raced = [&](const std::string& name) {
    return any_parallel && (name == "gunrock_hash" || name == "gm_speculative");
  };

  std::printf("== Figure 1 batched mode: %d-graph batches on %u streams x "
              "width %u, vs %d sequential runs (scale=%.3f, runs=%d) ==\n\n",
              args.batch, streams, stream_width, args.batch, args.scale,
              args.runs);

  std::vector<std::string> headers = {"dataset"};
  for (const auto* spec : algorithms) headers.push_back(spec->display_name);
  bench::TablePrinter throughput_table(headers, args.csv);
  bench::TablePrinter speedup_table(headers, args.csv);
  std::vector<double> speedups;

  for (const graph::DatasetInfo& info : bench::selected_datasets(args)) {
    const graph::Csr csr = graph::build_dataset(info, args.scale);
    std::vector<std::string> throughput_row = {info.name};
    std::vector<std::string> speedup_row = {info.name};
    for (const auto* spec : algorithms) {
      color::Options options;
      options.seed = args.seed;
      options.frontier_mode = args.frontier_mode;

      // Sequential reference: N back-to-back single-graph runs with the
      // full device (the batch below leases its lanes only after this).
      sim::Stopwatch seq_watch;
      color::Coloring reference;
      for (int n = 0; n < args.batch; ++n) {
        color::Coloring run = spec->run(csr, options);
        if (n == 0) reference = std::move(run);
      }
      const double seq_ms = seq_watch.elapsed_ms();

      const std::vector<color::BatchItem> items(
          static_cast<std::size_t>(args.batch),
          color::BatchItem{&csr, options});
      std::atomic<std::uint64_t> upstream{0};
      std::vector<color::Coloring> batched;
      double batch_ms = 0.0;
      {
        color::Batch batch(device);
        (void)batch.run(*spec, items);  // warmup: pooled lanes reach size
        device.memory_pool().set_alloc_hook([&upstream](std::size_t) {
          upstream.fetch_add(1, std::memory_order_relaxed);
        });
        device.memory_pool().reset_stats();
        double total = 0.0;
        for (int r = 0; r < args.runs; ++r) {
          sim::Stopwatch watch;
          batched = batch.run(*spec, items);
          total += watch.elapsed_ms();
        }
        device.memory_pool().set_alloc_hook({});
        batch_ms = total / args.runs;
      }
      const std::uint64_t pool_allocs = upstream.load();
      if (pool_allocs != 0) {
        std::fprintf(stderr,
                     "POOL MISS: %s on %s hit the upstream allocator %llu "
                     "times after warmup\n",
                     spec->name.c_str(), info.name.c_str(),
                     static_cast<unsigned long long>(pool_allocs));
        return 1;
      }
      bool identical = true;
      for (std::size_t g = 0; g < batched.size(); ++g) {
        if (!color::is_valid_coloring(csr, batched[g].colors)) {
          std::fprintf(stderr, "INVALID batched coloring: %s on %s graph %zu\n",
                       spec->name.c_str(), info.name.c_str(), g);
          return 1;
        }
        identical = identical && batched[g].colors == reference.colors;
      }
      if (!identical && !raced(spec->name)) {
        std::fprintf(stderr,
                     "DIVERGED: %s on %s batched coloring differs from the "
                     "sequential path\n",
                     spec->name.c_str(), info.name.c_str());
        return 1;
      }

      const double throughput = args.batch * 1000.0 / batch_ms;
      const double speedup = seq_ms / batch_ms;
      speedups.push_back(speedup);
      throughput_row.push_back(bench::fmt(throughput, 1));
      speedup_row.push_back(bench::fmt(speedup));

      obs::Json record = obs::Json::object();
      record.set("dataset", info.name);
      record.set("algorithm", spec->name);
      record.set("kind", "batch");
      record.set("batch", static_cast<std::int64_t>(args.batch));
      record.set("streams", static_cast<std::int64_t>(streams));
      record.set("ms", batch_ms);
      record.set("seq_ms", seq_ms);
      record.set("graphs_per_s", throughput);
      record.set("speedup_vs_sequential", speedup);
      record.set("colors", batched.empty() ? 0 : batched[0].num_colors);
      record.set("pool_allocations", static_cast<std::int64_t>(pool_allocs));
      record.set("identical", identical);
      record.set("valid", true);
      report.add_record(std::move(record));
    }
    throughput_table.add_row(std::move(throughput_row));
    speedup_table.add_row(std::move(speedup_row));
  }

  std::printf("-- batched throughput (graphs/s, higher is better) --\n");
  throughput_table.print();
  std::printf("\n-- batch speedup vs %d sequential runs (higher is better) "
              "--\n",
              args.batch);
  speedup_table.print();
  std::printf("\n== summary ==\n");
  std::printf("batch-vs-sequential speedup: geomean %.2fx over %zu cells "
              "(zero upstream allocations after warmup on every cell)\n",
              bench::geomean(speedups), speedups.size());
  if (!report.write()) {
    std::fprintf(stderr, "FAILED to write JSON report\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto algorithms = bench::selected_algorithms(args);
  if (args.batch > 0) return run_batch_mode(args, algorithms);
  const auto selected = [&](const char* name) {
    return std::any_of(algorithms.begin(), algorithms.end(),
                       [&](const auto* spec) { return spec->name == name; });
  };
  // The paper's summary statistics compare specific series; a custom
  // --algorithms list that omits one simply skips the stats that need it.
  const bool have_baseline = selected("naumov_jpl");
  const bool have_is_summary = have_baseline && selected("gunrock_is");
  const bool have_mis_summary = selected("grb_mis") && selected("cpu_greedy") &&
                                selected("naumov_jpl") && selected("naumov_cc");
  const bool have_grb_summary =
      selected("grb_is") && selected("grb_mis") && selected("grb_jpl");
  bench::JsonReport report("fig1_speedup_colors", args);
  // --trace: record the whole run (every algorithm, every dataset) into one
  // Chrome trace-event timeline. The session installs itself as the
  // device's tracer slot, so the per-run ScopedDeviceMetrics inside each
  // algorithm does not mask it.
  std::unique_ptr<obs::TraceSession> trace;
  if (!args.trace_path.empty()) {
    // Calibrate the roofline ceiling BEFORE the session starts so the
    // triad's own launches stay off the timeline, then stamp it (plus
    // whether kernel spans carry real hardware counters) into the trace's
    // gcol_meta for scripts/trace_report.py.
    const double peak = bench::peak_gbps();
    trace = std::make_unique<obs::TraceSession>();
    trace->set_meta(peak, args.hw_counters);
  }

  std::printf("== Figure 1: speedup vs Naumov/Color_JPL and color counts "
              "(scale=%.3f, runs=%d) ==\n\n",
              args.scale, args.runs);

  std::vector<std::string> headers = {"dataset"};
  for (const auto* spec : algorithms) headers.push_back(spec->display_name);
  bench::TablePrinter speedup_table(headers, args.csv);
  bench::TablePrinter colors_table(headers, args.csv);
  bench::TablePrinter runtime_table(headers, args.csv);

  // Summary accumulators.
  std::vector<double> gunrock_is_speedups;
  double gunrock_is_peak = 0.0;
  std::string gunrock_is_peak_dataset;
  std::vector<double> mis_vs_greedy, mis_vs_naumov_jpl, mis_vs_naumov_cc;
  std::vector<double> mis_runtime_vs_is, jpl_runtime_vs_is;

  for (const graph::DatasetInfo& info : bench::selected_datasets(args)) {
    const graph::Csr csr = graph::build_dataset(info, args.scale);
    const obs::ScopedPhase dataset_phase(info.name);
    std::map<std::string, bench::Measurement> results;
    for (const auto* spec : algorithms) {
      results[spec->name] = bench::run_averaged(
          *spec, csr, args.seed, args.runs, args.frontier_mode, args.reorder);
      if (!results[spec->name].valid) {
        std::fprintf(stderr, "INVALID coloring: %s on %s\n",
                     spec->name.c_str(), info.name.c_str());
        return 1;
      }
      report.add_measurement(info.name, results[spec->name]);
    }

    const double baseline_ms =
        have_baseline ? results["naumov_jpl"].ms_avg : 0.0;
    std::vector<std::string> speedup_row = {info.name};
    std::vector<std::string> colors_row = {info.name};
    std::vector<std::string> runtime_row = {info.name};
    for (const auto* spec : algorithms) {
      const bench::Measurement& m = results[spec->name];
      speedup_row.push_back(have_baseline ? bench::fmt(baseline_ms / m.ms_avg)
                                          : "-");
      colors_row.push_back(std::to_string(m.result.num_colors));
      runtime_row.push_back(bench::fmt(m.ms_avg));
    }
    speedup_table.add_row(std::move(speedup_row));
    colors_table.add_row(std::move(colors_row));
    runtime_table.add_row(std::move(runtime_row));

    if (have_is_summary) {
      const double is_speedup = baseline_ms / results["gunrock_is"].ms_avg;
      gunrock_is_speedups.push_back(is_speedup);
      if (is_speedup > gunrock_is_peak) {
        gunrock_is_peak = is_speedup;
        gunrock_is_peak_dataset = info.name;
      }
    }
    const auto colors_of = [&](const char* name) {
      return static_cast<double>(results[name].result.num_colors);
    };
    if (have_mis_summary) {
      mis_vs_greedy.push_back(colors_of("cpu_greedy") / colors_of("grb_mis"));
      mis_vs_naumov_jpl.push_back(colors_of("naumov_jpl") /
                                  colors_of("grb_mis"));
      mis_vs_naumov_cc.push_back(colors_of("naumov_cc") /
                                 colors_of("grb_mis"));
    }
    if (have_grb_summary) {
      mis_runtime_vs_is.push_back(results["grb_mis"].ms_avg /
                                  results["grb_is"].ms_avg);
      jpl_runtime_vs_is.push_back(results["grb_jpl"].ms_avg /
                                  results["grb_is"].ms_avg);
    }
  }

  std::printf("-- Fig 1a: speedup vs Naumov/Color_JPL (higher is better) "
              "--\n");
  speedup_table.print();
  std::printf("\n-- Fig 1b: number of colors (lower is better) --\n");
  colors_table.print();
  std::printf("\n-- raw runtimes (ms) --\n");
  runtime_table.print();

  std::printf("\n== summary vs paper claims ==\n");
  if (have_is_summary) {
    std::printf("Gunrock IS vs Naumov JPL speedup: geomean %.2fx (paper "
                "1.3x), peak %.2fx on %s (paper 2x on parabolic_fem)\n",
                bench::geomean(gunrock_is_speedups), gunrock_is_peak,
                gunrock_is_peak_dataset.c_str());
  }
  if (have_mis_summary) {
    std::printf("GraphBLAST MIS colors vs greedy: geomean ratio %.3fx fewer "
                "(paper 1.014x)\n",
                bench::geomean(mis_vs_greedy));
    std::printf("GraphBLAST MIS colors vs Naumov JPL: geomean %.2fx fewer "
                "(paper 1.9x)\n",
                bench::geomean(mis_vs_naumov_jpl));
    std::printf("GraphBLAST MIS colors vs Naumov CC: geomean %.2fx fewer "
                "(paper 5.0x)\n",
                bench::geomean(mis_vs_naumov_cc));
  }
  if (have_grb_summary) {
    std::printf("GraphBLAST runtime vs its IS: JPL %.2fx slower (paper "
                "1.98x), MIS %.2fx slower (paper 3x)\n",
                bench::geomean(jpl_runtime_vs_is),
                bench::geomean(mis_runtime_vs_is));
  }
  if (!have_is_summary && !have_mis_summary && !have_grb_summary) {
    std::printf("(custom --algorithms list: paper summary series not all "
                "present)\n");
  }
  if (!report.write()) {
    std::fprintf(stderr, "FAILED to write JSON report\n");
    return 1;
  }
  if (trace != nullptr) {
    if (!trace->write(args.trace_path)) {
      std::fprintf(stderr, "FAILED to write trace\n");
      return 1;
    }
    std::printf("\ntrace: %s (%zu events; open in ui.perfetto.dev)\n",
                args.trace_path.c_str(), trace->event_count());
  }
  return 0;
}
