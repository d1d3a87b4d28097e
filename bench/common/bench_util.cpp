#include "common/bench_util.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/verify.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "sim/timer.hpp"

namespace gcol::bench {

namespace {

[[noreturn]] void usage_and_exit(const char* program) {
  std::printf(
      "usage: %s [--scale=F] [--runs=N] [--csv] [--min-rgg=N] [--max-rgg=N] "
      "[--seed=N] [--json PATH] [--trace PATH] [--datasets=A,B]\n"
      "  --scale=F    dataset size as a fraction of the paper's (default "
      "0.03; 1.0 = full size)\n"
      "  --runs=N     timed repetitions to average (default 3; paper used "
      "10)\n"
      "  --csv        machine-readable CSV output\n"
      "  --min-rgg=N  smallest RGG scale for the Figure 3 sweep (default "
      "12)\n"
      "  --max-rgg=N  largest RGG scale for the Figure 3 sweep (default 17; "
      "paper used 24)\n"
      "  --seed=N     RNG seed (default 1)\n"
      "  --batch=N    batched-throughput mode: color N copies of each graph "
      "as one multi-stream batch and compare against N sequential runs "
      "(default 0 = classic mode)\n"
      "  --json PATH  also write a gcol-bench-v9 JSON report to PATH\n"
      "  --trace PATH also write a Chrome trace-event JSON (open in "
      "ui.perfetto.dev)\n"
      "  --datasets=A,B  only run the named datasets (default: all)\n"
      "  --algorithms=A,B  run the named registry algorithms (default: the "
      "paper's nine Figure-1 series)\n"
      "  --frontier=M frontier policy for the frontier-driven algorithms: "
      "bitmap-push | bitmap-pull | auto (default auto)\n"
      "  --reorder=S  cache-aware CSR relabeling applied (and un-permuted) "
      "inside every measured run: identity | degree_sort | dbg | bfs "
      "(default identity)\n"
      "  --hw-counters  sample perf_event hardware counters around every "
      "observed launch (Linux; silently degrades to modeled-traffic-only "
      "when perf_event_open is denied)\n",
      program);
  std::exit(2);
}

/// Arms process-lifetime hardware-counter sampling on the global device;
/// returns whether counters are actually available (the value
/// Args::hw_counters and meta.hw_counters report). The sampler is a
/// function-local static so it outlives every launch — harnesses never
/// uninstall it.
bool install_hw_sampling() {
  if (!obs::hw_counters_supported()) return false;
  static obs::PerfSampler sampler;
  sim::Device::instance().set_hw_sampler(&sampler);
  return true;
}

/// The run-environment block of the gcol-bench-v9 header: enough to tell two
/// BENCH_*.json files measured different machines/configs apart before
/// comparing their numbers. Git SHA and build type are baked in at configure
/// time (see bench/CMakeLists.txt); worker count and GCOL_THREADS are read
/// live so the report reflects the actual run. `streams` is the number of
/// device streams the harness scheduled measured work onto (0 for a classic
/// host-only run).
obs::Json run_meta(gr::FrontierMode frontier_mode, unsigned streams,
                   graph::ReorderStrategy reorder, bool hw_counters) {
  obs::Json meta = obs::Json::object();
  meta.set("workers",
           static_cast<std::int64_t>(sim::Device::instance().num_workers()));
  const char* threads_env = std::getenv("GCOL_THREADS");
  meta.set("gcol_threads", threads_env == nullptr ? "" : threads_env);
#ifdef GCOL_GIT_SHA
  meta.set("git_sha", GCOL_GIT_SHA);
#else
  meta.set("git_sha", "unknown");
#endif
#ifdef GCOL_BUILD_TYPE
  meta.set("build_type", GCOL_BUILD_TYPE);
#else
  meta.set("build_type", "unknown");
#endif
  // The substrate's advance schedule (edge-balanced merge-path, the only
  // one); the key stays so the v9 schema and older reports keep their shape.
  meta.set("advance_policy", "edge_balanced");
  // The frontier policy of the measured runs (--frontier); bench_diff warns
  // when two reports differ here.
  meta.set("frontier_mode", gr::to_string(frontier_mode));
  // v3: how many device streams the measured runs were scheduled onto.
  // 0 marks a classic run (everything on the host's default context), so
  // bench_diff can refuse to compare batched against classic numbers.
  meta.set("streams", static_cast<std::int64_t>(streams));
  // v5: the CSR relabeling strategy the measured runs colored under
  // (graph/reorder.hpp: identity | degree_sort | dbg | bfs). Reordering
  // changes memory locality but not the external coloring contract, so two
  // reports differing only here are the reorder ablation's axis — and
  // bench_diff warns on a mismatch instead of silently mixing layouts.
  meta.set("reorder", graph::to_string(reorder));
  // v6: whether perf_event hardware counters were actually sampled (false
  // covers both "--hw-counters absent" and "passed but denied"), and the
  // machine's measured STREAM-triad peak bandwidth — the roofline ceiling
  // every per-kernel "gbps" in this report is read against.
  meta.set("hw_counters", hw_counters);
  meta.set("peak_gbps", peak_gbps());
  return meta;
}

bool parse_kv(const char* arg, const char* key, const char** value) {
  const std::size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  // Flags taking a value accept both --flag=value and --flag value.
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) usage_and_exit(argv[0]);
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--csv") == 0) {
      args.csv = true;
    } else if (std::strcmp(arg, "--hw-counters") == 0) {
      // Arms the device-global sampler right here, so every harness gets
      // hardware attribution without per-harness wiring; resolves to the
      // ACTUAL availability so downstream meta never claims counters that
      // perf_event_open denied.
      args.hw_counters = install_hw_sampling();
    } else if (parse_kv(arg, "--scale", &value)) {
      args.scale = std::atof(value);
    } else if (parse_kv(arg, "--runs", &value)) {
      args.runs = std::atoi(value);
    } else if (parse_kv(arg, "--min-rgg", &value)) {
      args.min_rgg_scale = std::atoi(value);
    } else if (parse_kv(arg, "--max-rgg", &value)) {
      args.max_rgg_scale = std::atoi(value);
    } else if (parse_kv(arg, "--seed", &value)) {
      args.seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (parse_kv(arg, "--batch", &value)) {
      args.batch = std::atoi(value);
    } else if (parse_kv(arg, "--json", &value)) {
      args.json_path = value;
    } else if (std::strcmp(arg, "--json") == 0) {
      args.json_path = next_value(&i);
    } else if (parse_kv(arg, "--trace", &value)) {
      args.trace_path = value;
    } else if (std::strcmp(arg, "--trace") == 0) {
      args.trace_path = next_value(&i);
    } else if (parse_kv(arg, "--datasets", &value)) {
      args.datasets = value;
    } else if (std::strcmp(arg, "--datasets") == 0) {
      args.datasets = next_value(&i);
    } else if (parse_kv(arg, "--algorithms", &value)) {
      args.algorithms = value;
    } else if (std::strcmp(arg, "--algorithms") == 0) {
      args.algorithms = next_value(&i);
    } else if (parse_kv(arg, "--frontier", &value) ||
               (std::strcmp(arg, "--frontier") == 0 &&
                (value = next_value(&i)) != nullptr)) {
      if (!gr::parse_frontier_mode(value, args.frontier_mode)) {
        std::fprintf(stderr, "unknown frontier mode: %s\n", value);
        usage_and_exit(argv[0]);
      }
    } else if (parse_kv(arg, "--reorder", &value) ||
               (std::strcmp(arg, "--reorder") == 0 &&
                (value = next_value(&i)) != nullptr)) {
      if (!graph::parse_reorder(value, args.reorder)) {
        std::fprintf(stderr, "unknown reorder strategy: %s\n", value);
        usage_and_exit(argv[0]);
      }
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (args.scale <= 0.0 || args.scale > 1.0 || args.runs < 1 ||
      args.min_rgg_scale < 5 || args.max_rgg_scale > 24 ||
      args.min_rgg_scale > args.max_rgg_scale || args.batch < 0) {
    usage_and_exit(argv[0]);
  }
  return args;
}

bool dataset_selected(const Args& args, std::string_view name) {
  if (args.datasets.empty()) return true;
  const std::string_view filter = args.datasets;
  std::size_t begin = 0;
  while (begin <= filter.size()) {
    std::size_t end = filter.find(',', begin);
    if (end == std::string_view::npos) end = filter.size();
    if (filter.substr(begin, end - begin) == name) return true;
    begin = end + 1;
  }
  return false;
}

std::vector<graph::DatasetInfo> selected_datasets(const Args& args) {
  std::vector<graph::DatasetInfo> selected;
  for (const graph::DatasetInfo& info : graph::paper_datasets()) {
    if (dataset_selected(args, info.name)) selected.push_back(info);
  }
  // `rmat_<scale>` tokens name synthetic power-law extras outside the
  // Table I registry; resolve them explicitly, in filter order.
  const std::string_view filter = args.datasets;
  std::size_t begin = 0;
  while (begin < filter.size()) {
    std::size_t end = filter.find(',', begin);
    if (end == std::string_view::npos) end = filter.size();
    const std::string_view token = filter.substr(begin, end - begin);
    begin = end + 1;
    if (token.rfind("rmat_", 0) != 0) continue;
    const std::string_view digits = token.substr(5);
    int scale = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), scale);
    if (ec != std::errc{} || ptr != digits.data() + digits.size() ||
        scale < 8 || scale > 24) {
      std::fprintf(stderr,
                   "bad dataset token '%.*s': expected rmat_<scale> with "
                   "scale in [8, 24]\n",
                   static_cast<int>(token.size()), token.data());
      std::exit(1);
    }
    selected.push_back(graph::rmat_dataset(scale));
  }
  return selected;
}

std::vector<const color::AlgorithmSpec*> selected_algorithms(
    const Args& args) {
  if (args.algorithms.empty()) return color::figure1_algorithms();
  std::vector<const color::AlgorithmSpec*> selected;
  const std::string_view filter = args.algorithms;
  std::size_t begin = 0;
  while (begin <= filter.size()) {
    std::size_t end = filter.find(',', begin);
    if (end == std::string_view::npos) end = filter.size();
    const std::string name(filter.substr(begin, end - begin));
    if (!name.empty()) {
      const color::AlgorithmSpec* spec = color::find_algorithm(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown algorithm: %s\n", name.c_str());
        std::exit(2);
      }
      selected.push_back(spec);
    }
    begin = end + 1;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "--algorithms selected nothing\n");
    std::exit(2);
  }
  return selected;
}

Measurement run_averaged(const color::AlgorithmSpec& spec,
                         const graph::Csr& csr, std::uint64_t seed, int runs,
                         gr::FrontierMode mode,
                         graph::ReorderStrategy reorder) {
  Measurement m;
  m.valid = true;
  double total = 0.0;
  double best = 0.0;
  const std::string run_phase = "run:" + spec.name;
  for (int r = 0; r < runs; ++r) {
    const obs::ScopedPhase phase(run_phase);
    color::Options options;
    options.seed = seed;
    options.frontier_mode = mode;
    options.reorder = reorder;
    sim::Stopwatch watch;
    color::Coloring result = spec.run(csr, options);
    const double ms = watch.elapsed_ms();
    total += ms;
    if (r == 0 || ms < best) best = ms;
    if (!color::is_valid_coloring(csr, result.colors)) m.valid = false;
    if (r + 1 == runs) m.result = std::move(result);
  }
  m.ms_avg = total / runs;
  m.ms_min = best;
  return m;
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_gbps() {
  static const double peak =
      obs::measure_peak_gbps(sim::Device::instance());
  return peak;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, bool csv)
    : headers_(std::move(headers)), csv_(csv) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::print() const {
  if (csv_) {
    auto print_csv_row = [](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%s", i ? "," : "", row[i].c_str());
      }
      std::printf("\n");
    };
    print_csv_row(headers_);
    for (const auto& row : rows_) print_csv_row(row);
    return;
  }
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      std::printf("%s%-*s", c ? "  " : "", static_cast<int>(widths[c]),
                  row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  for (std::size_t i = 0; i + 2 < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

JsonReport::JsonReport(std::string bench_name, const Args& args,
                       unsigned streams)
    : path_(args.json_path),
      header_(obs::Json::object()),
      records_(obs::Json::array()) {
  // Disabled reports never serialize, so skip the header — notably the
  // peak-bandwidth calibration run_meta triggers — on table-only runs.
  if (!enabled()) return;
  header_.set("schema", "gcol-bench-v9");
  header_.set("bench", std::move(bench_name));
  header_.set("scale", args.scale);
  header_.set("runs", args.runs);
  header_.set("seed", static_cast<std::int64_t>(args.seed));
  header_.set("meta", run_meta(args.frontier_mode, streams, args.reorder,
                               args.hw_counters));
}

void JsonReport::add_measurement(std::string_view dataset,
                                 const Measurement& m) {
  if (!enabled()) return;
  obs::Json record = obs::Json::object();
  record.set("dataset", dataset);
  record.set("algorithm", m.result.algorithm);
  record.set("ms", m.ms_avg);
  record.set("ms_min", m.ms_min);
  record.set("colors", m.result.num_colors);
  record.set("iterations", m.result.iterations);
  record.set("kernel_launches", m.result.kernel_launches);
  record.set("conflicts_resolved", m.result.conflicts_resolved);
  record.set("valid", m.valid);
  record.set("metrics", m.result.metrics.to_json());
  add_record(std::move(record));
}

void JsonReport::add_record(obs::Json record) {
  if (!enabled()) return;
  records_.push_back(std::move(record));
}

bool JsonReport::write() const {
  if (!enabled()) return true;
  obs::Json document = header_;
  document.set("records", records_);
  return obs::write_json_file(path_, document);
}

}  // namespace gcol::bench
