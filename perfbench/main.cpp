// gcol benchmark harness. One process runs one workload:
//
//   gcol_perfbench --workload <fem_mesh|powerlaw_rmat|batch_small>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// It sets up the workload several times (generate, build CSR, start
// streams, one warm-up pass), then runs checked passes for `--seconds` and
// prints one JSON object as its last line: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. NOTES.md explains the
// workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/mesh.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

namespace perfbench {

namespace gc = gcol::color;
namespace gg = gcol::graph;

namespace {

// fem_mesh: the thermal2 analogue (graph/datasets.cpp) at scale 0.25.
constexpr gcol::vid_t kMeshSide = 554;  // round(sqrt(1'228'045 * 0.25))
constexpr double kMeshSecondRing = 0.25;
constexpr int kRmatScale = 14;
constexpr gcol::eid_t kRmatEdgeFactor = 16;
constexpr int kBatchGraphs = 64;
constexpr gcol::vid_t kBatchVertices = 8192;
constexpr unsigned kBatchStreams = 2;

constexpr int kSetupReps = 7;
constexpr std::size_t kMinPasses = 5;

/// Distinct, well-spread generator seeds for (seed, stream).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return gcol::sim::mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds > 0.0 && args.seconds <= 3600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && is_workload(args.workload) && have_seed &&
         have_seconds && have_trace;
}

int run(const Args& args, long nproc) {
  const gcol::sim::Stopwatch device_watch;
  gcol::sim::Device& device = gcol::sim::Device::instance();
  const double device_start_ms = device_watch.elapsed_ms();
  if (device.num_workers() != kWorkers) {
    std::fprintf(stderr, "perfbench: device has %u workers, expected %u\n",
                 device.num_workers(), kWorkers);
    return 1;
  }

  // Set-up, several times over; the last one's inputs are measured. Only
  // the first is cold (fresh pages and pool, reference colorings taken), so
  // the median is a warm re-setup; the cold one is reported on its own.
  Checker checker;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_ms;
  std::vector<double> generate_ms;
  std::vector<double> build_csr_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    const double verify_before = checker.verify_ms();
    const gcol::sim::Stopwatch watch;
    workload = make_workload(args.workload, args.seed, device);
    (void)run_pass(*workload, checker, 0);
    setup_ms.push_back(watch.elapsed_ms() -
                       (checker.verify_ms() - verify_before));
    generate_ms.push_back(workload->generate_ms);
    build_csr_ms.push_back(workload->build_csr_ms);
    std::printf("setup %d: %.3f ms\n", rep, setup_ms.back());
  }

  gcol::obs::Json metrics = gcol::obs::Json::object();
  const auto put = [&metrics](const std::string& name, double value,
                              const char* unit) {
    gcol::obs::Json entry = gcol::obs::Json::object();
    entry.set("value", value);
    entry.set("unit", unit);
    metrics.set(name, std::move(entry));
  };

  const NoiseProbe noise;
  if (args.trace) {
    const MetricList layers =
        run_traced(*workload, args.workload, args.seed, args.seconds, device,
                   checker,
                   {{"setup.cold_ms", device_start_ms + setup_ms.front(),
                     "ms"},
                    {"graph.generate_ms", median(generate_ms), "ms"},
                    {"graph.build_csr_ms", median(build_csr_ms), "ms"}});
    for (const Metric& m : layers) put(m.name, m.value, m.unit);
    put("host.steal_share", noise.steal_share(), "ratio");
    put("host.involuntary_switches",
        static_cast<double>(noise.involuntary_switches()), "count");
  } else {
    std::array<std::vector<double>, kNumFamilies> family_ms;
    std::int64_t pass_colors = -1;
    const gcol::sim::Stopwatch phase;
    for (std::size_t pass = 1;
         pass <= kMinPasses || phase.elapsed_ms() < args.seconds * 1e3;
         ++pass) {
      std::int64_t colors = 0;
      const NoiseProbe pass_noise;
      const auto family = run_pass(
          *workload, checker, pass,
          [&colors](std::size_t, double,
                    const std::vector<gc::Coloring>& colorings) {
            for (const gc::Coloring& c : colorings) colors += c.num_colors;
          });
      for (int f = 0; f < kNumFamilies; ++f) family_ms[f].push_back(family[f]);
      // Colors repeat exactly or the Checker has already failed the call.
      if (pass_colors < 0) pass_colors = colors;
      std::printf("pass %zu: greedy %.3f frontier %.3f graphblas %.3f "
                  "naumov %.3f ms, colors %lld, steal %.4f\n",
                  pass, family[kGreedy], family[kFrontier],
                  family[kGraphBlas], family[kNaumov],
                  static_cast<long long>(colors), pass_noise.steal_share());
    }
    put("setup_s", median(setup_ms) / 1e3, "s");
    put("greedy_ms", median(family_ms[kGreedy]), "ms");
    put("frontier_ms", median(family_ms[kFrontier]), "ms");
    put("graphblas_ms", median(family_ms[kGraphBlas]), "ms");
    put("naumov_ms", median(family_ms[kNaumov]), "ms");
    put("colors", static_cast<double>(pass_colors), "count");
    put("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  std::printf("noise: workers %u nproc %ld steal_share %.4f "
              "involuntary_switches %ld\n",
              kWorkers, nproc, noise.steal_share(),
              noise.involuntary_switches());

  gcol::obs::Json result = gcol::obs::Json::object();
  result.set("correct", checker.failed() == 0 && checker.attempted() > 0);
  result.set("attempted", checker.attempted());
  result.set("failed", checker.failed());
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "fem_mesh" || name == "powerlaw_rmat" ||
         name == "batch_small";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        gcol::sim::Device& device) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  std::vector<gg::Coo> coos;
  {
    const gcol::obs::ScopedPhase phase("graph.generate");
    const gcol::sim::Stopwatch watch;
    if (name == "fem_mesh") {
      coos.push_back(gg::generate_mesh2d(
          kMeshSide, kMeshSide,
          {.second_ring_probability = kMeshSecondRing,
           .seed = mix_seed(seed, 0)}));
    } else if (name == "powerlaw_rmat") {
      coos.push_back(gg::generate_rmat(kRmatScale, kRmatEdgeFactor,
                                       {.seed = mix_seed(seed, 0)}));
    } else {
      for (int i = 0; i < kBatchGraphs; ++i) {
        coos.push_back(gg::generate_rgg_n(
            kBatchVertices,
            {.seed = mix_seed(seed, static_cast<std::uint64_t>(i))}));
      }
    }
    w->generate_ms = watch.elapsed_ms();
  }
  {
    const gcol::obs::ScopedPhase phase("graph.build_csr");
    const gcol::sim::Stopwatch watch;
    for (const gg::Coo& coo : coos) w->graphs.push_back(gg::build_csr(coo));
    w->build_csr_ms = watch.elapsed_ms();
  }
  for (const gg::Csr& g : w->graphs) w->graph_ptrs.push_back(&g);
  if (name == "powerlaw_rmat") w->options.reorder = gg::ReorderStrategy::kBfs;
  if (name == "batch_small") {
    w->batch = std::make_unique<gc::Batch>(device, kBatchStreams);
  }
  return w;
}

std::vector<gc::Coloring> Workload::call(
    const gc::AlgorithmSpec& spec) const {
  if (batch) return batch->run(spec, graph_ptrs, options);
  std::vector<gc::Coloring> out;
  out.push_back(spec.run(graphs.front(), options));
  return out;
}

std::int64_t Checker::check(std::size_t index, const Workload& workload,
                            const std::vector<gc::Coloring>& colorings) {
  const gcol::sim::Stopwatch watch;
  std::vector<std::vector<std::int32_t>>& reference = reference_[index];
  const bool first = reference.empty();
  std::int64_t colors = 0;
  for (std::size_t i = 0; i < workload.graphs.size(); ++i) {
    ++attempted_;
    const bool present = i < colorings.size();
    const bool valid =
        present && !gc::find_violation(workload.graphs[i], colorings[i].colors)
                        .has_value();
    if (present && first) reference.push_back(colorings[i].colors);
    const bool repeats =
        present && i < reference.size() && reference[i] == colorings[i].colors;
    if (!valid || !repeats) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s on %s graph %zu: %s\n",
                   kAlgorithms[index].name, workload.name.c_str(), i,
                   !valid ? "invalid coloring" : "colors differ from pass 0");
    }
    if (present) colors += colorings[i].num_colors;
  }
  verify_ms_ += watch.elapsed_ms();
  return colors;
}

std::array<double, kNumFamilies> run_pass(const Workload& workload,
                                          Checker& checker,
                                          std::size_t rotation,
                                          const CallObserver& observe,
                                          const TraceSink& trace) {
  std::array<double, kNumFamilies> family{};
  for (std::size_t k = 0; k < kAlgorithms.size(); ++k) {
    const std::size_t index = (k + rotation) % kAlgorithms.size();
    const gc::AlgorithmSpec* spec =
        gc::find_algorithm(kAlgorithms[index].name);
    if (spec == nullptr) {
      throw std::runtime_error(std::string("algorithm not registered: ") +
                               kAlgorithms[index].name);
    }
    std::vector<gc::Coloring> colorings;
    double ms = 0.0;
    try {
      std::optional<gcol::obs::TraceSession> session;
      if (trace) session.emplace();
      {
        const gcol::obs::ScopedPhase phase(std::string("core.") +
                                           kAlgorithms[index].name);
        const gcol::sim::Stopwatch watch;
        colorings = workload.call(*spec);
        ms = watch.elapsed_ms();
      }
      if (session) trace(session->to_json());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s threw: %s\n",
                   kAlgorithms[index].name, e.what());
      checker.fail(workload.graphs.size());
      continue;
    }
    family[kAlgorithms[index].family] += ms;
    (void)checker.check(index, workload, colorings);
    if (observe) observe(index, ms, colorings);
  }
  return family;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (upper + *std::max_element(values.begin(),
                                    values.begin() + static_cast<long>(mid))) /
         2.0;
}

namespace {

/// Sums the "cpu" line of /proc/stat: steal ticks and all ticks.
void read_cpu_ticks(std::uint64_t& steal, std::uint64_t& total) {
  steal = 0;
  total = 0;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return;
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int i = 0; i < 8 && fields >> value; ++i) {
    total += value;
    if (i == 7) steal = value;
  }
}

long involuntary_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nivcsw;
}

}  // namespace

NoiseProbe::NoiseProbe() : nivcsw_(involuntary_now()) {
  read_cpu_ticks(steal_, total_);
}

double NoiseProbe::steal_share() const {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  read_cpu_ticks(steal, total);
  if (total <= total_) return 0.0;
  return static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

long NoiseProbe::involuntary_switches() const {
  return involuntary_now() - nivcsw_;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload fem_mesh|powerlaw_rmat|batch_small "
                 "--seed <n> --seconds <s> --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < static_cast<long>(perfbench::kWorkers)) {
    std::fprintf(stderr,
                 "perfbench: refusing to run %u workers on %ld processors\n",
                 perfbench::kWorkers, nproc);
    return 2;
  }
  // The device reads its worker count once, on first use.
  setenv("GCOL_THREADS", std::to_string(perfbench::kWorkers).c_str(), 1);
  try {
    return perfbench::run(args, nproc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
