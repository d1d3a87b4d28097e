// The traced run (--trace 1): per-layer figures for the end-to-end numbers
// of main.cpp. Three parts, all on the workload's own graph (the first
// graph of a batch):
//
//   1. untraced passes give the per-algorithm `core.*` figures and the
//      check cost; the device pool's hit rate covers them and the set-ups;
//   2. probes time one call into each layer's public functions (median of
//      several calls);
//   3. interleaved untraced and traced passes: each traced call and one
//      round of probes run under an obs::TraceSession, inside benchmark
//      spans named `<layer>.<what>`. A span's self time is its duration
//      minus the part its kernel spans cover; the kernels themselves are the
//      `sim` layer. The traced-minus-untraced pass time is the tracing
//      overhead.

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "graph/reorder.hpp"
#include "graphblas/grb.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/compact.hpp"
#include "sim/reduce.hpp"
#include "sim/scan.hpp"
#include "sim/stream.hpp"
#include "sim/timer.hpp"

namespace perfbench {

namespace gc = gcol::color;
namespace gg = gcol::graph;
namespace gr = gcol::gr;
namespace grb = gcol::grb;
namespace sim = gcol::sim;
using gcol::obs::ScopedPhase;

namespace {

constexpr int kProbeReps = 15;      // millisecond-scale probes
constexpr int kLaunchReps = 400;    // microsecond-scale probes
constexpr int kTracedRounds = 3;    // untraced/traced pass pairs
constexpr double kTailShare = 0.01; // advance_tail frontier occupancy

/// Layers in table order; a benchmark span `<layer>.<what>` belongs to one.
constexpr std::array<std::string_view, 5> kLayers{"graph", "sim", "gunrock",
                                                  "graphblas", "core"};
constexpr int kSimLayer = 1;

volatile std::int64_t g_sink = 0;  // keeps probe results observable

template <typename Fn>
double time_median(const char* span, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const ScopedPhase phase(span);
    const sim::Stopwatch watch;
    fn();
    ms.push_back(watch.elapsed_ms());
  }
  return median(std::move(ms));
}

/// Times one call into each layer's public functions on `csr`. With
/// `reps == 1` this is the traced round that only feeds the span table.
MetricList run_probes(sim::Device& device, const gg::Csr& csr, int reps) {
  const gcol::vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  const int fast_reps = reps == 1 ? 1 : kLaunchReps;
  MetricList out;

  out.push_back({"graph.relabel_ms",
                 time_median("graph.relabel", reps,
                             [&] {
                               const gg::Permutation perm = gg::make_permutation(
                                   csr, gg::ReorderStrategy::kBfs);
                               g_sink = gg::relabel(csr, perm).num_edges();
                             }),
                 "ms"});

  out.push_back({"sim.launch_us",
                 1e3 * time_median("sim.launch", fast_reps,
                                   [&] {
                                     device.launch("perfbench::empty", n,
                                                   [](std::int64_t) {});
                                   }),
                 "us"});
  std::vector<std::int64_t> ones(un, 1);
  std::vector<std::int64_t> scanned(un);
  out.push_back({"sim.scan_ms", time_median("sim.scan", reps, [&] {
                   g_sink = sim::exclusive_scan<std::int64_t>(
                       device, ones, scanned);
                 }),
                 "ms"});
  out.push_back({"sim.reduce_ms", time_median("sim.reduce", reps, [&] {
                   g_sink = sim::reduce_sum<std::int64_t>(device, ones);
                 }),
                 "ms"});
  out.push_back(
      {"sim.compact_ms", time_median("sim.compact", reps, [&] {
         g_sink = static_cast<std::int64_t>(
             sim::compact_indices(device, n, [&](std::int64_t i) {
               return csr.degree(static_cast<gcol::vid_t>(i)) % 2 == 0;
             }).size());
       }),
       "ms"});
  {
    sim::Stream stream(device, 1);
    out.push_back({"sim.stream_sync_us",
                   1e3 * time_median("sim.stream_sync", fast_reps,
                                     [&] {
                                       stream.launch("perfbench::empty", n,
                                                     [](std::int64_t) {});
                                       stream.synchronize();
                                     }),
                   "us"});
  }

  const gr::Frontier all = gr::Frontier::all(n);
  std::vector<gcol::vid_t> tail;
  const auto stride = static_cast<gcol::vid_t>(1.0 / kTailShare);
  for (gcol::vid_t v = 0; v < n; v += stride) tail.push_back(v);
  const gr::Frontier tail_frontier = gr::Frontier::of(tail, n);
  out.push_back({"gunrock.advance_full_ms",
                 time_median("gunrock.advance_full", reps,
                             [&] {
                               g_sink = static_cast<std::int64_t>(
                                   gr::advance(device, csr, all)
                                       .neighbors.size());
                             }),
                 "ms"});
  out.push_back({"gunrock.advance_tail_ms",
                 time_median("gunrock.advance_tail", reps,
                             [&] {
                               g_sink = static_cast<std::int64_t>(
                                   gr::advance(device, csr, tail_frontier)
                                       .neighbors.size());
                             }),
                 "ms"});
  const gr::Frontier all_bits =
      gr::Frontier::all_bits(n, gr::FrontierMode::kAuto);
  out.push_back(
      {"gunrock.filter_bits_ms", time_median("gunrock.filter_bits", reps, [&] {
         g_sink = gr::filter_bits(
                      device, all_bits, {},
                      [](gcol::vid_t v) { return (v & 1) == 0; },
                      csr.average_degree())
                      .size();
       }),
       "ms"});
  std::vector<std::int64_t> reduced(un);
  out.push_back(
      {"gunrock.neighbor_reduce_ms",
       time_median("gunrock.neighbor_reduce", reps,
                   [&] {
                     gr::neighbor_reduce<std::int64_t>(
                         device, csr, all,
                         [](gcol::vid_t, gcol::vid_t u) {
                           return static_cast<std::int64_t>(u);
                         },
                         [](std::int64_t a, std::int64_t b) {
                           return std::max(a, b);
                         },
                         std::numeric_limits<std::int64_t>::lowest(),
                         std::span<std::int64_t>(reduced));
                     g_sink = reduced.front();
                   }),
       "ms"});

  const grb::Matrix<std::int64_t> a(csr);
  grb::Vector<std::int64_t> dense(n);
  dense.fill(1);
  grb::Vector<std::int64_t> sparse(n);
  {
    std::vector<grb::Index> idx(tail.begin(), tail.end());
    const std::vector<std::int64_t> vals(idx.size(), 1);
    (void)sparse.build(idx, vals);
  }
  grb::Vector<std::int64_t> w(n);
  const auto semiring = grb::max_times_semiring<std::int64_t>();
  grb::Descriptor push_desc;
  push_desc.vxm_mode = grb::VxmMode::kPush;
  grb::Descriptor pull_desc;
  pull_desc.vxm_mode = grb::VxmMode::kPull;
  out.push_back({"graphblas.vxm_push_ms",
                 time_median("graphblas.vxm_push", reps,
                             [&] {
                               (void)grb::vxm(w, nullptr, semiring, sparse, a,
                                              push_desc);
                               g_sink = w.nvals();
                             }),
                 "ms"});
  out.push_back({"graphblas.vxm_pull_ms",
                 time_median("graphblas.vxm_pull", reps,
                             [&] {
                               (void)grb::vxm(w, nullptr, semiring, dense, a,
                                              pull_desc);
                               g_sink = w.nvals();
                             }),
                 "ms"});
  out.push_back({"graphblas.apply_ms",
                 time_median("graphblas.apply", reps,
                             [&] {
                               (void)grb::apply(
                                   w, nullptr,
                                   [](std::int64_t x) { return x + 1; },
                                   dense);
                               g_sink = w.nvals();
                             }),
                 "ms"});
  out.push_back({"graphblas.reduce_ms",
                 time_median("graphblas.reduce", reps,
                             [&] {
                               std::int64_t total = 0;
                               (void)grb::reduce(
                                   &total, grb::plus_monoid<std::int64_t>(),
                                   dense);
                               g_sink = total;
                             }),
                 "ms"});
  return out;
}

/// Benchmark-span time per layer, accumulated over trace documents.
struct LayerTime {
  std::int64_t spans = 0;
  double span_ms = 0.0;    ///< Σ benchmark span durations
  double kernel_ms = 0.0;  ///< part of those spans covered by kernels
};
using LayerTable = std::array<LayerTime, kLayers.size()>;

int layer_of(std::string_view span_name) {
  const auto dot = span_name.find('.');
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    if (span_name.substr(0, dot) == kLayers[l]) return static_cast<int>(l);
  }
  return -1;
}

/// Adds one exported trace's benchmark spans to `table`. Phase spans sit on
/// tid `stream * 4096 + 1`, kernel spans on `stream * 4096` (obs/trace.hpp);
/// kernels of concurrent streams are merged before they are subtracted.
void add_spans(const gcol::obs::Json& doc, LayerTable& table) {
  struct Interval {
    double begin;
    double end;
  };
  std::vector<Interval> kernels;
  std::vector<std::pair<int, Interval>> spans;
  const gcol::obs::Json* events = doc.find("traceEvents");
  if (events == nullptr) return;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const gcol::obs::Json& e = *events->at(i);
    const gcol::obs::Json* ph = e.find("ph");
    const gcol::obs::Json* tid = e.find("tid");
    if (ph == nullptr || ph->as_string() != "X" || tid == nullptr) continue;
    const double begin = e.find("ts")->as_double() / 1e3;
    const Interval span{begin, begin + e.find("dur")->as_double() / 1e3};
    const std::int64_t track = tid->as_int() % 4096;
    if (track == 0) {
      kernels.push_back(span);
    } else if (track == 1) {
      const int layer = layer_of(e.find("name")->as_string());
      if (layer >= 0) spans.push_back({layer, span});
    }
  }
  std::sort(kernels.begin(), kernels.end(),
            [](const Interval& x, const Interval& y) {
              return x.begin < y.begin;
            });
  for (const auto& [layer, span] : spans) {
    double covered = 0.0;
    double reach = span.begin;  // end of the merged cover so far
    auto it = std::lower_bound(
        kernels.begin(), kernels.end(), span.begin,
        [](const Interval& k, double t) { return k.begin < t; });
    for (; it != kernels.end() && it->begin < span.end; ++it) {
      const double end = std::min(it->end, span.end);
      const double begin = std::max(it->begin, reach);
      if (end > begin) covered += end - begin;
      reach = std::max(reach, end);
    }
    LayerTime& t = table[static_cast<std::size_t>(layer)];
    ++t.spans;
    t.span_ms += span.end - span.begin;
    t.kernel_ms += covered;
  }
}

/// Self time per layer: span time not covered by kernels; the sim layer
/// also owns every covered (kernel) interval.
std::array<double, kLayers.size()> self_ms(const LayerTable& table) {
  std::array<double, kLayers.size()> self{};
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    self[l] = table[l].span_ms - table[l].kernel_ms;
    self[static_cast<std::size_t>(kSimLayer)] += table[l].kernel_ms;
  }
  return self;
}

struct AlgorithmFigures {
  std::vector<double> call_ms;
  std::vector<double> ms;
  std::vector<double> kernel_ms;
  std::int64_t launches = 0;
  std::int64_t iterations = 0;
  std::int64_t colors = 0;
  double colored = 0.0;
  double attempted = 0.0;
};

double sum(const std::array<double, kNumFamilies>& family) {
  double total = 0.0;
  for (const double ms : family) total += ms;
  return total;
}

}  // namespace

MetricList run_traced(const Workload& workload,
                      const std::string& name, std::uint64_t seed,
                      double seconds, sim::Device& device, Checker& checker,
                      const MetricList& setup_layers) {
  const sim::Stopwatch budget;
  const gg::Csr& csr = workload.graphs.front();

  // 1. Untraced passes: per-algorithm figures from the returned Colorings.
  std::array<AlgorithmFigures, kAlgorithms.size()> figures;
  const auto observe = [&figures](std::size_t index, double call_ms,
                                  const std::vector<gc::Coloring>& colorings) {
    AlgorithmFigures& f = figures[index];
    f.call_ms.push_back(call_ms);
    double ms = 0.0;
    double kernel_ms = 0.0;
    f.launches = f.iterations = f.colors = 0;
    f.colored = f.attempted = 0.0;
    for (const gc::Coloring& c : colorings) {
      ms += c.elapsed_ms;
      kernel_ms += c.metrics.total_kernel_ms();
      f.launches += static_cast<std::int64_t>(c.kernel_launches);
      f.iterations += c.iterations;
      f.colors += c.num_colors;
      // "frontier" is each round's uncolored input, "colored" the running
      // total after the round: useful work is the growth of "colored" over
      // what was colored before the first round.
      const auto* frontier = c.metrics.series("frontier");
      const auto* colored = c.metrics.series("colored");
      if (frontier != nullptr && colored != nullptr && !frontier->empty() &&
          !colored->empty()) {
        const auto n = static_cast<double>(c.colors.size());
        f.colored += static_cast<double>(colored->back()) -
                     (n - static_cast<double>(frontier->front()));
        for (const std::int64_t v : *frontier) {
          f.attempted += static_cast<double>(v);
        }
      }
    }
    f.ms.push_back(ms);
    f.kernel_ms.push_back(kernel_ms);
  };
  std::vector<double> verify_ms;
  for (std::size_t pass = 1;
       pass <= 3 || budget.elapsed_ms() < seconds * 400.0; ++pass) {
    const double before = checker.verify_ms();
    (void)run_pass(workload, checker, pass, observe);
    verify_ms.push_back(checker.verify_ms() - before);
  }
  // Since the process started: scratch grows during the first set-up, and
  // each later set-up's streams reuse the blocks the previous ones returned.
  const sim::DevicePool::Stats pool = device.memory_pool().stats();
  const double pool_requests = static_cast<double>(pool.hits + pool.allocations);

  // 2. Probes, untraced.
  MetricList probes = run_probes(device, csr, kProbeReps);

  // 3. Interleaved untraced / traced passes.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::array<double, kLayers.size()>> layer_self;
  LayerTable last_table{};
  for (int round = 0; round < kTracedRounds; ++round) {
    const auto rotation = static_cast<std::size_t>(round);
    untraced_ms.push_back(sum(run_pass(workload, checker, rotation)));
    LayerTable table{};
    traced_ms.push_back(sum(run_pass(
        workload, checker, rotation, {},
        [&table](const gcol::obs::Json& doc) { add_spans(doc, table); })));
    {
      const gcol::obs::TraceSession session(device);
      (void)run_probes(device, csr, 1);
      (void)make_workload(name, seed, device);
      add_spans(session.to_json(), table);
    }
    layer_self.push_back(self_ms(table));
    last_table = table;
  }

  MetricList out = setup_layers;
  out.insert(out.end(), probes.begin(), probes.end());
  out.push_back({"sim.pool_hit_rate",
                 pool_requests > 0.0
                     ? static_cast<double>(pool.hits) / pool_requests
                     : 0.0,
                 "ratio"});
  for (std::size_t i = 0; i < kAlgorithms.size(); ++i) {
    const AlgorithmFigures& f = figures[i];
    const std::string prefix = std::string("core.") + kAlgorithms[i].name;
    out.push_back({prefix + ".call_ms", median(f.call_ms), "ms"});
    out.push_back({prefix + ".ms", median(f.ms), "ms"});
    out.push_back({prefix + ".kernel_ms", median(f.kernel_ms), "ms"});
    out.push_back({prefix + ".launches", static_cast<double>(f.launches),
                   "count"});
    out.push_back({prefix + ".iterations", static_cast<double>(f.iterations),
                   "count"});
    out.push_back({prefix + ".colors", static_cast<double>(f.colors),
                   "count"});
    out.push_back({prefix + ".yield",
                   f.attempted > 0.0 ? f.colored / f.attempted : 0.0,
                   "ratio"});
  }
  out.push_back({"core.verify_ms", median(verify_ms), "ms"});
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    std::vector<double> self;
    for (const auto& round : layer_self) self.push_back(round[l]);
    out.push_back(
        {std::string(kLayers[l]) + ".self_ms", median(self), "ms"});
  }
  out.push_back({"obs.trace_overhead_ms",
                 median(traced_ms) - median(untraced_ms), "ms"});

  // The per-layer self-time table of the last traced round.
  const auto self = self_ms(last_table);
  double total = 0.0;
  for (const double s : self) total += s;
  std::printf("%-10s %7s %12s %12s %12s %7s\n", "layer", "spans", "span_ms",
              "kernel_ms", "self_ms", "share");
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    const LayerTime& t = last_table[l];
    std::printf("%-10s %7lld %12.3f %12.3f %12.3f %6.1f%%\n",
                std::string(kLayers[l]).c_str(),
                static_cast<long long>(t.spans), t.span_ms, t.kernel_ms,
                self[l], total > 0.0 ? 100.0 * self[l] / total : 0.0);
  }
  std::printf("traced pass %.3f ms, untraced pass %.3f ms (medians of %d)\n",
              median(traced_ms), median(untraced_ms), kTracedRounds);
  return out;
}

}  // namespace perfbench
