#include "core/jones_plassmann.hpp"

#include <cstdint>
#include <vector>

#include "core/ordering.hpp"
#include "core/palette.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/atomics.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

const char* to_string(JpPriority priority) noexcept {
  switch (priority) {
    case JpPriority::kRandom: return "random";
    case JpPriority::kLargestDegreeFirst: return "largest-degree-first";
    case JpPriority::kSmallestDegreeLast: return "smallest-degree-last";
    case JpPriority::kHybridDegreeThenRandom: return "hybrid-che";
  }
  return "unknown";
}

Coloring jones_plassmann_color(const graph::Csr& csr,
                               const JonesPlassmannOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm =
      std::string("jones_plassmann_") + to_string(options.priority);
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  // Priorities: a strict total order packed into int64. Higher priority
  // colors earlier; random bits break structural ties. Draws and id
  // tie-breaks key on original ids, so the coloring is invariant to the
  // registry's reorder strategies (only the traversal layout changes).
  std::vector<std::int64_t> priority(un);
  const sim::CounterRng rng(options.seed);
  switch (options.priority) {
    case JpPriority::kRandom:
      device.launch("jp::priority_random", n, [&](std::int64_t v) {
        const vid_t orig = options.original_id(static_cast<vid_t>(v));
        priority[static_cast<std::size_t>(v)] =
            (static_cast<std::int64_t>(
                 rng.uniform_int31(static_cast<std::uint64_t>(orig)))
             << 32) |
            static_cast<std::int64_t>(orig);
      });
      break;
    case JpPriority::kLargestDegreeFirst:
      device.launch("jp::priority_degree", n, [&](std::int64_t v) {
        const vid_t orig = options.original_id(static_cast<vid_t>(v));
        priority[static_cast<std::size_t>(v)] =
            (static_cast<std::int64_t>(csr.degree(static_cast<vid_t>(v)))
             << 32) |
            static_cast<std::int64_t>(
                rng.uniform_int31(static_cast<std::uint64_t>(orig)));
      });
      break;
    case JpPriority::kSmallestDegreeLast: {
      // Degeneracy order: vertices removed later must color earlier.
      const std::vector<vid_t> order = smallest_degree_last_order(csr, options);
      for (vid_t rank = 0; rank < n; ++rank) {
        priority[static_cast<std::size_t>(order[static_cast<std::size_t>(
            rank)])] = static_cast<std::int64_t>(n - rank);
      }
      break;
    }
    case JpPriority::kHybridDegreeThenRandom: {
      // Degree threshold at the requested percentile: heavy vertices rank
      // by degree (colored in the earliest rounds, Che et al.'s load-
      // imbalance fix); everyone else competes on random draws below them.
      const std::vector<vid_t> by_degree = largest_degree_first_order(csr);
      const double fraction =
          options.hybrid_degree_fraction < 0.0
              ? 0.0
              : (options.hybrid_degree_fraction > 1.0
                     ? 1.0
                     : options.hybrid_degree_fraction);
      const auto cutoff_index = static_cast<std::size_t>(
          fraction * static_cast<double>(n));
      const vid_t threshold =
          cutoff_index == 0 || n == 0
              ? csr.max_degree() + 1
              : csr.degree(by_degree[std::min(
                    cutoff_index, static_cast<std::size_t>(n) - 1)]);
      device.launch("jp::priority_hybrid", n, [&](std::int64_t v) {
        const vid_t degree = csr.degree(static_cast<vid_t>(v));
        const vid_t orig = options.original_id(static_cast<vid_t>(v));
        const std::int64_t head =
            degree >= threshold ? static_cast<std::int64_t>(degree) + 1 : 0;
        priority[static_cast<std::size_t>(v)] =
            (head << 48) |
            (static_cast<std::int64_t>(
                 rng.uniform_int31(static_cast<std::uint64_t>(orig)))
             << 17) |
            static_cast<std::int64_t>(orig & 0x1ffff);
      });
      break;
    }
  }

  std::int32_t* colors = result.colors.data();
  // Per-round snapshot: decisions read the PREVIOUS round's colors only, so
  // the result is a deterministic function of (graph, priorities) no matter
  // how workers interleave — the bulk-synchronous JP formulation. The
  // frontier representation (sparse list vs. bitmap) therefore never changes
  // the colors, only the launch structure.
  std::vector<std::int32_t> snapshot(result.colors);
  const bool bitmap = options.frontier_mode != gr::FrontierMode::kSparse;
  gr::Frontier frontier = bitmap
                              ? gr::Frontier::all_bits(n, options.frontier_mode)
                              : gr::Frontier::all(n);
  std::vector<vid_t> spare;                // sparse-list double buffer
  std::vector<std::uint64_t> spare_words;  // bitmap double buffer
  const double avg_degree = csr.average_degree();

  // A vertex colors itself with its minimum available color once no
  // snapshot-uncolored neighbor outranks it. Two adjacent vertices can
  // never color in the same round (one outranks the other in the shared
  // snapshot), so writes to `colors` never race with the reads below.
  // Neighbor snapshot probes are relaxed atomics. The publish runs in the
  // filter launch after this one, so they never race today; a relaxed load
  // compiles to a plain load, and it keeps a probe well-defined should the
  // publish ever share a launch with the color decisions. Coherence would
  // keep that proper too: once a probe sees a neighbor colored, the palette
  // sweep's later load of the same entry sees that same final color.
  const auto color_op = [&](vid_t v) {
    const auto uv = static_cast<std::size_t>(v);
    if (sim::atomic_load(snapshot[uv]) != kUncolored) return;
    const std::int64_t mine = priority[uv];
    const auto adj = csr.neighbors(v);
    for (const vid_t u : adj) {
      if (sim::atomic_load(snapshot[static_cast<std::size_t>(u)]) ==
              kUncolored &&
          priority[static_cast<std::size_t>(u)] > mine) {
        return;
      }
    }
    // Minimum color absent from the colored neighborhood, via the zero-
    // scratch windowed bit palette (a degree-d vertex always first-fits
    // within [0, d], so the sweep stays register-resident).
    colors[uv] = palette::first_fit_windowed(
        static_cast<std::int64_t>(adj.size()), [&](std::int64_t k) {
          return sim::atomic_load(snapshot[static_cast<std::size_t>(
              adj[static_cast<std::size_t>(k)])]);
        });
  };
  // Filter with the snapshot publish fused into its flag pass: only
  // frontier vertices can have changed color this round (everyone else's
  // snapshot entry is already final), so publishing v while flagging it
  // covers the whole graph.
  const auto survive_op = [&](vid_t v) {
    const std::int32_t cv = colors[static_cast<std::size_t>(v)];
    sim::atomic_store(snapshot[static_cast<std::size_t>(v)], cv);
    return cv == kUncolored;
  };

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  gr::Enactor enactor(device, options.max_iterations);
  const gr::EnactorStats stats = enactor.enact([&](std::int32_t) {
    const obs::ScopedPhase phase("jp::round");
    result.metrics.push("frontier", frontier.size());
    gr::compute(device, frontier, color_op, avg_degree);

    if (bitmap) {
      // Word-wise frontier rebuild: the compaction the sparse path pays
      // two launches for (flag+count, scatter) is one word-owner pass.
      gr::Frontier next = gr::filter_bits(device, frontier,
                                          std::move(spare_words), survive_op,
                                          avg_degree);
      spare_words = frontier.release_words();
      frontier = std::move(next);
    } else {
      // The survivors compact into the recycled buffer — two launches per
      // round instead of publish + flag + gather.
      gr::Frontier next =
          gr::filter_into(device, frontier, std::move(spare), survive_op);
      spare = frontier.release_vertices();
      frontier = std::move(next);
    }
    result.metrics.push("colored", n - frontier.size());
    return !frontier.is_empty();
  });

  result.elapsed_ms = watch.elapsed_ms();
  result.iterations = stats.iterations;
  result.kernel_launches = device.launch_count() - launches_before;
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
