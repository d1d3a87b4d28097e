#include "core/jones_plassmann.hpp"

#include <cstdint>
#include <vector>

#include "core/live.hpp"
#include "core/ordering.hpp"
#include "core/palette.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

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

std::vector<std::int64_t> jones_plassmann_priorities(
    const graph::Csr& csr, const JonesPlassmannOptions& options) {
  const vid_t n = csr.num_vertices;
  auto& device = sim::Device::instance();
  // Priorities: a strict total order packed into int64. Higher priority
  // colors earlier; random bits break structural ties. Draws and id
  // tie-breaks key on original ids, so the coloring is invariant to the
  // registry's reorder strategies (only the traversal layout changes).
  if (options.priority == JpPriority::kRandom) {
    return random_priorities(device, "jp::priority_random", n, options);
  }
  std::vector<std::int64_t> priority(static_cast<std::size_t>(n));
  const sim::CounterRng rng(options.seed);
  switch (options.priority) {
    case JpPriority::kRandom:
      break;  // returned above
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
  return priority;
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

  // live[v] is v's priority while v is uncolored at the start of a round,
  // and kColoredPriority from the round after it colors. Only the filter
  // writes it, in its own launch, so the color decisions read the PREVIOUS
  // round's state and the result is a deterministic function of (graph,
  // priorities) no matter how workers interleave — the bulk-synchronous JP
  // formulation. The traversal direction therefore never changes the
  // colors, only the launch structure.
  std::vector<std::int64_t> live = jones_plassmann_priorities(csr, options);
  std::int32_t* colors = result.colors.data();
  gr::Frontier frontier = gr::Frontier::all_bits(n, options.frontier_mode);
  std::vector<std::uint64_t> spare_words;  // double buffer
  const double avg_degree = csr.average_degree();

  // A frontier vertex colors itself with its minimum available color once
  // no live neighbor outranks it. The degree-keyed priorities carry no (or,
  // for the hybrid, a truncated) id, so equal values fall back to the
  // original ids: the order is strict, no neighbor of a vertex that colors
  // in a round colors in that same round, and the palette sweep reads
  // colors[] that only earlier launches wrote.
  const auto color_op = [&](vid_t v) {
    const std::int64_t mine = live[static_cast<std::size_t>(v)];
    const auto adj = csr.neighbors(v);
    for (const vid_t u : adj) {
      const std::int64_t theirs = live[static_cast<std::size_t>(u)];
      if (theirs > mine) return;
      if (theirs == mine && options.original_id(u) > options.original_id(v)) {
        return;
      }
    }
    // Minimum color absent from the colored neighborhood, via the zero-
    // scratch windowed bit palette (a degree-d vertex always first-fits
    // within [0, d], so the sweep stays register-resident).
    colors[static_cast<std::size_t>(v)] = palette::first_fit_windowed(
        static_cast<std::int64_t>(adj.size()), [&](std::int64_t k) {
          return colors[static_cast<std::size_t>(
              adj[static_cast<std::size_t>(k)])];
        });
  };
  // The vertices this round colored leave the frontier and the comparison.
  const auto survive_op = [&](vid_t v) {
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] == kUncolored) return true;
    live[uv] = kColoredPriority;
    return false;
  };

  gr::Enactor enactor(device, result, options.max_iterations);
  enactor.run("jp::round", [&](std::int32_t) {
    gr::compute(device, frontier, color_op, avg_degree);
    // Word-wise frontier rebuild into the recycled buffer.
    gr::Frontier next = gr::filter_bits(device, frontier,
                                        std::move(spare_words), survive_op,
                                        avg_degree);
    spare_words = frontier.release_words();
    frontier = std::move(next);
    return n - frontier.size();
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
