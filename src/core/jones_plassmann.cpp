#include "core/jones_plassmann.hpp"

#include <cstdint>
#include <vector>

#include "core/live.hpp"
#include "core/ordering.hpp"
#include "core/palette.hpp"
#include "core/priority_dag.hpp"
#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "sim/bitops.hpp"
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

  // Priorities are read-only from here on. The degree-keyed modes can tie,
  // so their order falls back to the higher original id; a random priority
  // packs the original id, so one compare is the whole strict order.
  const std::vector<std::int64_t> priority =
      jones_plassmann_priorities(csr, options);
  const std::int64_t* prio = priority.data();
  std::int32_t* colors = result.colors.data();

  // A ready vertex's higher-priority neighbors are all colored and its
  // lower-priority ones all uncolored (each still counts it), so one sweep
  // of its neighbor colors both first-fits and releases. The first 64
  // colors fit one register window; a vertex with a full window re-sweeps
  // with the windowed palette, which is the exact first-fit either way.
  const auto color_one = [&](vid_t v, auto&& release) {
    const auto adj = csr.neighbors(v);
    std::uint64_t window = 0;
    for (const vid_t u : adj) {
      const std::int32_t c = colors[static_cast<std::size_t>(u)];
      if (c == kUncolored) {
        release(u);
      } else if (c < sim::kBitsPerWord) {
        window |= std::uint64_t{1} << c;
      }
    }
    colors[static_cast<std::size_t>(v)] =
        window != sim::kFullWord
            ? sim::min_unset_bit(window)
            : palette::first_fit_windowed(
                  static_cast<std::int64_t>(adj.size()), [&](std::int64_t k) {
                    return colors[static_cast<std::size_t>(
                        adj[static_cast<std::size_t>(k)])];
                  });
  };
  const auto run = [&](auto outranks) {
    color_priority_dag(
        device, result, options.max_iterations,
        {"jp::round", "jp::count", "jp::color"},
        [&](vid_t v) {
          std::int32_t count = 0;
          for (const vid_t u : csr.neighbors(v)) count += outranks(u, v);
          return count;
        },
        color_one);
  };
  if (options.priority == JpPriority::kRandom) {
    run([prio](vid_t u, vid_t v) {
      return prio[static_cast<std::size_t>(u)] >
             prio[static_cast<std::size_t>(v)];
    });
  } else {
    run([prio, &options](vid_t u, vid_t v) {
      const std::int64_t theirs = prio[static_cast<std::size_t>(u)];
      const std::int64_t mine = prio[static_cast<std::size_t>(v)];
      return theirs > mine ||
             (theirs == mine &&
              options.original_id(u) > options.original_id(v));
    });
  }
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
