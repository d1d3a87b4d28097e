#include "core/gunrock_ar.hpp"

#include <cstdint>
#include <vector>

#include "core/live.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"

namespace gcol::color {

namespace {

/// Element of the fused reduction: the (max, min) pair of packed priorities
/// over a neighbor segment, combined component-wise.
struct MinMaxPair {
  std::int64_t max;
  std::int64_t min;
};

}  // namespace

Coloring gunrock_ar_color(const graph::Csr& csr,
                          const GunrockArOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = options.fused_minmax ? "gunrock_ar_fused" : "gunrock_ar";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  // live[v] is v's packed priority while v is uncolored at the start of a
  // round, and kColoredPriority (the max identity) from the round after it
  // is colored. Only the init launch and the frontier rebuild write live[];
  // only the neighbor-reduce reads it. A neighbor colored during this
  // round's reduce therefore still competes with the priority it began the
  // round with (Algorithm 5 line 26), or two adjacent extrema could both
  // claim a color, and no launch reads colors[] while another of its
  // workers writes them.
  constexpr std::int64_t kNoNeighborMin = kNoColor;  // +inf: min identity
  std::vector<std::int64_t> live =
      random_priorities(device, "gunrock_ar::init_live", n, options);

  std::int32_t* colors = result.colors.data();
  // The segment reduction runs through neighbor_reduce_bits, whose finalize
  // is keyed by vertex id — the coloring decision only ever touches
  // per-vertex state, so push, pull and the edge-balanced push all finalize
  // each frontier member exactly once with the identical full-neighborhood
  // extreme.
  gr::Frontier frontier = gr::Frontier::all_bits(n, options.frontier_mode);
  std::vector<std::uint64_t> spare_words;  // double buffer

  // Frontier rebuild predicate: still-uncolored vertices survive; the ones
  // this round colored leave the comparison from the next round on.
  const auto survive_op = [&](vid_t v) {
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] == kUncolored) return true;
    live[uv] = kColoredPriority;
    return false;
  };

  // Segment max (min-max pair when fused) of the neighbors' live[] entries;
  // every neighbor is visited, with no branch on its state.
  const auto max_map = [&](vid_t /*src*/, vid_t u) {
    return live[static_cast<std::size_t>(u)];
  };
  const auto max_reduce = [](std::int64_t a, std::int64_t b) {
    return b > a ? b : a;
  };
  const auto mm_map = [&](vid_t /*src*/, vid_t u) {
    const std::int64_t p = live[static_cast<std::size_t>(u)];
    return MinMaxPair{p, p == kColoredPriority ? kNoNeighborMin : p};
  };
  const auto mm_reduce = [](MinMaxPair a, MinMaxPair b) {
    return MinMaxPair{b.max > a.max ? b.max : a.max,
                      b.min < a.min ? b.min : a.min};
  };
  constexpr MinMaxPair mm_identity{kColoredPriority, kNoNeighborMin};

  gr::Enactor enactor(device, result, options.max_iterations);
  enactor.run("gunrock_ar::round", [&](std::int32_t iteration) {
    // The reduce's finalize colors each frontier member: the local maxima
    // (ColorRemovedOp inlined), or with fused_minmax the two mutually-
    // exclusive independent sets of one (max, min) pass.
    const auto mm_finalize = [&](vid_t v, MinMaxPair extreme) {
      const auto uv = static_cast<std::size_t>(v);
      if (live[uv] > extreme.max) {
        colors[uv] = 2 * iteration;
      } else if (live[uv] < extreme.min) {
        colors[uv] = 2 * iteration + 1;
      }
    };
    const auto max_finalize = [&](vid_t v, std::int64_t neighbor_max) {
      const auto uv = static_cast<std::size_t>(v);
      if (live[uv] > neighbor_max) colors[uv] = iteration;
    };

    if (options.fused_minmax) {
      gr::neighbor_reduce_bits<MinMaxPair>(device, csr, frontier, mm_map,
                                           mm_reduce, mm_identity,
                                           mm_finalize);
    } else {
      gr::neighbor_reduce_bits<std::int64_t>(device, csr, frontier, max_map,
                                             max_reduce, kColoredPriority,
                                             max_finalize);
    }

    // Rebuild the frontier from still-uncolored vertices into the recycled
    // buffer in one word-owner pass; Removed grows.
    gr::Frontier next = gr::filter_bits(device, frontier,
                                        std::move(spare_words), survive_op);
    spare_words = frontier.release_words();
    frontier = std::move(next);
    result.metrics.push("colors_opened",
                        options.fused_minmax ? 2 * (iteration + 1)
                                             : iteration + 1);
    return n - frontier.size();
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
