#include "core/gunrock_ar.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

namespace {

/// Packed priority: random weight in the high bits, vertex id below, so a
/// plain int64 max doubles as a tie-broken argmax (the ReduceMaxOp of
/// Algorithm 7).
inline std::int64_t packed_priority(std::int32_t r, vid_t v) noexcept {
  return (static_cast<std::int64_t>(r) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(v));
}

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
  // round, and kColored (the max identity) from the round after it is
  // colored. Draws and tie ids key on original vertex ids, so the priority
  // of a logical vertex — and the whole coloring — is invariant to the
  // registry's reorder strategies. Only the init launch and the frontier
  // rebuild write live[]; only the neighbor-reduce reads it. A neighbor
  // colored during this round's reduce therefore still competes with the
  // priority it began the round with (Algorithm 5 line 26), or two adjacent
  // extrema could both claim a color, and no launch reads colors[] while
  // another of its workers writes them.
  constexpr std::int64_t kColored = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kNoNeighborMin = kNoColor;  // +inf: min identity
  std::vector<std::int64_t> live(un);
  const sim::CounterRng rng(options.seed);
  device.launch(
      "gunrock_ar::init_live", n,
      [&](std::int64_t v) {
        const vid_t orig = options.original_id(static_cast<vid_t>(v));
        live[static_cast<std::size_t>(v)] = packed_priority(
            rng.uniform_int31(static_cast<std::uint64_t>(orig)), orig);
      },
      sim::Schedule::kStatic, 0, nullptr,
      sim::Traffic{options.original_ids.empty() ? 0 : gr::kVidBytes,
                   static_cast<std::int64_t>(sizeof(std::int64_t))});

  std::int32_t* colors = result.colors.data();
  // Bitmap modes route the segment reduction through neighbor_reduce_bits,
  // whose finalize is keyed by vertex id instead of frontier slot — the
  // coloring decision only ever touches per-vertex state, so push, pull and
  // the sparse merge path all finalize each frontier member exactly once
  // with the identical full-neighborhood extreme.
  const bool bitmap = options.frontier_mode != gr::FrontierMode::kSparse;
  gr::Frontier frontier = bitmap
                              ? gr::Frontier::all_bits(n, options.frontier_mode)
                              : gr::Frontier::all(n);
  std::vector<vid_t> spare;  // sparse-list double buffer
  std::vector<std::uint64_t> spare_words;  // bitmap double buffer

  // Frontier rebuild predicate: still-uncolored vertices survive; the ones
  // this round colored leave the comparison from the next round on.
  const auto survive_op = [&](vid_t v) {
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] == kUncolored) return true;
    live[uv] = kColored;
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
    return MinMaxPair{p, p == kColored ? kNoNeighborMin : p};
  };
  const auto mm_reduce = [](MinMaxPair a, MinMaxPair b) {
    return MinMaxPair{b.max > a.max ? b.max : a.max,
                      b.min < a.min ? b.min : a.min};
  };
  constexpr MinMaxPair mm_identity{kColored, kNoNeighborMin};

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  gr::Enactor enactor(device, options.max_iterations);
  const gr::EnactorStats stats = enactor.enact([&](std::int32_t iteration) {
    const obs::ScopedPhase phase("gunrock_ar::round");
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

    result.metrics.push("frontier", frontier.size());
    if (options.fused_minmax) {
      if (bitmap) {
        gr::neighbor_reduce_bits<MinMaxPair>(device, csr, frontier, mm_map,
                                             mm_reduce, mm_identity,
                                             mm_finalize);
      } else {
        gr::neighbor_reduce_fused<MinMaxPair>(
            device, csr, frontier, mm_map, mm_reduce, mm_identity,
            [&](std::int64_t i, MinMaxPair extreme) {
              mm_finalize(frontier.vertex(i), extreme);
            });
      }
    } else {
      if (bitmap) {
        gr::neighbor_reduce_bits<std::int64_t>(device, csr, frontier, max_map,
                                               max_reduce, kColored,
                                               max_finalize);
      } else {
        gr::neighbor_reduce_fused<std::int64_t>(
            device, csr, frontier, max_map, max_reduce, kColored,
            [&](std::int64_t i, std::int64_t neighbor_max) {
              max_finalize(frontier.vertex(i), neighbor_max);
            });
      }
    }

    // Rebuild the frontier from still-uncolored vertices into the recycled
    // buffer; Removed grows, and the compaction pays no gather launch (and
    // collapses to one word-owner pass in bitmap modes).
    if (bitmap) {
      gr::Frontier next = gr::filter_bits(device, frontier,
                                          std::move(spare_words), survive_op);
      spare_words = frontier.release_words();
      frontier = std::move(next);
    } else {
      gr::Frontier next =
          gr::filter_into(device, frontier, std::move(spare), survive_op);
      spare = frontier.release_vertices();
      frontier = std::move(next);
    }
    result.metrics.push("colored", n - frontier.size());
    result.metrics.push("colors_opened",
                        options.fused_minmax ? 2 * (iteration + 1)
                                             : iteration + 1);
    return !frontier.is_empty();
  });

  result.elapsed_ms = watch.elapsed_ms();
  result.iterations = stats.iterations;
  result.kernel_launches = device.launch_count() - launches_before;
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
