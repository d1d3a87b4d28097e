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
#include "sim/atomics.hpp"
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

  // Draws and tie ids key on original vertex ids, so the priority of a
  // logical vertex — and the whole BSP race-free coloring — is invariant to
  // the registry's reorder strategies.
  std::vector<std::int32_t> random(un);
  const sim::CounterRng rng(options.seed);
  device.launch("gunrock_ar::init_random", n, [&](std::int64_t v) {
    random[static_cast<std::size_t>(v)] = rng.uniform_int31(
        static_cast<std::uint64_t>(options.original_id(
            static_cast<vid_t>(v))));
  });
  const auto priority_of = [&](vid_t v) {
    return packed_priority(random[static_cast<std::size_t>(v)],
                           options.original_id(v));
  };

  constexpr std::int64_t kNoNeighbor = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kNoNeighborMin = kNoColor;  // +inf: min identity
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

  // Frontier rebuild predicate: still-uncolored vertices survive. colors[v]
  // is written only by v's own word owner, so the plain read never races.
  const auto survive_op = [&](vid_t v) {
    return colors[static_cast<std::size_t>(v)] == kUncolored;
  };

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  gr::Enactor enactor(device, options.max_iterations);
  const gr::EnactorStats stats = enactor.enact([&](std::int32_t iteration) {
    const obs::ScopedPhase phase("gunrock_ar::round");
    // The fused neighbor-reduce colors sources inline while other workers
    // are still reading their neighborhoods, so (as in Algorithm 5 line 26)
    // a neighbor racily colored THIS iteration must still contribute its
    // priority — it was uncolored when the iteration began — or two
    // adjacent extrema could both claim a color. Only earlier iterations'
    // colors remove a neighbor from the comparison.
    //
    // ONE fused pass produces both extremes AND assigns the two mutually-
    // exclusive independent sets' colors in its finalize (fused_minmax).
    const auto mm_map = [&](vid_t /*src*/, vid_t u) {
      const std::int32_t color = 2 * iteration;
      const std::int32_t cu =
          sim::atomic_load(colors[static_cast<std::size_t>(u)]);
      if (cu != kUncolored && cu != color && cu != color + 1) {
        return MinMaxPair{kNoNeighbor, kNoNeighborMin};
      }
      const std::int64_t p = priority_of(u);
      return MinMaxPair{p, p};
    };
    const auto mm_reduce = [](MinMaxPair a, MinMaxPair b) {
      return MinMaxPair{b.max > a.max ? b.max : a.max,
                        b.min < a.min ? b.min : a.min};
    };
    constexpr MinMaxPair mm_identity{kNoNeighbor, kNoNeighborMin};
    const auto mm_finalize = [&](vid_t v, MinMaxPair extreme) {
      const std::int32_t color = 2 * iteration;
      const auto uv = static_cast<std::size_t>(v);
      const std::int64_t mine = priority_of(v);
      if (mine > extreme.max) {
        sim::atomic_store(colors[uv], color);
      } else if (mine < extreme.min) {
        sim::atomic_store(colors[uv], color + 1);
      }
    };

    // Same fusion, single extremum: segment-max the packed priorities and
    // color the local maxima in the finalize (ColorRemovedOp inlined).
    const auto max_map = [&](vid_t /*src*/, vid_t u) {
      const std::int32_t cu =
          sim::atomic_load(colors[static_cast<std::size_t>(u)]);
      return cu == kUncolored || cu == iteration ? priority_of(u)
                                                 : kNoNeighbor;
    };
    const auto max_reduce = [](std::int64_t a, std::int64_t b) {
      return b > a ? b : a;
    };
    const auto max_finalize = [&](vid_t v, std::int64_t neighbor_max) {
      const auto uv = static_cast<std::size_t>(v);
      if (priority_of(v) > neighbor_max) {
        sim::atomic_store(colors[uv], iteration);
      }
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
                                               max_reduce, kNoNeighbor,
                                               max_finalize);
      } else {
        gr::neighbor_reduce_fused<std::int64_t>(
            device, csr, frontier, max_map, max_reduce, kNoNeighbor,
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
