#include "core/gunrock_is.hpp"

#include <atomic>
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

/// Priority comparison with vertex-id tie break. The paper compares raw
/// random ints; the tie break guarantees termination on (astronomically
/// unlikely, but possible) equal draws without changing the distribution.
inline bool priority_less(std::int32_t ra, vid_t a, std::int32_t rb,
                          vid_t b) noexcept {
  return ra < rb || (ra == rb && a < b);
}

}  // namespace

Coloring gunrock_is_color(const graph::Csr& csr,
                          const GunrockIsOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = options.min_max ? "gunrock_is_minmax"
                     : options.use_atomics ? "gunrock_is_atomics"
                                           : "gunrock_is";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  // Initialize R <- generateRandomNumbers (Algorithm 5 line 7). The bitmap
  // modes skip the materialization launch and draw the same counter-based
  // values on the fly — the draw is a pure function of (seed, original id),
  // so every access sees exactly the number the array would hold, and the
  // same logical vertex draws the same number under every reorder strategy.
  const bool bitmap = options.frontier_mode != gr::FrontierMode::kSparse;
  std::vector<std::int32_t> random;
  const sim::CounterRng rng(options.seed);
  if (!bitmap) {
    random.resize(un);
    device.launch("gunrock_is::init_random", n, [&](std::int64_t v) {
      random[static_cast<std::size_t>(v)] = rng.uniform_int31(
          static_cast<std::uint64_t>(options.original_id(
              static_cast<vid_t>(v))));
    });
  }
  const auto rand_of = [&](vid_t v) {
    return bitmap ? rng.uniform_int31(
                        static_cast<std::uint64_t>(options.original_id(v)))
                  : random[static_cast<std::size_t>(v)];
  };
  // Ties (equal draws) break on original ids too, keeping the whole
  // priority a function of the logical vertex.
  const auto tie_of = [&](vid_t v) { return options.original_id(v); };

  std::int32_t* colors = result.colors.data();
  gr::Frontier frontier = bitmap
                              ? gr::Frontier::all_bits(n, options.frontier_mode)
                              : gr::Frontier::all(n);
  std::vector<std::uint64_t> spare_words;  // bitmap double buffer
  const double avg_degree = csr.average_degree();
  std::atomic<std::int64_t> colored_total{0};
  std::int64_t prev_colored = 0;

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  gr::Enactor enactor(device, options.max_iterations);
  const gr::EnactorStats stats = enactor.enact([&](std::int32_t iteration) {
    const obs::ScopedPhase phase("gunrock_is::round");
    const std::int32_t color = 2 * iteration;
    // ColorOp (Algorithm 5 lines 15-43): one thread per vertex, serial
    // neighbor loop — deliberately NOT load balanced.
    const auto color_op = [&](vid_t v) {
      const auto uv = static_cast<std::size_t>(v);
      if (colors[uv] != kUncolored) return;  // already colored
      bool colormax = true;
      bool colormin = options.min_max;
      const std::int32_t rv = rand_of(v);
      for (const vid_t u : csr.neighbors(v)) {
        const auto uu = static_cast<std::size_t>(u);
        // Skip neighbors finalized in earlier iterations; neighbors that
        // (racily) took color+1/color+2 this round still participate in the
        // comparison (Algorithm 5 line 26).
        const std::int32_t cu = sim::atomic_load(colors[uu]);
        if (cu != kUncolored && cu != color + 1 && cu != color + 2) continue;
        const std::int32_t ru = rand_of(u);
        if (!priority_less(ru, tie_of(u), rv, tie_of(v))) colormax = false;
        if (!priority_less(rv, tie_of(v), ru, tie_of(u))) colormin = false;
        if (!colormax && !colormin) break;
      }
      if (colormax) {
        sim::atomic_store(colors[uv], color + 1);
      } else if (colormin) {
        sim::atomic_store(colors[uv], color + 2);
      } else {
        return;
      }
      if (options.use_atomics) {
        colored_total.fetch_add(1, std::memory_order_relaxed);
      }
    };
    const auto survive_op = [&](vid_t v) {
      color_op(v);
      return colors[static_cast<std::size_t>(v)] == kUncolored;
    };

    // Stop when all vertices hold a valid color (Algorithm 5 line 9). The
    // atomics variant reads its in-kernel counter after a plain compute;
    // the no-atomics variants fuse the count into the SAME launch via the
    // per-slot tally (exact: colors[v] is written only by v's own work
    // item). Either way one launch per iteration, and the stop check hands
    // the iteration series its "colored so far" value for free.
    //
    // Bitmap modes keep only the still-uncolored vertices in the frontier:
    // the color attempt AND the frontier rebuild fuse into one word-owner
    // filter_bits launch, and "colored so far" falls out of the bitmap's
    // popcount (the atomics variant still exercises its counter).
    std::int64_t colored;
    if (bitmap) {
      const std::int64_t active = frontier.size();
      gr::Frontier next = gr::filter_bits(device, frontier,
                                          std::move(spare_words), survive_op,
                                          avg_degree);
      spare_words = frontier.release_words();
      frontier = std::move(next);
      colored = options.use_atomics
                    ? colored_total.load(std::memory_order_relaxed)
                    : n - frontier.size();
      result.metrics.push("frontier", active);
    } else if (options.use_atomics) {
      gr::compute(device, frontier, color_op);
      colored = colored_total.load(std::memory_order_relaxed);
      result.metrics.push("frontier", n - prev_colored);
    } else {
      colored = gr::compute_count(device, frontier, color_op, [&](vid_t v) {
        return colors[static_cast<std::size_t>(v)] != kUncolored;
      });
      result.metrics.push("frontier", n - prev_colored);
    }
    result.metrics.push("colored", colored);
    result.metrics.push("colors_opened", 2 * (iteration + 1));
    prev_colored = colored;
    return colored < n;
  });

  result.elapsed_ms = watch.elapsed_ms();
  result.iterations = stats.iterations;
  result.kernel_launches = device.launch_count() - launches_before;
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
