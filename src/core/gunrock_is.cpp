#include "core/gunrock_is.hpp"

#include <atomic>
#include <vector>

#include "core/live.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/atomics.hpp"
#include "sim/bitops.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

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

  // Initialize R <- generateRandomNumbers (Algorithm 5 line 7), packed with
  // the original id as tie break: the paper compares raw random ints, and
  // the tie break guarantees termination on equal draws without changing
  // the distribution.
  const std::vector<std::int64_t> priority =
      random_priorities(device, "gunrock_is::init_priority", n, options);
  const bool bitmap = options.frontier_mode != gr::FrontierMode::kSparse;

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
    // neighbor loop — deliberately NOT load balanced. Returns the color v
    // takes this round, or kUncolored. `competes(u)` says whether neighbor
    // u was uncolored at the start of the round: neighbors that take
    // color+1/color+2 during it still participate in the comparison
    // (Algorithm 5 line 26).
    const auto decide = [&](vid_t v, auto competes) {
      const std::int64_t mine = priority[static_cast<std::size_t>(v)];
      bool colormax = true;
      bool colormin = options.min_max;
      for (const vid_t u : csr.neighbors(v)) {
        if (!competes(u)) continue;
        const std::int64_t theirs = priority[static_cast<std::size_t>(u)];
        colormax = colormax && theirs < mine;
        colormin = colormin && theirs > mine;
        if (!colormax && !colormin) break;
      }
      return colormax ? color + 1 : colormin ? color + 2 : kUncolored;
    };
    const auto count_colored = [&] {
      if (options.use_atomics) {
        colored_total.fetch_add(1, std::memory_order_relaxed);
      }
    };
    // Bitmap modes: the frontier holds exactly the vertices uncolored at
    // the round's start, and no worker writes it during the launch (the
    // rebuild goes to a separate buffer), so membership is the liveness
    // test and colors[] is never read across vertices.
    const auto survive_op = [&](vid_t v) {
      const std::int32_t c =
          decide(v, [live = frontier.words().data()](vid_t u) {
            return sim::test_bit(live, u);
          });
      if (c == kUncolored) return true;
      colors[static_cast<std::size_t>(v)] = c;
      count_colored();
      return false;
    };
    // Sparse mode keeps the implicit all-vertex frontier and probes the
    // neighbors' colors, which other workers of the same launch store.
    const auto color_op = [&](vid_t v) {
      const auto uv = static_cast<std::size_t>(v);
      if (colors[uv] != kUncolored) return;  // already colored
      const std::int32_t c = decide(v, [&](vid_t u) {
        const std::int32_t cu =
            sim::atomic_load(colors[static_cast<std::size_t>(u)]);
        return cu == kUncolored || cu == color + 1 || cu == color + 2;
      });
      if (c == kUncolored) return;
      sim::atomic_store(colors[uv], c);
      count_colored();
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
