#include "core/gunrock_is.hpp"

#include <atomic>
#include <vector>

#include "core/live.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "sim/bitops.hpp"

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

  std::int32_t* colors = result.colors.data();
  // The frontier holds exactly the vertices uncolored at the round's start.
  gr::Frontier frontier = gr::Frontier::all_bits(n, options.frontier_mode);
  std::vector<std::uint64_t> spare_words;  // double buffer
  const double avg_degree = csr.average_degree();
  std::atomic<std::int64_t> colored_total{0};

  gr::Enactor enactor(device, result, options.max_iterations);
  enactor.run("gunrock_is::round", [&](std::int32_t iteration) {
    const std::int32_t color = 2 * iteration;
    // ColorOp (Algorithm 5 lines 15-43): one thread per vertex, serial
    // neighbor loop — deliberately NOT load balanced. Only neighbors in the
    // round's input frontier compete; no worker writes that bitmap during
    // the launch (the rebuild goes to a separate buffer), so neighbors that
    // take color+1/color+2 during the round still participate in the
    // comparison (Algorithm 5 line 26) and colors[] is never read across
    // vertices. A colored vertex leaves the frontier.
    const auto survive_op = [&, live = frontier.words().data()](vid_t v) {
      const std::int64_t mine = priority[static_cast<std::size_t>(v)];
      bool colormax = true;
      bool colormin = options.min_max;
      for (const vid_t u : csr.neighbors(v)) {
        if (!sim::test_bit(live, u)) continue;
        const std::int64_t theirs = priority[static_cast<std::size_t>(u)];
        colormax = colormax && theirs < mine;
        colormin = colormin && theirs > mine;
        if (!colormax && !colormin) break;
      }
      if (!colormax && !colormin) return true;
      colors[static_cast<std::size_t>(v)] = colormax ? color + 1 : color + 2;
      if (options.use_atomics) {
        colored_total.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    };

    // The color attempt AND the frontier rebuild fuse into one word-owner
    // filter_bits launch per iteration, and "colored so far" (the stop
    // test, Algorithm 5 line 9) falls out of the bitmap's popcount (the
    // atomics variant reads its counter).
    gr::Frontier next = gr::filter_bits(device, frontier,
                                        std::move(spare_words), survive_op,
                                        avg_degree);
    spare_words = frontier.release_words();
    frontier = std::move(next);
    result.metrics.push("colors_opened", 2 * (iteration + 1));
    return options.use_atomics ? colored_total.load(std::memory_order_relaxed)
                               : n - frontier.size();
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
