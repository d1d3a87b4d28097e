#include "core/grb_is.hpp"

#include <span>
#include <vector>

#include "core/grb_common.hpp"
#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

Coloring grb_is_color(const graph::Csr& csr, const GrbIsOptions& options) {
  using detail::Weight;
  const auto n = static_cast<grb::Index>(csr.num_vertices);

  Coloring result;
  result.algorithm = "grb_is";
  result.colors.assign(static_cast<std::size_t>(n), kUncolored);
  if (n == 0) return result;

  auto& device = sim::Device::instance();
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);
  const grb::Matrix<Weight> a(csr);
  grb::Vector<std::int32_t> c(n);
  grb::Vector<Weight> weight(n);
  grb::Vector<Weight> max(n);
  grb::Vector<Weight> frontier(n);

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();

  // Initialize colors to 0 (uncolored) and weights to random (Alg. 2 l.3-5).
  grb::assign(c, nullptr, std::int32_t{0});
  detail::set_random_weights(weight, options);

  // Fused round tail: mirror_count doubles as the succ reduction and
  // assign_active replaces the two masked assigns, so the tail takes two
  // launches. c and weight are dense throughout; the frontier is dense or
  // bitmap, as every GraphBLAS op's store leaves it.
  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 0);

  std::int64_t colored_total = 0;
  for (std::int32_t color = 1; color <= options.max_iterations; ++color) {
    const obs::ScopedPhase phase("grb_is::round");
    // Find max of neighbors (l.8), only for uncolored rows: weight is the
    // value mask, so colored rows keep a stale max that the GT below turns
    // into 0 exactly as a fresh one would (their weight is 0).
    grb::vxm(max, &weight, grb::max_times_semiring<Weight>(), weight, a);
    // Find all largest uncolored nodes (l.9); union semantics make
    // neighborless candidates (missing max entry) members automatically.
    grb::eWiseAdd(frontier, nullptr, grb::Greater{}, weight, max);
    detail::booleanize(frontier);
    // Stop when the frontier is empty (l.11-15). The plus-reduce over the
    // 0/1 frontier doubles as the independent-set size for the metrics.
    const std::int64_t succ =
        detail::mirror_count(device, "grb_is::sync_frontier", frontier, active);
    if (succ == 0) break;
    result.metrics.push("frontier", n - colored_total);
    colored_total += succ;
    result.metrics.push("colored", colored_total);
    result.metrics.push("colors_opened", color);
    // Assign new color; remove colored nodes from candidates (l.17-19).
    const std::span<std::int32_t> cv = c.dense_values();
    const std::span<Weight> wv = weight.dense_values();
    detail::assign_active(device, "grb_is::assign_colors", active,
                          [&](std::size_t i) {
                            cv[i] = color;
                            wv[i] = Weight{0};
                          });
    ++result.iterations;
  }

  result.elapsed_ms = watch.elapsed_ms();
  result.kernel_launches = device.launch_count() - launches_before;

  // Export: paper colors are 1-based with 0 = uncolored.
  const auto cv = c.dense_values();
  device.launch("grb_is::export_colors", n, [&](std::int64_t i) {
    const std::int32_t paper_color = cv[static_cast<std::size_t>(i)];
    result.colors[static_cast<std::size_t>(i)] =
        paper_color == 0 ? kUncolored : paper_color - 1;
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
