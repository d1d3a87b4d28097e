#include "core/grb_is.hpp"

#include <span>

#include "core/grb_common.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "obs/metrics.hpp"

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
  // The round's only materialized vector: the frontier, one byte per vertex.
  grb::Vector<std::uint8_t> active(n);

  gr::Enactor enactor(device, result, options.max_iterations);

  // Initialize colors to 0 (uncolored) and weights to random (Alg. 2 l.3-5).
  grb::assign(c, nullptr, std::int32_t{0});
  detail::set_random_weights(weight, options);

  std::int64_t colored_total = 0;
  enactor.run("grb_is::round", [&](std::int32_t iteration) {
    const std::int32_t color = iteration + 1;
    // Find max of neighbors (l.8), only for uncolored rows: weight is the
    // value mask, and a masked-out row has no entry.
    const auto nbr_max = grb::deferred::vxm(
        &weight, grb::max_times_semiring<Weight>(), weight, a);
    // Find all largest uncolored nodes (l.9); union semantics make
    // neighborless candidates (missing max entry) members automatically.
    // Both run in mirror_count's one launch, whose count is the plus-reduce
    // that sizes the set; the driver's colored == n test is the paper's
    // empty-frontier exit (l.11-15).
    colored_total += detail::mirror_count(
        device, "grb_is::select_frontier",
        grb::deferred::eWiseAdd(grb::Greater{}, weight, nbr_max), active);
    result.metrics.push("colors_opened", color);
    // Assign new color; remove colored nodes from candidates (l.17-19).
    const std::span<std::int32_t> cv = c.dense_values();
    const std::span<Weight> wv = weight.dense_values();
    detail::assign_active(device, "grb_is::assign_colors", active,
                          [&](std::size_t i) {
                            cv[i] = color;
                            wv[i] = Weight{0};
                          });
    return colored_total;
  });

  detail::export_colors(device, "grb_is::export_colors", c, result);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
