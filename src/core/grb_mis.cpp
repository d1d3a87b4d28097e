#include "core/grb_mis.hpp"

#include <cstdint>
#include <span>

#include "core/grb_common.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "obs/metrics.hpp"

namespace gcol::color {

namespace {

using detail::Weight;

/// Algorithm 3 inner loop: grows `mis` to a maximal independent set of the
/// subgraph induced by cand's nonzero entries. `cand` is consumed. Each
/// step is two fused tails (a deferred chain mirrored into bytes, then an
/// in-place assign_active); the knock-out vxm reads `active`, so it mirrors
/// into `knocked`. mis and cand are dense (filled, copied, updated in place).
void mis_inner(sim::Device& device, const grb::Matrix<Weight>& a,
               grb::Vector<Weight>& cand, grb::Vector<Weight>& mis,
               grb::Vector<std::uint8_t>& active,
               grb::Vector<std::uint8_t>& knocked) {
  grb::assign(mis, nullptr, Weight{0});
  for (;;) {
    // Find max of remaining candidates' neighbors, masked to candidates
    // (Alg. 3 l.6); new members are candidates beating all candidate
    // neighbors (l.8). Stop when none joined (l.14-17); add members to the
    // set and drop them from the candidates otherwise (l.10-12).
    const auto nbr_max = grb::deferred::vxm(
        &cand, grb::max_times_semiring<Weight>(), cand, a);
    if (detail::mirror_count(
            device, "grb_mis::select_frontier",
            grb::deferred::eWiseAdd(grb::Greater{}, cand, nbr_max),
            active) == 0) {
      return;
    }
    const std::span<Weight> mv = mis.dense_values();
    const std::span<Weight> cv = cand.dense_values();
    detail::assign_active(device, "grb_mis::assign_members", active,
                          [&](std::size_t i) {
                            mv[i] = Weight{1};
                            cv[i] = Weight{0};
                          });
    // Remove the new members' neighbors from the candidates (l.19-20); the
    // LOR row reduction stops at the first member neighbor.
    if (detail::mirror_count(
            device, "grb_mis::find_nbrs",
            grb::deferred::vxm(&cand, grb::boolean_semiring<Weight>(), active,
                               a),
            knocked) > 0) {
      detail::assign_active(device, "grb_mis::knockout_nbrs", knocked,
                            [&](std::size_t i) { cv[i] = Weight{0}; });
    }
  }
}

}  // namespace

Coloring grb_mis_color(const graph::Csr& csr, const GrbMisOptions& options) {
  const auto n = static_cast<grb::Index>(csr.num_vertices);

  Coloring result;
  result.algorithm = "grb_mis";
  result.colors.assign(static_cast<std::size_t>(n), kUncolored);
  if (n == 0) return result;

  auto& device = sim::Device::instance();
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);
  const grb::Matrix<Weight> a(csr);
  grb::Vector<std::int32_t> c(n);
  grb::Vector<Weight> weight(n), cand(n), mis(n);
  // One frontier mirror serves every fused tail but the knock-out's: each
  // is consumed by its assign_active before the next mirror_count.
  grb::Vector<std::uint8_t> active(n), knocked(n);

  gr::Enactor enactor(device, result, options.max_iterations);

  grb::assign(c, nullptr, std::int32_t{0});
  detail::set_random_weights(weight, options);

  std::int64_t colored_total = 0;
  enactor.run("grb_mis::round", [&](std::int32_t iteration) {
    const std::int32_t color = iteration + 1;
    // Inner loop operates on a copy: knocked-out neighbors must stay
    // colorable in later outer rounds.
    cand = weight;
    mis_inner(device, a, cand, mis, active, knocked);
    // Summing the 0/1 set vector gives the set size in the same pass that
    // mirrors it into the frontier bytes.
    colored_total +=
        detail::mirror_count(device, "grb_mis::sync_mis", mis, active);
    result.metrics.push("colors_opened", color);
    const std::span<std::int32_t> cv = c.dense_values();
    const std::span<Weight> wv = weight.dense_values();
    detail::assign_active(device, "grb_mis::assign_colors", active,
                          [&](std::size_t i) {
                            cv[i] = color;
                            wv[i] = Weight{0};
                          });
    return colored_total;
  });

  detail::export_colors(device, "grb_mis::export_colors", c, result);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
