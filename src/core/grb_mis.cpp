#include "core/grb_mis.hpp"

#include <cstdint>
#include <span>
#include <vector>

#include "core/grb_common.hpp"
#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

namespace {

using detail::Weight;

constexpr grb::Descriptor kReplace{.replace = true};

/// Algorithm 3 inner loop: grows `mis` to a maximal independent set of the
/// subgraph induced by cand's nonzero entries. `cand` is consumed. Each
/// masked update is the fused tail: mirror_count of the frontier (or
/// neighbor set) into `active`, then one in-place assign_active launch.
/// mis and cand are dense throughout (filled, copied, then updated in place).
void mis_inner(sim::Device& device, const grb::Matrix<Weight>& a,
               grb::Vector<Weight>& cand, grb::Vector<Weight>& mis,
               grb::Vector<Weight>& max, grb::Vector<Weight>& frontier,
               grb::Vector<Weight>& nbr, std::span<std::uint8_t> active) {
  grb::assign(mis, nullptr, Weight{0});
  for (;;) {
    // Find max of remaining candidates' neighbors, masked to candidates
    // (Alg. 3 l.6). Replace drops the stale entries of the previous round
    // at positions the mask blocks.
    grb::vxm(max, &cand, grb::max_times_semiring<Weight>(), cand, a,
             kReplace);
    // New members: candidates beating all candidate neighbors (l.8).
    grb::eWiseAdd(frontier, nullptr, grb::Greater{}, cand, max);
    detail::booleanize(frontier);
    // Stop when no new members joined (l.14-17); add members to the set and
    // drop them from the candidates otherwise (l.10-12).
    if (detail::mirror_count(device, "grb_mis::sync_frontier", frontier,
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
    // Remove the new members' neighbors from the candidates (l.19-20).
    grb::vxm(nbr, &cand, grb::boolean_semiring<Weight>(), frontier, a,
             kReplace);
    if (detail::mirror_count(device, "grb_mis::sync_nbr", nbr, active) > 0) {
      detail::assign_active(device, "grb_mis::knockout_nbrs", active,
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
  grb::Vector<Weight> weight(n), cand(n), mis(n), max(n), frontier(n), nbr(n);

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();

  grb::assign(c, nullptr, std::int32_t{0});
  detail::set_random_weights(weight, options);

  // One mask mirror serves every fused tail: each is consumed by its
  // assign_active before the next mirror_count overwrites it.
  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 0);

  std::int64_t colored_total = 0;
  for (std::int32_t color = 1; color <= options.max_iterations; ++color) {
    const obs::ScopedPhase phase("grb_mis::round");
    // Inner loop operates on a copy: knocked-out neighbors must stay
    // colorable in later outer rounds.
    cand = weight;
    mis_inner(device, a, cand, mis, max, frontier, nbr, active);
    // The MIS is empty only when no uncolored vertices remain. Summing the
    // 0/1 set vector gives the emptiness test and the set size in one pass.
    const std::int64_t size =
        detail::mirror_count(device, "grb_mis::sync_mis", mis, active);
    if (size == 0) break;
    result.metrics.push("frontier", n - colored_total);
    colored_total += size;
    result.metrics.push("colored", colored_total);
    result.metrics.push("colors_opened", color);
    const std::span<std::int32_t> cv = c.dense_values();
    const std::span<Weight> wv = weight.dense_values();
    detail::assign_active(device, "grb_mis::assign_colors", active,
                          [&](std::size_t i) {
                            cv[i] = color;
                            wv[i] = Weight{0};
                          });
    ++result.iterations;
  }

  result.elapsed_ms = watch.elapsed_ms();
  result.kernel_launches = device.launch_count() - launches_before;

  const auto cv = c.dense_values();
  device.launch("grb_mis::export_colors", n, [&](std::int64_t i) {
    const std::int32_t paper_color = cv[static_cast<std::size_t>(i)];
    result.colors[static_cast<std::size_t>(i)] =
        paper_color == 0 ? kUncolored : paper_color - 1;
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
