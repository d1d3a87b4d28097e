#include "core/grb_jpl.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "core/grb_common.hpp"
#include "core/palette.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "obs/metrics.hpp"
#include "sim/bitops.hpp"
#include "sim/scratch.hpp"
#include "sim/simd.hpp"

namespace gcol::color {

namespace {

using detail::Weight;

/// colors_array[i] == 0 ? candidate color i : not available.
struct SelectUnused {
  Weight operator()(Weight used_flag, Weight index) const noexcept {
    return used_flag == 0 ? index : kNoColor;
  }
};

/// Scratch of the pure-GraphBLAS min-color chain: three (n+2)-wide vectors,
/// only materialized when the Table-II ablation selects that path (the
/// default bit-packed path draws its mask words from the device scratch
/// arena instead).
struct PureScratch {
  grb::Vector<Weight> nbr, used, palette, ascending, min_array;

  explicit PureScratch(grb::Index n)
      : nbr(n),
        used(n),
        palette(n + 2),
        ascending(n + 2),
        min_array(n + 2) {
    ascending.fill(Weight{0});
    grb::apply_indexed(
        ascending, nullptr,
        [](grb::Index i, Weight) { return static_cast<Weight>(i); },
        ascending);
  }
};

/// Algorithm 4's min-color the paper's way: minimum color (>= 1) not used
/// by any colored neighbor of the frontier, via the vxm + eWiseMult +
/// scatter + ramp-compare + min-reduce chain. `c` is the current coloring
/// (0 = uncolored).
std::int32_t jp_min_color_pure(const grb::Matrix<Weight>& a,
                               const grb::Vector<std::int32_t>& c,
                               const grb::Vector<std::uint8_t>& active,
                               PureScratch& s) {
  // Find the frontier's COLORED neighbors: Boolean vxm masked by the color
  // vector (value mask: nonzero == colored), Alg. 4 l.3.
  s.nbr.clear();
  grb::vxm(s.nbr, &c, grb::boolean_semiring<Weight>(), active, a);
  // Map the indicator to the neighbors' colors (l.5).
  s.used.clear();
  grb::eWiseMult(s.used, nullptr, grb::Times{}, s.nbr, c);
  // Fill the possible-colors array and scatter used colors into it (l.7-9).
  grb::assign(s.palette, nullptr, Weight{0});
  grb::scatter(s.palette, nullptr, s.used, Weight{1});
  // Unused slots map to their own index, used ones to +inf (l.11).
  grb::eWiseMult(s.min_array, nullptr, SelectUnused{}, s.palette, s.ascending);
  // Color 0 means "uncolored" and is never available (l.12).
  s.min_array.set_element(0, kNoColor);
  // Min-reduce yields the minimum available color (l.14).
  Weight min_color = kNoColor;
  grb::reduce(&min_color, grb::min_monoid<Weight>(), s.min_array);
  return static_cast<std::int32_t>(min_color);
}

/// The same scalar, fused: ONE launch ORs the colors of the frontier's
/// colored neighbors into per-worker bit masks (64 colors per word,
/// scratch-arena backed), then the serial slot combine — the exact shape of
/// every reduce — takes the lowest zero bit >= 1. Colors assigned so far are
/// <= max_color, so a window of max_color + 2 bits always contains the
/// answer; scratch is O(workers * max_color / 64) words instead of the pure
/// path's three O(n) vectors. `active` is the frontier as mirror_count left
/// it (one byte per vertex, set = member). Rows are claimed in dynamic
/// chunks and only frontier rows read their neighbors, so a round costs a
/// byte per vertex plus the frontier's edges, not a sweep of the whole CSR.
std::int32_t jp_min_color_fused(sim::Device& device, const graph::Csr& csr,
                                const grb::Vector<std::int32_t>& c,
                                std::span<const std::uint8_t> active,
                                std::int32_t max_color) {
  const std::int32_t* const cv = c.dense_values().data();
  const eid_t* const offsets = csr.row_offsets.data();
  const vid_t* const cols = csr.col_indices.data();
  const std::uint8_t* const member = active.data();
  const std::size_t words =
      sim::word_index(static_cast<std::int64_t>(max_color) + 1) + 1;
  const unsigned workers = device.num_workers();
  const std::span<std::uint64_t> masks = device.scratch().get<std::uint64_t>(
      sim::ScratchLane::kPalette, words * workers);
  sim::simd::fill(masks, 0);
  // Per slot: rows claimed, frontier rows, and their edges.
  const std::span<std::int64_t> tallies = device.scratch().get<std::int64_t>(
      sim::ScratchLane::kPartials, 3 * static_cast<std::size_t>(workers));
  std::fill(tallies.begin(), tallies.end(), 0);

  grb::detail::claim_chunks(
      device, "grb::jpl_forbidden", csr.num_vertices,
      [&, cv, offsets, cols, member](unsigned slot, std::int64_t begin,
                                     std::int64_t end) {
        std::uint64_t* const mask = masks.data() + slot * words;
        std::int64_t rows = 0;
        std::int64_t edges = 0;
        for (std::int64_t s = begin; s < end; ++s) {
          const auto us = static_cast<std::size_t>(s);
          if (member[us] == 0) continue;
          const eid_t row_end = offsets[us + 1];
          ++rows;
          edges += row_end - offsets[us];
          for (eid_t p = offsets[us]; p < row_end; ++p) {
            // The color read is a scattered gather through col_indices;
            // prefetch the color of the neighbor D edges ahead so the miss
            // overlaps this edge's mask OR.
            if (p + sim::kGatherPrefetchDistance < row_end) {
              sim::prefetch(&cv[cols[p + sim::kGatherPrefetchDistance]]);
            }
            const std::int32_t cu = cv[cols[p]];
            if (cu > 0) sim::set_bit(mask, cu);
          }
        }
        tallies[slot] += end - begin;
        tallies[workers + slot] += rows;
        tallies[2 * workers + slot] += edges;
      },
      [&](unsigned slot) {
        // Per row: the frontier byte; per frontier row: its offset pair;
        // per frontier edge: the column gather plus the neighbor color
        // gather. The per-slot mask words stay cache-resident.
        return sim::Traffic{1, 0} * tallies[slot] +
               sim::Traffic{static_cast<std::int64_t>(2 * sizeof(eid_t)), 0} *
                   tallies[workers + slot] +
               (sim::Traffic{static_cast<std::int64_t>(sizeof(vid_t)), 0} +
                palette::kFirstFitPerNeighbor) *
                   tallies[2 * workers + slot];
      });

  // OR the per-slot masks into slot 0's words, then one first-zero-bit
  // search over the combined window.
  const std::span<std::uint64_t> combined = masks.first(words);
  for (unsigned slot = 1; slot < workers; ++slot) {
    sim::simd::or_into(combined, masks.subspan(slot * words, words));
  }
  // Bit 0 = color 0 = "uncolored", never available (Alg. 4 l.12).
  combined[0] |= std::uint64_t{1};
  const std::int64_t free_bit = sim::simd::first_zero_bit(combined);
  if (free_bit >= 0) return static_cast<std::int32_t>(free_bit);
  // Unreachable: neighbor colors are <= max_color, so bit max_color + 1
  // of the window is always free.
  return max_color + 1;
}

}  // namespace

Coloring grb_jpl_color(const graph::Csr& csr, const GrbJplOptions& options) {
  const auto n = static_cast<grb::Index>(csr.num_vertices);

  Coloring result;
  result.algorithm = options.bit_packed_palette ? "grb_jpl" : "grb_jpl_pure";
  result.colors.assign(static_cast<std::size_t>(n), kUncolored);
  if (n == 0) return result;

  auto& device = sim::Device::instance();
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);
  const grb::Matrix<Weight> a(csr);
  grb::Vector<std::int32_t> c(n);
  grb::Vector<Weight> weight(n);
  grb::Vector<std::uint8_t> active(n);  // the round's frontier, as in grb_is

  std::optional<PureScratch> pure;
  if (!options.bit_packed_palette) pure.emplace(n);

  gr::Enactor enactor(device, result, options.max_iterations);

  grb::assign(c, nullptr, std::int32_t{0});
  detail::set_random_weights(weight, options);

  std::int64_t colored_total = 0;
  std::int32_t max_color = 0;
  enactor.run("grb_jpl::round", [&](std::int32_t) {
    // Select the independent set exactly as Algorithm 2 does, in one
    // launch (see grb_is).
    const auto nbr_max = grb::deferred::vxm(
        &weight, grb::max_times_semiring<Weight>(), weight, a);
    colored_total += detail::mirror_count(
        device, "grb_jpl::select_frontier",
        grb::deferred::eWiseAdd(grb::Greater{}, weight, nbr_max), active);
    // GRAPHBLASJPINNER replaces the fresh color with the minimum available.
    const std::int32_t min_color =
        options.bit_packed_palette
            ? jp_min_color_fused(device, csr, c, active.dense_values(),
                                 max_color)
            : jp_min_color_pure(a, c, active, *pure);
    const std::span<std::int32_t> cv = c.dense_values();
    const std::span<Weight> wv = weight.dense_values();
    detail::assign_active(device, "grb_jpl::assign_colors", active,
                          [&](std::size_t i) {
                            cv[i] = min_color;
                            wv[i] = Weight{0};
                          });
    if (min_color > max_color) max_color = min_color;
    result.metrics.push("colors_opened", max_color);
    return colored_total;
  });

  detail::export_colors(device, "grb_jpl::export_colors", c, result);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
