#include "core/grb_jpl.hpp"

#include <optional>
#include <span>
#include <vector>

#include "core/grb_common.hpp"
#include "core/palette.hpp"
#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/advance.hpp"
#include "sim/bitops.hpp"
#include "sim/scratch.hpp"
#include "sim/simd.hpp"
#include "sim/timer.hpp"

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
                               const grb::Vector<Weight>& frontier,
                               PureScratch& s) {
  // Find the frontier's COLORED neighbors: Boolean vxm masked by the color
  // vector (value mask: nonzero == colored), Alg. 4 l.3.
  s.nbr.clear();
  grb::vxm(s.nbr, &c, grb::boolean_semiring<Weight>(), frontier, a);
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

/// The same scalar, fused: ONE edge-balanced launch ORs the colors of the
/// frontier's colored neighbors into per-worker bit masks (64 colors per
/// word, scratch-arena backed), then the serial slot combine — the exact
/// shape of every reduce — takes the lowest zero bit >= 1. Colors assigned
/// so far are <= max_color, so a window of max_color + 2 bits always
/// contains the answer; scratch is O(workers * max_color / 64) words
/// instead of the pure path's three O(n) vectors. `active` is the frontier
/// as mirror_count left it (one byte per vertex, set = member).
std::int32_t jp_min_color_fused(sim::Device& device, const graph::Csr& csr,
                                const grb::Vector<std::int32_t>& c,
                                std::span<const std::uint8_t> active,
                                std::int32_t max_color) {
  const std::span<const std::int32_t> cv = c.dense_values();
  const std::size_t words =
      sim::word_index(static_cast<std::int64_t>(max_color) + 1) + 1;
  const unsigned workers = device.num_workers();
  const std::span<std::uint64_t> masks = device.scratch().get<std::uint64_t>(
      sim::ScratchLane::kPalette, words * workers);
  sim::simd::fill(masks, 0);

  sim::for_each_segment_range_slotted<eid_t>(
      device, "grb::jpl_forbidden", csr.row_offsets,
      [&](unsigned slot, std::int64_t s, std::int64_t local_begin,
          std::int64_t local_end, std::int64_t global_begin) {
        if (active[static_cast<std::size_t>(s)] == 0) return;
        std::uint64_t* mask = masks.data() + slot * words;
        for (std::int64_t k = local_begin; k < local_end; ++k) {
          const auto p =
              static_cast<std::size_t>(global_begin + (k - local_begin));
          // The color read is a scattered gather through col_indices;
          // prefetch the color of the neighbor D edges ahead so the miss
          // overlaps this edge's mask OR.
          if (k + sim::kGatherPrefetchDistance < local_end) {
            sim::prefetch(&cv[static_cast<std::size_t>(
                csr.col_indices[p + static_cast<std::size_t>(
                                        sim::kGatherPrefetchDistance)])]);
          }
          const vid_t u = csr.col_indices[p];
          const std::int32_t cu = cv[static_cast<std::size_t>(u)];
          if (cu > 0) sim::set_bit(mask, cu);
        }
      },
      nullptr,
      // Per edge position: one adjacency column gather plus the neighbor
      // color gather; the per-slot mask words stay cache-resident.
      sim::Traffic{static_cast<std::int64_t>(sizeof(vid_t)), 0} +
          palette::kFirstFitPerNeighbor);

  // Wide OR of the per-slot masks into slot 0's words, then one SIMD
  // first-zero-bit search — the same combine the word-major loop did, 4
  // words per instruction.
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
  grb::Vector<Weight> weight(n), max(n), frontier(n);

  std::optional<PureScratch> pure;
  if (!options.bit_packed_palette) pure.emplace(n);

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();

  grb::assign(c, nullptr, std::int32_t{0});
  detail::set_random_weights(weight, options);

  // Fused round tail, as in grb_is: mirror_count doubles as the succ
  // reduction and assign_active replaces the two masked assigns.
  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 0);

  std::int64_t colored_total = 0;
  std::int32_t max_color = 0;
  for (std::int32_t round = 1; round <= options.max_iterations; ++round) {
    const obs::ScopedPhase phase("grb_jpl::round");
    // Select the independent set exactly as Algorithm 2 does (neighbor max
    // masked to uncolored rows, as in grb_is).
    grb::vxm(max, &weight, grb::max_times_semiring<Weight>(), weight, a);
    grb::eWiseAdd(frontier, nullptr, grb::Greater{}, weight, max);
    detail::booleanize(frontier);
    const std::int64_t succ = detail::mirror_count(
        device, "grb_jpl::sync_frontier", frontier, active);
    if (succ == 0) break;
    // GRAPHBLASJPINNER replaces the fresh color with the minimum available.
    const std::int32_t min_color =
        options.bit_packed_palette
            ? jp_min_color_fused(device, csr, c, active, max_color)
            : jp_min_color_pure(a, c, frontier, *pure);
    const std::span<std::int32_t> cv = c.dense_values();
    const std::span<Weight> wv = weight.dense_values();
    detail::assign_active(device, "grb_jpl::assign_colors", active,
                          [&](std::size_t i) {
                            cv[i] = min_color;
                            wv[i] = Weight{0};
                          });
    result.metrics.push("frontier", n - colored_total);
    colored_total += succ;
    result.metrics.push("colored", colored_total);
    if (min_color > max_color) max_color = min_color;
    result.metrics.push("colors_opened", max_color);
    ++result.iterations;
  }

  result.elapsed_ms = watch.elapsed_ms();
  result.kernel_launches = device.launch_count() - launches_before;

  const auto cv = c.dense_values();
  device.launch("grb_jpl::export_colors", n, [&](std::int64_t i) {
    const std::int32_t paper_color = cv[static_cast<std::size_t>(i)];
    result.colors[static_cast<std::size_t>(i)] =
        paper_color == 0 ? kUncolored : paper_color - 1;
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
