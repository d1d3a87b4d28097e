#include "core/naumov.hpp"

#include <array>
#include <bit>
#include <vector>

#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/atomics.hpp"
#include "sim/device.hpp"
#include "sim/rng.hpp"
#include "sim/scratch.hpp"
#include "sim/slot_range.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

namespace {

/// Tie-broken per-iteration hash priority, packed so int64 comparison gives
/// a strict total order (csrcolor breaks hash ties by vertex index too).
/// Callers pass ORIGINAL vertex ids (Options::original_id), so a logical
/// vertex hashes identically under every reorder strategy and the whole
/// coloring is invariant to relabeling.
inline std::int64_t hash_priority(std::uint64_t seed, std::uint32_t iteration,
                                  vid_t orig) noexcept {
  return (static_cast<std::int64_t>(sim::iteration_hash(seed, iteration, orig))
          << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(orig));
}

/// Runs `body(v)` for every vertex and returns how many vertices remain
/// uncolored — fused into the SAME launch, so each iteration pays one
/// global synchronization instead of a color kernel plus a count_if.
/// Exact because colors[v] is written only by v's own work item: after
/// body(v) returns, colors[v] is final for this iteration, and the
/// per-slot tallies combine serially like any reduce.
template <typename Body>
std::int64_t color_pass_count_uncolored(sim::Device& device, const char* name,
                                        vid_t n, const std::int32_t* colors,
                                        Body&& body) {
  const unsigned workers = device.num_workers();
  const std::span<std::int64_t> partials =
      device.scratch().get<std::int64_t>(sim::ScratchLane::kPartials, workers);
  device.launch_slots(name, [&](unsigned slot, unsigned num_slots) {
    const auto [begin, end] = sim::slot_range(slot, num_slots, n);
    std::int64_t local = 0;
    for (std::int64_t vi = begin; vi < end; ++vi) {
      body(vi);
      if (colors[static_cast<std::size_t>(vi)] == kUncolored) ++local;
    }
    partials[slot] = local;
  });
  std::int64_t uncolored = 0;
  for (unsigned slot = 0; slot < workers; ++slot) uncolored += partials[slot];
  return uncolored;
}

}  // namespace

Coloring naumov_jpl_color(const graph::Csr& csr,
                          const NaumovJplOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = "naumov_jpl";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  std::int32_t* colors = result.colors.data();
  std::int64_t prev_colored = 0;

  // One kernel per iteration: every uncolored vertex checks whether it holds
  // the local hash maximum among uncolored neighbors; re-randomized every
  // iteration. The loop-termination count rides in the same launch.
  const auto color_vertex = [&csr, &options, colors](std::int64_t vi,
                                                     std::int32_t iteration) {
    const auto v = static_cast<vid_t>(vi);
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] != kUncolored) return;
    const std::int64_t mine =
        hash_priority(options.seed, static_cast<std::uint32_t>(iteration),
                      options.original_id(v));
    for (const vid_t u : csr.neighbors(v)) {
      // Skip only neighbors finalized in EARLIER iterations; a neighbor
      // racily colored this iteration must still be compared, or two
      // adjacent local maxima could both claim this iteration's color.
      const std::int32_t cu =
          sim::atomic_load(colors[static_cast<std::size_t>(u)]);
      if (cu != kUncolored && cu != iteration) continue;
      if (hash_priority(options.seed, static_cast<std::uint32_t>(iteration),
                        options.original_id(u)) > mine) {
        return;
      }
    }
    sim::atomic_store(colors[uv], iteration);
  };

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  for (std::int32_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    const obs::ScopedPhase phase("naumov::jpl_round");
    const std::int64_t uncolored = color_pass_count_uncolored(
        device, "naumov::jpl_color", n, colors,
        [&](std::int64_t vi) { color_vertex(vi, iteration); });
    ++result.iterations;
    result.metrics.push("frontier", n - prev_colored);
    result.metrics.push("colored", n - uncolored);
    result.metrics.push("colors_opened", iteration + 1);
    prev_colored = n - uncolored;
    if (uncolored == 0) break;
  }

  result.elapsed_ms = watch.elapsed_ms();
  result.kernel_launches = device.launch_count() - launches_before;
  result.num_colors = count_colors(result.colors);
  return result;
}

Coloring naumov_cc_color(const graph::Csr& csr,
                         const NaumovCcOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = "naumov_cc";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;

  constexpr std::int32_t kMaxHashes = 8;
  const std::int32_t num_hashes =
      options.num_hashes < 1
          ? 1
          : (options.num_hashes > kMaxHashes ? kMaxHashes
                                             : options.num_hashes);
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);
  std::int32_t* colors = result.colors.data();
  std::int64_t prev_colored = 0;

  const auto color_vertex = [&csr, &options, colors,
                             num_hashes](std::int64_t vi,
                                         std::int32_t iteration) {
    const std::int32_t color_base = iteration * 2 * num_hashes;
    const auto v = static_cast<vid_t>(vi);
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] != kUncolored) return;
    // Evaluate all hash functions in a single neighbor pass. Role bit 2h is
    // hash h's local maximum and bit 2h + 1 its minimum, so the first
    // winning role is the lowest surviving bit.
    std::array<std::int64_t, kMaxHashes> mine{};
    const vid_t orig_v = options.original_id(v);
    for (std::int32_t h = 0; h < num_hashes; ++h) {
      mine[static_cast<std::size_t>(h)] = hash_priority(
          options.seed + static_cast<std::uint64_t>(h) * 0x9e37u,
          static_cast<std::uint32_t>(iteration), orig_v);
    }
    std::uint32_t roles = (std::uint32_t{1} << (2 * num_hashes)) - 1;
    // A list longer than the role count leaves once every role is lost: no
    // later neighbor can win one back. Short (mesh) lists skip the test,
    // whose cost there exceeds the few neighbors it would save.
    const auto adj = csr.neighbors(v);
    const bool may_leave =
        adj.size() > static_cast<std::size_t>(2 * num_hashes);
    for (const vid_t u : adj) {
      // As in JPL: only skip neighbors finalized before this iteration.
      const std::int32_t cu =
          sim::atomic_load(colors[static_cast<std::size_t>(u)]);
      if (cu != kUncolored && cu < color_base) continue;
      const vid_t orig_u = options.original_id(u);
      for (std::int32_t h = 0; h < num_hashes; ++h) {
        const std::int64_t theirs = hash_priority(
            options.seed + static_cast<std::uint64_t>(h) * 0x9e37u,
            static_cast<std::uint32_t>(iteration), orig_u);
        const std::int64_t ours = mine[static_cast<std::size_t>(h)];
        const std::uint32_t lost = (theirs > ours ? 1u : 0u) |
                                   (theirs < ours ? 2u : 0u);
        roles &= ~(lost << (2 * h));
      }
      if (may_leave && roles == 0) return;
    }
    // First winning role claims its reserved color for this iteration.
    if (roles != 0) {
      sim::atomic_store(colors[uv], color_base + std::countr_zero(roles));
    }
  };

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  for (std::int32_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    const obs::ScopedPhase phase("naumov::cc_round");
    const std::int64_t uncolored = color_pass_count_uncolored(
        device, "naumov::cc_color", n, colors,
        [&](std::int64_t vi) { color_vertex(vi, iteration); });
    ++result.iterations;
    result.metrics.push("frontier", n - prev_colored);
    result.metrics.push("colored", n - uncolored);
    result.metrics.push("colors_opened", (iteration + 1) * 2 * num_hashes);
    prev_colored = n - uncolored;
    if (uncolored == 0) break;
  }

  result.elapsed_ms = watch.elapsed_ms();
  result.kernel_launches = device.launch_count() - launches_before;
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
