#include "core/naumov.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "core/live.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "obs/metrics.hpp"
#include "sim/device.hpp"
#include "sim/rng.hpp"
#include "sim/scratch.hpp"
#include "sim/slot_range.hpp"

namespace gcol::color {

namespace {

/// Tie-broken per-iteration hash priority, packed so int64 comparison gives
/// a strict total order (csrcolor breaks hash ties by vertex index too).
/// Callers pass ORIGINAL vertex ids (Options::original_id), so a logical
/// vertex hashes identically under every reorder strategy and the whole
/// coloring is invariant to relabeling. The shift puts hash bit 31 in the
/// sign bit, so hashes order as signed int32.
inline std::int64_t hash_priority(std::uint64_t seed, std::uint32_t iteration,
                                  vid_t orig) noexcept {
  return (static_cast<std::int64_t>(sim::iteration_hash(seed, iteration, orig))
          << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(orig));
}

/// Runs `body(v)` for every vertex and returns how many calls returned true
/// (the vertex is still uncolored) — fused into the SAME launch, so each
/// color pass pays one global synchronization instead of a color kernel plus
/// a count_if. The per-slot tallies combine serially like any reduce.
template <typename Body>
std::int64_t color_pass_count_uncolored(sim::Device& device, const char* name,
                                        vid_t n, Body&& body) {
  const unsigned workers = device.num_workers();
  const std::span<std::int64_t> partials =
      device.scratch().get<std::int64_t>(sim::ScratchLane::kPartials, workers);
  device.launch_slots(name, [&](unsigned slot, unsigned num_slots) {
    const auto [begin, end] = sim::slot_range(slot, num_slots, n);
    std::int64_t local = 0;
    for (std::int64_t vi = begin; vi < end; ++vi) {
      if (body(vi)) ++local;
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
  gr::Enactor enactor(device, result, options.max_iterations);

  // Double-buffered live state (DESIGN.md §3b): round k reads cur[], which
  // holds each vertex's round-k hash_priority or kColoredPriority once it
  // was colored before round k, and each vertex's own work item writes its
  // next[] entry for round k+1. A neighbor check is one gather and compare.
  std::vector<std::int64_t> cur(un);
  std::vector<std::int64_t> next(un);
  device.launch(
      "naumov::jpl_init", n,
      [&](std::int64_t v) {
        cur[static_cast<std::size_t>(v)] =
            hash_priority(options.seed, 0,
                          options.original_id(static_cast<vid_t>(v)));
      },
      sim::Schedule::kStatic, 0, nullptr,
      sim::Traffic{
          options.original_ids.empty() ? 0 : std::int64_t{sizeof(vid_t)},
          std::int64_t{sizeof(std::int64_t)}});

  // One kernel per iteration: every uncolored vertex checks whether it holds
  // the local hash maximum among the vertices uncolored at the round's
  // start; re-randomized every iteration. A neighbor colored in this round
  // still competes, so two adjacent local maxima never both claim the
  // round's color. Liveness of v itself comes from colors[v], which only
  // v's own work item writes: a live priority can equal the sentinel.
  const auto color_vertex = [&csr, &options, colors](
                                std::int64_t vi, std::int32_t iteration,
                                const std::int64_t* live, std::int64_t* out) {
    const auto v = static_cast<vid_t>(vi);
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] != kUncolored) {
      // Colored in round c (color c): round c wrote the sentinel to one
      // buffer, round c + 1 writes it to the other.
      if (colors[uv] == iteration - 1) out[uv] = kColoredPriority;
      return false;
    }
    const std::int64_t mine = live[uv];
    for (const vid_t u : csr.neighbors(v)) {
      if (live[static_cast<std::size_t>(u)] > mine) {
        out[uv] = hash_priority(options.seed,
                                static_cast<std::uint32_t>(iteration + 1),
                                options.original_id(v));
        return true;
      }
    }
    colors[uv] = iteration;
    out[uv] = kColoredPriority;
    return false;
  };

  enactor.run("naumov::jpl_round", [&](std::int32_t iteration) {
    const std::int64_t uncolored = color_pass_count_uncolored(
        device, "naumov::jpl_color", n, [&](std::int64_t vi) {
          return color_vertex(vi, iteration, cur.data(), next.data());
        });
    cur.swap(next);
    result.metrics.push("colors_opened", iteration + 1);
    return n - uncolored;
  });
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
  gr::Enactor enactor(device, result, options.max_iterations);

  // Live state written between launches (DESIGN.md §3b): a row of
  // kMaxHashes 32-bit hash slots per vertex plus a live byte, refilled by a
  // launch of its own each round, as double-buffering the rows would grow
  // peak RSS past its bound. Slots past num_hashes stay zero and are masked
  // off, so the compare loop has a fixed trip count. Hashes are signed:
  // hash_priority's int64 packing orders a hash as int32, and the original
  // id breaks equal hashes.
  constexpr std::size_t kRow = kMaxHashes;
  std::vector<std::int32_t> hashes(un * kRow);
  std::vector<std::uint8_t> live(un);
  const auto fill_vertex = [&](std::int64_t vi, std::int32_t iteration) {
    const auto v = static_cast<vid_t>(vi);
    const auto uv = static_cast<std::size_t>(v);
    live[uv] = colors[uv] == kUncolored ? 1 : 0;
    if (live[uv] == 0) return;
    const vid_t orig = options.original_id(v);
    for (std::int32_t h = 0; h < num_hashes; ++h) {
      hashes[uv * kRow + static_cast<std::size_t>(h)] =
          static_cast<std::int32_t>(sim::iteration_hash(
              options.seed + static_cast<std::uint64_t>(h) * 0x9e37u,
              static_cast<std::uint32_t>(iteration), orig));
    }
  };

  const auto color_vertex = [&](std::int64_t vi, std::int32_t iteration) {
    const std::int32_t color_base = iteration * 2 * num_hashes;
    const auto v = static_cast<vid_t>(vi);
    const auto uv = static_cast<std::size_t>(v);
    if (live[uv] == 0) return false;
    // Evaluate all hash functions in a single neighbor pass. Bit h of
    // `roles` is hash h's local maximum, bit kMaxHashes + h its minimum; a
    // neighbor clears the roles it beats.
    const std::int32_t* mine = &hashes[uv * kRow];
    const std::uint32_t hash_mask = (std::uint32_t{1} << num_hashes) - 1;
    std::uint32_t roles = hash_mask | hash_mask << kMaxHashes;
    // A list longer than the role count leaves once every role is lost: no
    // later neighbor can win one back. Short (mesh) lists skip the test,
    // whose cost there exceeds the few neighbors it would save.
    const auto adj = csr.neighbors(v);
    const bool may_leave =
        adj.size() > static_cast<std::size_t>(2 * num_hashes);
    for (const vid_t u : adj) {
      // Only neighbors colored before this round drop out; one colored in
      // it still competes, as its live byte is refilled between launches.
      if (live[static_cast<std::size_t>(u)] == 0) continue;
      const std::int32_t* theirs =
          &hashes[static_cast<std::size_t>(u) * kRow];
      // Branch-free: the compare outcomes are coin flips. An equal hash is
      // rare enough to redo on its own with the original-id tie break.
      std::uint32_t above = 0;
      std::uint32_t below = 0;
      std::uint32_t equal = 0;
      for (std::int32_t h = 0; h < kMaxHashes; ++h) {
        above |= static_cast<std::uint32_t>(theirs[h] > mine[h]) << h;
        below |= static_cast<std::uint32_t>(theirs[h] < mine[h]) << h;
        equal |= static_cast<std::uint32_t>(theirs[h] == mine[h]) << h;
      }
      equal &= hash_mask;
      if (equal != 0) {
        const vid_t orig_u = options.original_id(u);
        const vid_t orig_v = options.original_id(v);
        if (orig_u > orig_v) above |= equal;
        if (orig_u < orig_v) below |= equal;
      }
      roles &= ~(above | below << kMaxHashes);
      if (may_leave && roles == 0) return true;
    }
    if (roles == 0) return true;
    // The first winning role in the order max_0, min_0, max_1, ... claims
    // its reserved color for this iteration (countr_zero(0) is 32).
    const int first_max = 2 * std::countr_zero(roles & hash_mask);
    const int first_min = 2 * std::countr_zero(roles >> kMaxHashes) + 1;
    colors[uv] = color_base + std::min(first_max, first_min);
    return false;
  };

  enactor.run("naumov::cc_round", [&](std::int32_t iteration) {
    device.launch(
        "naumov::cc_hash", n,
        [&](std::int64_t vi) { fill_vertex(vi, iteration); });
    const std::int64_t uncolored = color_pass_count_uncolored(
        device, "naumov::cc_color", n,
        [&](std::int64_t vi) { return color_vertex(vi, iteration); });
    result.metrics.push("colors_opened", (iteration + 1) * 2 * num_hashes);
    return n - uncolored;
  });
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
