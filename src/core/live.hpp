#pragma once
// Per-vertex priorities the round-based colorers gather in place of
// re-deriving them per edge, and the sentinel that retires a colored vertex
// from them between launches (DESIGN.md §3b, "The live-state rule").

#include <cstdint>
#include <limits>
#include <vector>

#include "core/result.hpp"
#include "sim/device.hpp"
#include "sim/rng.hpp"

namespace gcol::color {

/// Marks a vertex that has left the comparison: below every priority, so
/// it never outranks a neighbor, and the identity of a max reduction.
inline constexpr std::int64_t kColoredPriority =
    std::numeric_limits<std::int64_t>::min();

/// Packed priority: random weight in the high bits, vertex id below, so a
/// plain int64 compare is the tie-broken (weight, id) order and an int64
/// max doubles as a tie-broken argmax (the ReduceMaxOp of Algorithm 7).
inline std::int64_t packed_priority(std::int32_t r, vid_t v) noexcept {
  return (static_cast<std::int64_t>(r) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(v));
}

/// One launch filling an n-vector with every vertex's random packed
/// priority. Draws and tie ids key on original vertex ids, so the priority
/// of a logical vertex, and the whole coloring, is invariant to the
/// registry's reorder strategies.
[[nodiscard]] inline std::vector<std::int64_t> random_priorities(
    sim::Device& device, const char* kernel, vid_t n,
    const Options& options) {
  std::vector<std::int64_t> priority(static_cast<std::size_t>(n));
  const sim::CounterRng rng(options.seed);
  device.launch(
      kernel, n,
      [&](std::int64_t v) {
        const vid_t orig = options.original_id(static_cast<vid_t>(v));
        priority[static_cast<std::size_t>(v)] = packed_priority(
            rng.uniform_int31(static_cast<std::uint64_t>(orig)), orig);
      },
      sim::Schedule::kStatic, 0, nullptr,
      sim::Traffic{
          options.original_ids.empty() ? 0 : std::int64_t{sizeof(vid_t)},
          std::int64_t{sizeof(std::int64_t)}});
  return priority;
}

}  // namespace gcol::color
