#pragma once
// Common result and option types for every coloring algorithm in the
// library. All algorithms emit the same Coloring record so the benchmark
// harnesses can compare implementations uniformly (runtime, color count,
// iterations, global synchronizations), mirroring the paper's Figure 1 and
// Table II metrics.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/reorder.hpp"
#include "graph/types.hpp"
#include "gunrock/frontier.hpp"
#include "obs/metrics.hpp"

namespace gcol::color {

/// Colors are 0-based contiguous-ish small integers; kUncolored marks a
/// vertex no color has been assigned to. A returned Coloring colors every
/// vertex unless its hit_iteration_cap is set.
inline constexpr std::int32_t kUncolored = -1;

/// "No color available here" in the 64-bit packed color/weight domain the
/// GraphBLAST formulations reduce over: +inf for min-reductions, so a used
/// palette slot can never win. Shared by the Algorithm-4 implementations
/// (previously re-declared per translation unit).
inline constexpr std::int64_t kNoColor = std::numeric_limits<std::int64_t>::max();

struct Coloring {
  std::string algorithm;             ///< registry name of the producer
  std::vector<std::int32_t> colors;  ///< per-vertex color, size n
  std::int32_t num_colors = 0;       ///< number of distinct colors used
  std::int32_t iterations = 0;       ///< outer color rounds
  double elapsed_ms = 0.0;           ///< wall clock of the color phase only
  std::uint64_t kernel_launches = 0; ///< global-synchronization proxy
  std::int64_t conflicts_resolved = 0;  ///< hash/speculative variants only
  /// Set when a round-based colorer ran Options::max_iterations rounds and
  /// vertices were still uncolored. The colors are then partial: the
  /// colored vertices form a proper coloring of the subgraph they induce,
  /// and the rest are kUncolored. False on every complete coloring.
  bool hit_iteration_cap = false;
  /// Per-run observability payload: per-kernel launch aggregates plus
  /// per-iteration series ("frontier", "colored", ...). Filled by every
  /// algorithm; serialized by the harnesses' --json mode.
  obs::Metrics metrics;
};

/// Options shared by the parallel heuristics. Each algorithm header extends
/// this with its own knobs.
struct Options {
  std::uint64_t seed = 0x5eedULL;
  /// Cap on outer color rounds (far above any practical bound; the
  /// randomized heuristics all have expected O(log n) rounds). A run that
  /// reaches it with vertices uncolored returns them kUncolored and sets
  /// Coloring::hit_iteration_cap.
  std::int32_t max_iterations = 1 << 20;
  /// Bitmap frontier traversal direction for the frontier-driven
  /// algorithms (jones_plassmann, gunrock_is, gunrock_hash, gunrock_ar):
  /// forced push/pull, or the per-launch occupancy-adaptive choice (the
  /// default). Algorithms without frontier loops ignore it.
  gr::FrontierMode frontier_mode = gr::FrontierMode::kAuto;
  /// Vertex numbering the registry runs the algorithm under (see
  /// graph/reorder.hpp). Non-identity strategies relabel the CSR on the way
  /// in and inverse-permute the coloring on the way out, so callers always
  /// receive colors in their own id space.
  graph::ReorderStrategy reorder = graph::ReorderStrategy::kIdentity;
  /// Set by the registry's reorder wrapper when the graph an algorithm sees
  /// has been relabeled: original_ids[v] is the caller-visible id of
  /// internal vertex v (the permutation's old_of_new). Empty means internal
  /// ids ARE the original ids. The span aliases the wrapper's permutation,
  /// valid for the duration of the run. Harnesses that pre-relabel a graph
  /// themselves (amortizing the permutation across timed runs) set this
  /// directly and receive colors in the relabeled space.
  std::span<const vid_t> original_ids{};

  /// The id randomized priorities and deterministic tie-breaks must key on:
  /// the caller-visible id of internal vertex v. Deriving per-vertex
  /// randomness from original ids makes a deterministic algorithm's
  /// un-permuted coloring byte-identical under every reorder strategy —
  /// reordering changes the memory layout the kernels traverse, never the
  /// result.
  [[nodiscard]] vid_t original_id(vid_t v) const noexcept {
    return original_ids.empty() ? v
                                : original_ids[static_cast<std::size_t>(v)];
  }
};

}  // namespace gcol::color
