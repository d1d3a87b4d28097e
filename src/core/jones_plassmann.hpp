#pragma once
// Classic Jones-Plassmann coloring [Jones & Plassmann, SISC 1993] with
// per-vertex minimum-available color, plus the largest-degree-first priority
// variant the paper's conclusion proposes as future work ("examine how the
// largest-degree-first heuristic compares with the randomized algorithms").
//
// Unlike the paper's Algorithm 4 (which assigns one collective min color to
// the whole frontier), this is the textbook JP: every vertex whose priority
// beats all uncolored neighbors colors itself with the smallest color absent
// from its (already colored) neighborhood. Colors are reused aggressively,
// giving greedy-like quality with parallel rounds.

#include <cstdint>
#include <vector>

#include "core/result.hpp"
#include "graph/csr.hpp"

namespace gcol::color {

enum class JpPriority {
  kRandom,              ///< Luby-style random priorities
  kLargestDegreeFirst,  ///< degree, then random, then id (future-work exp.)
  kSmallestDegreeLast,  ///< inverse-degeneracy weight, tie-broken by random
  /// Che et al. [IPDPSW 2015] hybrid: "a largest degree-first strategy for
  /// early iterations, followed by a randomized strategy" — encoded as a
  /// static priority where vertices above the hybrid_degree_percentile get
  /// degree-ordered (they color in the early rounds) and the rest compete
  /// on random draws.
  kHybridDegreeThenRandom,
};

/// JP runs as a priority DAG (core/priority_dag.hpp): priorities are
/// read-only after one init launch, one launch counts each vertex's
/// outranking neighbors, and each round is one launch that colors the
/// vertices whose count reached 0 and decrements their lower-priority
/// neighbors' counts. A round is race-free because its vertices are
/// pairwise non-adjacent and the decrements and ready-bit ORs commute.
/// Launches: iterations + 1. Options::frontier_mode does not apply.
struct JonesPlassmannOptions : Options {
  JpPriority priority = JpPriority::kRandom;
  /// kHybridDegreeThenRandom only: fraction of vertices (by degree rank)
  /// treated degree-first.
  double hybrid_degree_fraction = 0.1;
};

/// Every vertex's priority under `options` (one launch, or a host
/// degeneracy sweep for kSmallestDegreeLast): higher colors earlier. The
/// degree-keyed modes can give two vertices equal values; JP breaks those
/// ties on original id, higher first. With first-fit colors, JP equals
/// sequential greedy over the vertices in descending (priority, id) order.
[[nodiscard]] std::vector<std::int64_t> jones_plassmann_priorities(
    const graph::Csr& csr, const JonesPlassmannOptions& options = {});

[[nodiscard]] Coloring jones_plassmann_color(
    const graph::Csr& csr, const JonesPlassmannOptions& options = {});

[[nodiscard]] const char* to_string(JpPriority priority) noexcept;

}  // namespace gcol::color
