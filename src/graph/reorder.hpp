#pragma once
// Cache-aware vertex reordering: permutation strategies + a device-measured
// CSR relabeling pass. Once launch overhead is removed and kernels are
// fused, the Figure-1 algorithms are bound by irregular CSR gathers whose
// cost is set by the *vertex numbering* of the input — which the library
// previously took as-is. A relabeling layer that
// packs hubs densely (so their colors/priorities share cache lines) and
// keeps low-degree tails in neighbor-affine order is the classic fix
// (cf. Chen et al.'s locality analysis and Gunrock's memory-divergence
// discussion).
//
// The contract is transparent: callers select a strategy through
// color::Options::reorder and always receive colors indexed by *their*
// vertex ids — the registry relabels on the way in and inverse-permutes the
// coloring on the way out (see core/registry.cpp). Randomized algorithms
// derive per-vertex randomness from original ids (Options::original_id), so
// a deterministic algorithm's coloring is byte-identical under every
// strategy; only the memory layout the kernels traverse changes.

#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace gcol::graph {

/// Vertex numbering strategies, CLI-stable names in to_string/parse order.
enum class ReorderStrategy {
  kIdentity,    ///< keep the input numbering (the pre-PR8 behavior)
  kDegreeSort,  ///< stable sort by descending degree: hubs first, packed
  kDbg,         ///< degree-binned grouping: log2-degree buckets hubs-first,
                ///< input order kept inside each bucket (tail affinity)
  kBfs,         ///< Cuthill-McKee-style BFS bandwidth reduction from a
                ///< pseudo-peripheral seed (neighbors become neighbors)
};

/// "identity" | "degree_sort" | "dbg" | "bfs" — the --reorder spellings.
[[nodiscard]] const char* to_string(ReorderStrategy strategy) noexcept;

/// Parses a --reorder value; returns false (and leaves `out` untouched) on
/// an unknown spelling.
[[nodiscard]] bool parse_reorder(std::string_view text, ReorderStrategy& out);

/// All strategies in declaration order (ablation sweeps iterate this).
[[nodiscard]] const std::vector<ReorderStrategy>& all_reorder_strategies();

/// A vertex renumbering and its inverse. Both arrays have size n;
/// new_of_old[old] == new_id and old_of_new[new_id] == old, i.e. the two are
/// inverse permutations of each other (Permutation::check verifies).
struct Permutation {
  std::vector<vid_t> new_of_old;  ///< forward map: old id -> new id
  std::vector<vid_t> old_of_new;  ///< inverse map: new id -> old id

  [[nodiscard]] vid_t size() const noexcept {
    return static_cast<vid_t>(new_of_old.size());
  }

  /// True when both arrays are permutations of [0, n) and mutually inverse.
  [[nodiscard]] bool check() const;
};

/// The identity permutation on n vertices.
[[nodiscard]] Permutation identity_permutation(vid_t n);

/// Builds the permutation `strategy` assigns to `csr`. Degree-driven
/// strategies run through the device's histogram/counting-sort primitives
/// (sim/histogram.hpp) so the build is a measured workload; the BFS strategy
/// is an inherently sequential host pass, accounted as one launch.
[[nodiscard]] Permutation make_permutation(const Csr& csr,
                                           ReorderStrategy strategy);

/// Rebuilds `csr` under `perm`: vertex old becomes perm.new_of_old[old], all
/// Csr invariants preserved. Runs as a gather-degrees kernel, an exclusive
/// scan, and one accounted host pass that scatters the ordered transpose:
/// new ids are appended to their neighbors' rows in ascending order, so every
/// row comes out sorted without a sort. That relies on the Csr symmetry
/// invariant (csr.hpp) — a directed CSR would come back transposed. Throws
/// std::invalid_argument unless `perm` is a bijection on [0, num_vertices)
/// (Permutation::check).
[[nodiscard]] Csr relabel(const Csr& csr, const Permutation& perm);

}  // namespace gcol::graph
