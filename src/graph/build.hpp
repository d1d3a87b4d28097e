#pragma once
// COO → CSR builder with the exact cleanup pipeline the paper applies to its
// datasets (§V-A): "All datasets have been converted to undirected graphs,
// and self-loops and duplicated edges are removed."

#include <cstdint>

#include "graph/coo.hpp"
#include "graph/csr.hpp"

namespace gcol::graph {

struct BuildOptions {
  bool symmetrize = true;         ///< add the reverse of every edge
  bool remove_self_loops = true;  ///< drop (v, v)
  bool deduplicate = true;        ///< drop duplicate (u, v)
};

/// Builds a clean CSR from an edge list: optional symmetrization, self-loop
/// removal and deduplication, sorted adjacency lists. Runs in
/// O(n + m log deg) time and O(n + m) extra space (counting sort on rows,
/// per-row std::sort on columns).
[[nodiscard]] Csr build_csr(const Coo& coo, const BuildOptions& options = {});

/// Extracts a COO edge list (both directions) from a CSR — used by tests and
/// by the Matrix Market writer.
[[nodiscard]] Coo to_coo(const Csr& csr);

/// Relabels vertices with a seeded random permutation. Used by the dataset
/// analogues: synthetic lattices have accidentally-perfect natural vertex
/// orders (a row-major grid 2-colors greedily), which real SuiteSparse
/// application orderings do not; shuffling removes that artifact without
/// changing the graph. Applies a Fisher-Yates permutation through
/// graph::relabel.
[[nodiscard]] Csr shuffle_vertices(const Csr& csr, std::uint64_t seed);

}  // namespace gcol::graph
