#include "graph/build.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "graph/reorder.hpp"
#include "sim/rng.hpp"

namespace gcol::graph {

namespace {

/// The row invariants of a built CSR. Self loops and duplicate neighbors are
/// invariant violations only when the BuildOptions promised to remove them.
bool rows_valid(const Csr& csr, bool allow_self_loops, bool allow_duplicates) {
  const vid_t n = csr.num_vertices;
  if (n < 0) return false;
  if (csr.row_offsets.size() != static_cast<std::size_t>(n) + 1) {
    return false;
  }
  if (csr.row_offsets.front() != 0) return false;
  if (csr.row_offsets.back() != static_cast<eid_t>(csr.col_indices.size())) {
    return false;
  }
  for (vid_t v = 0; v < n; ++v) {
    const auto row = static_cast<std::size_t>(v);
    if (csr.row_offsets[row] > csr.row_offsets[row + 1]) return false;
    const auto adj = csr.neighbors(v);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      const vid_t u = adj[i];
      if (u < 0 || u >= n) return false;
      if (u == v && !allow_self_loops) return false;
      if (i > 0 && adj[i - 1] >= u &&
          !(allow_duplicates && adj[i - 1] == u)) {
        return false;  // unsorted, or a duplicate that was promised away
      }
    }
  }
  return true;
}

}  // namespace

bool Csr::check() const {
  return rows_valid(*this, /*allow_self_loops=*/false,
                    /*allow_duplicates=*/false);
}

Csr build_csr(const Coo& coo, const BuildOptions& options) {
  const vid_t n = coo.num_vertices;
  if (n < 0) throw std::invalid_argument("build_csr: negative vertex count");
  for (std::size_t i = 0; i < coo.num_edges(); ++i) {
    if (coo.src[i] < 0 || coo.src[i] >= n || coo.dst[i] < 0 ||
        coo.dst[i] >= n) {
      throw std::out_of_range("build_csr: edge endpoint out of range");
    }
  }

  // Pass 1: count directed edges per row (both directions if symmetrizing).
  std::vector<eid_t> counts(static_cast<std::size_t>(n) + 1, 0);
  auto keep = [&](vid_t u, vid_t v) {
    return !(options.remove_self_loops && u == v);
  };
  for (std::size_t i = 0; i < coo.num_edges(); ++i) {
    const vid_t u = coo.src[i];
    const vid_t v = coo.dst[i];
    if (!keep(u, v)) continue;
    ++counts[static_cast<std::size_t>(u) + 1];
    if (options.symmetrize) ++counts[static_cast<std::size_t>(v) + 1];
  }
  for (vid_t v = 0; v < n; ++v) {
    counts[static_cast<std::size_t>(v) + 1] +=
        counts[static_cast<std::size_t>(v)];
  }

  // Pass 2: scatter columns.
  Csr csr;
  csr.num_vertices = n;
  csr.row_offsets = counts;  // becomes final offsets after dedup compaction
  std::vector<vid_t> cols(static_cast<std::size_t>(counts.back()));
  std::vector<eid_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t i = 0; i < coo.num_edges(); ++i) {
    const vid_t u = coo.src[i];
    const vid_t v = coo.dst[i];
    if (!keep(u, v)) continue;
    cols[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    if (options.symmetrize) {
      cols[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] =
          u;
    }
  }

  // Pass 3: sort each adjacency list; optionally deduplicate in place.
  eid_t write = 0;
  for (vid_t v = 0; v < n; ++v) {
    const auto begin = static_cast<std::size_t>(
        csr.row_offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        csr.row_offsets[static_cast<std::size_t>(v) + 1]);
    std::sort(cols.begin() + static_cast<std::ptrdiff_t>(begin),
              cols.begin() + static_cast<std::ptrdiff_t>(end));
    const eid_t row_start = write;
    for (std::size_t i = begin; i < end; ++i) {
      if (options.deduplicate && write > row_start &&
          cols[static_cast<std::size_t>(write - 1)] == cols[i]) {
        continue;
      }
      cols[static_cast<std::size_t>(write++)] = cols[i];
    }
    // Safe to overwrite: row v's old start is no longer needed, and row
    // v + 1 reads its own (still pre-compaction) start slot next iteration.
    csr.row_offsets[static_cast<std::size_t>(v)] = row_start;
  }
  csr.row_offsets[static_cast<std::size_t>(n)] = write;
  cols.resize(static_cast<std::size_t>(write));
  csr.col_indices = std::move(cols);
  assert(rows_valid(csr, !options.remove_self_loops, !options.deduplicate));
  return csr;
}

Csr shuffle_vertices(const Csr& csr, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(csr.num_vertices);
  Permutation perm = identity_permutation(csr.num_vertices);
  const sim::CounterRng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_below(i, static_cast<std::uint64_t>(i)));
    std::swap(perm.new_of_old[i - 1], perm.new_of_old[j]);
  }
  for (std::size_t v = 0; v < n; ++v) {
    perm.old_of_new[static_cast<std::size_t>(perm.new_of_old[v])] =
        static_cast<vid_t>(v);
  }
  return relabel(csr, perm);
}

Coo to_coo(const Csr& csr) {
  Coo coo;
  coo.num_vertices = csr.num_vertices;
  coo.reserve(static_cast<std::size_t>(csr.num_edges()));
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    for (const vid_t u : csr.neighbors(v)) coo.add_edge(v, u);
  }
  return coo;
}

}  // namespace gcol::graph
