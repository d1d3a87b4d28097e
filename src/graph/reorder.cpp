#include "graph/reorder.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/device.hpp"
#include "sim/histogram.hpp"
#include "sim/scan.hpp"

namespace gcol::graph {

namespace {

/// Inverts `old_of_new` into `new_of_old` (one scatter launch).
void invert_order(sim::Device& device, std::span<const vid_t> old_of_new,
                  std::span<vid_t> new_of_old) {
  device.launch("reorder::invert_permutation",
                static_cast<std::int64_t>(old_of_new.size()),
                [&](std::int64_t u) {
                  new_of_old[static_cast<std::size_t>(
                      old_of_new[static_cast<std::size_t>(u)])] =
                      static_cast<vid_t>(u);
                });
}

/// Stable hub-first sort: bin = max_degree - degree, so ascending-bin
/// counting sort yields descending degree with input order preserved among
/// equal degrees.
void degree_sort_order(sim::Device& device, const Csr& csr,
                       std::span<vid_t> old_of_new) {
  const std::int64_t bins = static_cast<std::int64_t>(csr.max_degree()) + 1;
  sim::stable_sort_by_bin(
      device, static_cast<std::int64_t>(csr.num_vertices), bins,
      [&](std::int64_t v) {
        return bins - 1 -
               static_cast<std::int64_t>(csr.degree(static_cast<vid_t>(v)));
      },
      old_of_new);
}

/// Degree-binned grouping: log2-degree buckets, hubs-first, tails keep their
/// input order (so whatever neighbor affinity the input numbering had inside
/// a bucket survives). 34 bins cover every possible 32-bit degree.
void dbg_order(sim::Device& device, const Csr& csr,
               std::span<vid_t> old_of_new) {
  constexpr std::int64_t kBuckets = 34;  // bit_width(degree) in [0, 32]
  sim::stable_sort_by_bin(
      device, static_cast<std::int64_t>(csr.num_vertices), kBuckets,
      [&](std::int64_t v) {
        const auto degree =
            static_cast<std::uint32_t>(csr.degree(static_cast<vid_t>(v)));
        return kBuckets - 1 - static_cast<std::int64_t>(std::bit_width(degree));
      },
      old_of_new);
}

/// Cuthill-McKee visit order over every component, written into
/// `old_of_new`. Inherently sequential (each dequeue depends on the order so
/// far), so it runs as one accounted host pass; the component seeds are
/// pseudo-peripheral vertices found by repeated direction-optimizing BFS
/// (the standard George-Liu refinement, capped at three sweeps).
void bfs_cm_order(sim::Device& device, const Csr& csr,
                  std::span<vid_t> old_of_new) {
  const vid_t n = csr.num_vertices;
  device.host_pass("reorder::bfs_cm", [&] {
    std::vector<std::int64_t> stamp(static_cast<std::size_t>(n), 0);
    std::int64_t epoch = 0;

    // BFS from `seed` over vertices not yet emitted (stamp != kEmitted),
    // returning the depth and a minimum-(degree, id) vertex of the last
    // level. Both are fixed by the level sets, so a level may be found
    // top-down or — once the frontier touches more than 1/kBottomUpShare of
    // all edges (a fixed-share form of Beamer's direction-optimizing rule)
    // — bottom-up, each unreached vertex looking for a neighbor in the
    // frontier. The share is of all edges, not of the unexplored ones, so a
    // small component never pays a bottom-up level's scan over all n
    // vertices. Every level gets its own epoch (64-bit, so they never wrap):
    // stamp == level is the frontier, stamp >= first is everything this BFS
    // has reached.
    constexpr std::int64_t kEmitted = -1;
    constexpr eid_t kBottomUpShare = 16;
    std::vector<vid_t> frontier, next;
    const auto bfs_extent = [&](vid_t seed) {
      const std::int64_t first = ++epoch;
      const auto unreached = [&](vid_t v) {
        const std::int64_t mark = stamp[static_cast<std::size_t>(v)];
        return mark != kEmitted && mark < first;
      };
      frontier.assign(1, seed);
      stamp[static_cast<std::size_t>(seed)] = epoch;
      eid_t frontier_edges = csr.degree(seed);
      vid_t depth = 0;
      vid_t far_vertex = seed;
      while (true) {
        next.clear();
        const std::int64_t level = epoch++;
        if (frontier_edges * kBottomUpShare > csr.num_edges()) {
          for (vid_t v = 0; v < n; ++v) {
            if (!unreached(v)) continue;
            for (const vid_t w : csr.neighbors(v)) {
              if (stamp[static_cast<std::size_t>(w)] == level) {
                stamp[static_cast<std::size_t>(v)] = epoch;
                next.push_back(v);
                break;
              }
            }
          }
        } else {
          for (const vid_t v : frontier) {
            for (const vid_t w : csr.neighbors(v)) {
              if (!unreached(w)) continue;
              stamp[static_cast<std::size_t>(w)] = epoch;
              next.push_back(w);
            }
          }
        }
        if (next.empty()) break;
        ++depth;
        far_vertex = next[0];
        frontier_edges = 0;
        for (const vid_t v : next) {
          frontier_edges += csr.degree(v);
          if (csr.degree(v) < csr.degree(far_vertex) ||
              (csr.degree(v) == csr.degree(far_vertex) && v < far_vertex)) {
            far_vertex = v;
          }
        }
        frontier.swap(next);
      }
      return std::pair<vid_t, vid_t>{depth, far_vertex};
    };

    std::size_t emitted = 0;
    std::vector<vid_t> scratch_neighbors;
    for (vid_t v0 = 0; v0 < n; ++v0) {
      if (stamp[static_cast<std::size_t>(v0)] == kEmitted) continue;
      // Pseudo-peripheral seed: hop to a min-degree vertex of the farthest
      // BFS level until the eccentricity stops growing (max three sweeps).
      vid_t seed = v0;
      vid_t prev_depth = -1;
      for (int sweep = 0; sweep < 3; ++sweep) {
        const auto [depth, far_vertex] = bfs_extent(seed);
        if (depth <= prev_depth || far_vertex == seed) break;
        prev_depth = depth;
        seed = far_vertex;
      }

      // Cuthill-McKee: emit the seed, then each dequeued vertex's unvisited
      // neighbors in ascending (degree, id) order. old_of_new doubles as
      // the work queue — everything emitted is already in visit order.
      const std::size_t component_head = emitted;
      old_of_new[emitted++] = seed;
      stamp[static_cast<std::size_t>(seed)] = kEmitted;
      for (std::size_t head = component_head; head < emitted; ++head) {
        const vid_t v = old_of_new[head];
        scratch_neighbors.clear();
        for (const vid_t w : csr.neighbors(v)) {
          if (stamp[static_cast<std::size_t>(w)] != kEmitted) {
            stamp[static_cast<std::size_t>(w)] = kEmitted;
            scratch_neighbors.push_back(w);
          }
        }
        std::sort(scratch_neighbors.begin(), scratch_neighbors.end(),
                  [&](vid_t a, vid_t b) {
                    return csr.degree(a) != csr.degree(b)
                               ? csr.degree(a) < csr.degree(b)
                               : a < b;
                  });
        for (const vid_t w : scratch_neighbors) old_of_new[emitted++] = w;
      }
    }
  });
}

}  // namespace

const char* to_string(ReorderStrategy strategy) noexcept {
  switch (strategy) {
    case ReorderStrategy::kIdentity:
      return "identity";
    case ReorderStrategy::kDegreeSort:
      return "degree_sort";
    case ReorderStrategy::kDbg:
      return "dbg";
    case ReorderStrategy::kBfs:
      return "bfs";
  }
  return "identity";
}

bool parse_reorder(std::string_view text, ReorderStrategy& out) {
  for (const ReorderStrategy strategy : all_reorder_strategies()) {
    if (text == to_string(strategy)) {
      out = strategy;
      return true;
    }
  }
  return false;
}

const std::vector<ReorderStrategy>& all_reorder_strategies() {
  static const std::vector<ReorderStrategy> all = {
      ReorderStrategy::kIdentity, ReorderStrategy::kDegreeSort,
      ReorderStrategy::kDbg, ReorderStrategy::kBfs};
  return all;
}

bool Permutation::check() const {
  const std::size_t n = new_of_old.size();
  if (old_of_new.size() != n) return false;
  for (std::size_t v = 0; v < n; ++v) {
    const vid_t forward = new_of_old[v];
    if (forward < 0 || static_cast<std::size_t>(forward) >= n) return false;
    if (static_cast<std::size_t>(
            old_of_new[static_cast<std::size_t>(forward)]) != v) {
      return false;
    }
  }
  // Mutual inversion over all n entries implies both maps are bijections.
  return true;
}

Permutation identity_permutation(vid_t n) {
  Permutation perm;
  perm.new_of_old.resize(static_cast<std::size_t>(n));
  perm.old_of_new.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    perm.new_of_old[static_cast<std::size_t>(v)] = v;
    perm.old_of_new[static_cast<std::size_t>(v)] = v;
  }
  return perm;
}

Permutation make_permutation(const Csr& csr, ReorderStrategy strategy) {
  const vid_t n = csr.num_vertices;
  if (strategy == ReorderStrategy::kIdentity) return identity_permutation(n);

  sim::Device& device = sim::Device::instance();
  Permutation perm;
  perm.new_of_old.resize(static_cast<std::size_t>(n));
  perm.old_of_new.resize(static_cast<std::size_t>(n));
  switch (strategy) {
    case ReorderStrategy::kDegreeSort:
      degree_sort_order(device, csr, perm.old_of_new);
      break;
    case ReorderStrategy::kDbg:
      dbg_order(device, csr, perm.old_of_new);
      break;
    case ReorderStrategy::kBfs:
      bfs_cm_order(device, csr, perm.old_of_new);
      break;
    case ReorderStrategy::kIdentity:
      break;  // handled above
  }
  invert_order(device, perm.old_of_new, perm.new_of_old);
  return perm;
}

Csr relabel(const Csr& csr, const Permutation& perm) {
  const vid_t n = csr.num_vertices;
  if (perm.size() != n || !perm.check()) {
    throw std::invalid_argument(
        "relabel: permutation is not a bijection on [0, num_vertices)");
  }
  sim::Device& device = sim::Device::instance();
  const std::span<const vid_t> old_of_new = perm.old_of_new;
  const std::span<const vid_t> new_of_old = perm.new_of_old;

  Csr out;
  out.num_vertices = n;
  out.row_offsets.resize(static_cast<std::size_t>(n) + 1);
  out.col_indices.resize(static_cast<std::size_t>(csr.num_edges()));

  // Degrees are permutation-invariant per vertex: gather each new row's
  // length from its old row, scan into offsets.
  device.launch("reorder::gather_degrees", n, [&](std::int64_t u) {
    out.row_offsets[static_cast<std::size_t>(u)] = static_cast<eid_t>(
        csr.degree(old_of_new[static_cast<std::size_t>(u)]));
  });
  const std::span<eid_t> offsets(out.row_offsets.data(),
                                 static_cast<std::size_t>(n));
  const eid_t total = sim::exclusive_scan<eid_t>(device, offsets, offsets);
  out.row_offsets[static_cast<std::size_t>(n)] = total;

  // Ordered transpose: walking new ids s ascending and appending s to the
  // row of each neighbor leaves every row ascending with no sort, because a
  // symmetric input's row new_of_old[w] is exactly {s : w in N(old_of_new[s])}.
  // offsets[r] is row r's write cursor; once row r is full it holds row
  // r + 1's start, so one shift restores the offsets.
  device.host_pass("reorder::transpose_adjacency", [&] {
    for (vid_t s = 0; s < n; ++s) {
      for (const vid_t w :
           csr.neighbors(old_of_new[static_cast<std::size_t>(s)])) {
        const vid_t row = new_of_old[static_cast<std::size_t>(w)];
        out.col_indices[static_cast<std::size_t>(
            offsets[static_cast<std::size_t>(row)]++)] = s;
      }
    }
    std::shift_right(offsets.begin(), offsets.end(), 1);
    out.row_offsets[0] = 0;
  });

  return out;
}

}  // namespace gcol::graph
