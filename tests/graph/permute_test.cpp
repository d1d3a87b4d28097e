#include <gtest/gtest.h>

#include <cstdint>

#include "../testing/fixtures.hpp"
#include "graph/build.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"

namespace gcol::graph {
namespace {

using gcol::testing::path_graph;
using gcol::testing::petersen_graph;
using gcol::testing::star_graph;

TEST(Permute, IdentityPermutationPreservesGraph) {
  const Csr csr = petersen_graph();
  const Csr permuted = relabel(csr, identity_permutation(csr.num_vertices));
  EXPECT_EQ(permuted.row_offsets, csr.row_offsets);
  EXPECT_EQ(permuted.col_indices, csr.col_indices);
}

TEST(Permute, RelabelsAdjacency) {
  // Path 0-1-2 with permutation {2,0,1}: new edges 2-0 and 0-1.
  const Csr csr = path_graph(3);
  const Permutation perm{.new_of_old = {2, 0, 1}, .old_of_new = {1, 2, 0}};
  const Csr permuted = relabel(csr, perm);
  EXPECT_EQ(permuted.degree(0), 2);  // old vertex 1 (the middle)
  EXPECT_EQ(permuted.degree(1), 1);
  EXPECT_EQ(permuted.degree(2), 1);
  EXPECT_EQ(permuted.neighbors(2)[0], 0);
}

TEST(Shuffle, PreservesInvariantsAndStatistics) {
  const Csr csr = star_graph(20);
  const Csr shuffled = shuffle_vertices(csr, 99);
  EXPECT_TRUE(shuffled.check());
  EXPECT_EQ(shuffled.num_vertices, csr.num_vertices);
  EXPECT_EQ(shuffled.num_edges(), csr.num_edges());
  EXPECT_EQ(shuffled.max_degree(), csr.max_degree());
  // Isomorphism invariant: same degree multiset.
  const DegreeStats a = degree_stats(csr);
  const DegreeStats b = degree_stats(shuffled);
  EXPECT_EQ(a.min_degree, b.min_degree);
  EXPECT_DOUBLE_EQ(a.average_degree, b.average_degree);
}

TEST(Shuffle, DeterministicPerSeedAndActuallyShuffles) {
  const Csr csr = path_graph(50);
  const Csr a = shuffle_vertices(csr, 5);
  const Csr b = shuffle_vertices(csr, 5);
  EXPECT_EQ(a.col_indices, b.col_indices);
  const Csr c = shuffle_vertices(csr, 6);
  EXPECT_NE(a.col_indices, c.col_indices);
  EXPECT_NE(a.col_indices, csr.col_indices);
}

// FNV-1a over row_offsets then col_indices, each entry as 8 little-endian
// bytes. The pinned value was taken from the COO-and-sort implementation
// that shuffle_vertices replaced, so the Table-I dataset analogues
// (datasets.cpp) keep their exact vertex numbering.
TEST(Shuffle, BytesMatchPinnedHash) {
  const Csr shuffled = shuffle_vertices(path_graph(50), 5);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= bits & 0xffU;
      h *= 0x100000001b3ULL;
      bits >>= 8;
    }
  };
  for (const eid_t offset : shuffled.row_offsets) mix(offset);
  for (const vid_t col : shuffled.col_indices) mix(col);
  EXPECT_EQ(h, 0xc999f1242e306b27ULL);
}

TEST(Shuffle, DiameterIsInvariant) {
  const Csr csr = path_graph(30);
  const Csr shuffled = shuffle_vertices(csr, 17);
  EXPECT_EQ(estimate_diameter(shuffled, 30), 29);
}

TEST(Shuffle, EmptyAndTinyGraphs) {
  EXPECT_EQ(shuffle_vertices(gcol::testing::empty_graph(0), 1).num_vertices,
            0);
  const Csr one = shuffle_vertices(gcol::testing::empty_graph(1), 1);
  EXPECT_EQ(one.num_vertices, 1);
  EXPECT_EQ(one.num_edges(), 0);
}

}  // namespace
}  // namespace gcol::graph
