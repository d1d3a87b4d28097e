// Cache-aware reordering subsystem (graph/reorder.hpp) tests: permutation
// round-trips, relabeled-CSR isomorphism invariants, the strategy-specific
// ordering properties, serial oracles for the bfs permutation and the
// relabeled CSR on adversarial graphs, and — the external contract — every
// registered algorithm under every reorder strategy producing a
// conflict-free coloring on the ORIGINAL labeling, byte-identical to its
// identity-layout coloring for every algorithm whose result is a pure
// function of the logical graph. tests/CMakeLists.txt registers this binary
// at GCOL_THREADS=1 and 4 (and the TSan CI job runs both), so the parallel
// degree gather, scan and un-permute kernels around the serial Cuthill-McKee
// and transpose host passes are exercised under real concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../testing/fixtures.hpp"
#include "core/registry.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/mesh.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/reorder.hpp"
#include "sim/device.hpp"

namespace gcol::graph {
namespace {

enum class Family { kErdosRenyi, kRmat, kRgg };

const char* family_name(Family family) {
  switch (family) {
    case Family::kErdosRenyi: return "Gnm";
    case Family::kRmat: return "Rmat";
    case Family::kRgg: return "Rgg";
  }
  return "Unknown";
}

Csr make_graph(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      return build_csr(generate_erdos_renyi(600, 3000, 42));
    case Family::kRmat:
      // Skewed degrees: the case degree_sort/dbg binning actually permutes,
      // and hub rows stress the parallel scatter's stability.
      return build_csr(generate_rmat(9, 8, {.seed = 17}));
    case Family::kRgg:
      return build_csr(generate_rgg(9, {.seed = 7}));
  }
  return {};
}

const ReorderStrategy kStrategies[] = {
    ReorderStrategy::kIdentity, ReorderStrategy::kDegreeSort,
    ReorderStrategy::kDbg, ReorderStrategy::kBfs};

// ---------------------------------------------------------------------------
// Permutation mechanics
// ---------------------------------------------------------------------------

TEST(ReorderPermutationTest, IdentityPermutationIsIdentity) {
  const Permutation perm = identity_permutation(5);
  EXPECT_TRUE(perm.check());
  for (vid_t v = 0; v < 5; ++v) {
    EXPECT_EQ(perm.new_of_old[static_cast<std::size_t>(v)], v);
    EXPECT_EQ(perm.old_of_new[static_cast<std::size_t>(v)], v);
  }
}

TEST(ReorderPermutationTest, ParseRoundTripsEveryStrategy) {
  for (const ReorderStrategy strategy : all_reorder_strategies()) {
    ReorderStrategy parsed = ReorderStrategy::kIdentity;
    EXPECT_TRUE(parse_reorder(to_string(strategy), parsed))
        << to_string(strategy);
    EXPECT_EQ(parsed, strategy);
  }
  ReorderStrategy parsed = ReorderStrategy::kIdentity;
  EXPECT_FALSE(parse_reorder("metis", parsed));
}

TEST(ReorderPermutationTest, EveryStrategyYieldsABijection) {
  for (const Family family :
       {Family::kErdosRenyi, Family::kRmat, Family::kRgg}) {
    const Csr csr = make_graph(family);
    for (const ReorderStrategy strategy : kStrategies) {
      const Permutation perm = make_permutation(csr, strategy);
      ASSERT_EQ(perm.size(), csr.num_vertices)
          << family_name(family) << "/" << to_string(strategy);
      EXPECT_TRUE(perm.check())
          << family_name(family) << "/" << to_string(strategy);
      // Forward and inverse really are inverses, both ways.
      for (vid_t v = 0; v < csr.num_vertices; ++v) {
        EXPECT_EQ(perm.new_of_old[static_cast<std::size_t>(
                      perm.old_of_new[static_cast<std::size_t>(v)])],
                  v);
        EXPECT_EQ(perm.old_of_new[static_cast<std::size_t>(
                      perm.new_of_old[static_cast<std::size_t>(v)])],
                  v);
      }
    }
  }
}

TEST(ReorderPermutationTest, DegreeSortOrdersHubsFirst) {
  const Csr csr = make_graph(Family::kRmat);
  const Permutation perm =
      make_permutation(csr, ReorderStrategy::kDegreeSort);
  for (vid_t k = 1; k < csr.num_vertices; ++k) {
    EXPECT_GE(csr.degree(perm.old_of_new[static_cast<std::size_t>(k - 1)]),
              csr.degree(perm.old_of_new[static_cast<std::size_t>(k)]))
        << "degree_sort not non-increasing at new position " << k;
  }
}

TEST(ReorderPermutationTest, DbgGroupsByDegreeBinHubsFirst) {
  const Csr csr = make_graph(Family::kRmat);
  const Permutation perm = make_permutation(csr, ReorderStrategy::kDbg);
  const auto bin_of = [&](vid_t old_v) {
    return std::bit_width(static_cast<std::uint32_t>(csr.degree(old_v)));
  };
  for (vid_t k = 1; k < csr.num_vertices; ++k) {
    EXPECT_GE(bin_of(perm.old_of_new[static_cast<std::size_t>(k - 1)]),
              bin_of(perm.old_of_new[static_cast<std::size_t>(k)]))
        << "dbg bins not non-increasing at new position " << k;
  }
  // Within one bin the original order is preserved (stable grouping).
  for (vid_t k = 1; k < csr.num_vertices; ++k) {
    const vid_t prev = perm.old_of_new[static_cast<std::size_t>(k - 1)];
    const vid_t cur = perm.old_of_new[static_cast<std::size_t>(k)];
    if (bin_of(prev) == bin_of(cur)) {
      EXPECT_LT(prev, cur) << "dbg not stable within a bin at " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Relabeled-CSR isomorphism invariants
// ---------------------------------------------------------------------------

class ReorderRelabelTest
    : public ::testing::TestWithParam<std::tuple<Family, ReorderStrategy>> {};

TEST_P(ReorderRelabelTest, RelabeledCsrIsIsomorphic) {
  const auto& [family, strategy] = GetParam();
  const Csr csr = make_graph(family);
  const Permutation perm = make_permutation(csr, strategy);
  const Csr relabeled = relabel(csr, perm);

  ASSERT_TRUE(relabeled.check());
  ASSERT_EQ(relabeled.num_vertices, csr.num_vertices);
  ASSERT_EQ(relabeled.num_edges(), csr.num_edges());

  for (vid_t old_v = 0; old_v < csr.num_vertices; ++old_v) {
    const vid_t new_v = perm.new_of_old[static_cast<std::size_t>(old_v)];
    ASSERT_EQ(relabeled.degree(new_v), csr.degree(old_v))
        << "degree changed for old vertex " << old_v;
    // The relabeled neighborhood is exactly the image of the original one.
    std::vector<vid_t> expected;
    for (const vid_t u : csr.neighbors(old_v)) {
      expected.push_back(perm.new_of_old[static_cast<std::size_t>(u)]);
    }
    std::sort(expected.begin(), expected.end());
    const auto actual = relabeled.neighbors(new_v);
    ASSERT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin(),
                           expected.end()))
        << "neighborhood image mismatch at old vertex " << old_v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllStrategies, ReorderRelabelTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRmat,
                                         Family::kRgg),
                       ::testing::ValuesIn(kStrategies)),
    [](const ::testing::TestParamInfo<std::tuple<Family, ReorderStrategy>>&
           param_info) {
      return std::string(family_name(std::get<0>(param_info.param))) + "_" +
             to_string(std::get<1>(param_info.param));
    });

TEST(ReorderRelabelTest, RelabelRejectsSizeMismatch) {
  const Csr csr = make_graph(Family::kErdosRenyi);
  const Permutation wrong = identity_permutation(csr.num_vertices - 1);
  EXPECT_THROW((void)relabel(csr, wrong), std::invalid_argument);
}

TEST(ReorderRelabelTest, IdentityRelabelIsByteIdentical) {
  const Csr csr = make_graph(Family::kRgg);
  const Csr relabeled =
      relabel(csr, make_permutation(csr, ReorderStrategy::kIdentity));
  EXPECT_EQ(relabeled.row_offsets, csr.row_offsets);
  EXPECT_EQ(relabeled.col_indices, csr.col_indices);
}

TEST(ReorderRelabelTest, RelabelRejectsOutOfRangeEntry) {
  const Csr csr = make_graph(Family::kErdosRenyi);
  Permutation bad = identity_permutation(csr.num_vertices);
  bad.old_of_new[0] = csr.num_vertices + 1000;
  EXPECT_THROW((void)relabel(csr, bad), std::invalid_argument);
}

TEST(ReorderRelabelTest, RelabelRejectsRepeatedEntry) {
  const Csr csr = make_graph(Family::kErdosRenyi);
  Permutation bad = identity_permutation(csr.num_vertices);
  bad.old_of_new[1] = 0;
  bad.new_of_old[1] = 0;
  EXPECT_THROW((void)relabel(csr, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Serial oracles on adversarial graphs
// ---------------------------------------------------------------------------

/// Reference Cuthill-McKee order: a plain serial copy of the top-down
/// pseudo-peripheral search and emission that graph::make_permutation(kBfs)
/// must reproduce exactly, whichever direction its sweeps take per level.
std::vector<vid_t> reference_bfs_cm_order(const Csr& csr) {
  const vid_t n = csr.num_vertices;
  constexpr std::int32_t kEmitted = -1;
  std::vector<std::int32_t> stamp(static_cast<std::size_t>(n), 0);
  std::int32_t epoch = 0;
  const auto by_degree_then_id = [&](vid_t a, vid_t b) {
    return csr.degree(a) != csr.degree(b) ? csr.degree(a) < csr.degree(b)
                                          : a < b;
  };
  const auto bfs_extent = [&](vid_t seed) {
    ++epoch;
    std::vector<vid_t> frontier{seed};
    stamp[static_cast<std::size_t>(seed)] = epoch;
    vid_t depth = 0;
    vid_t far_vertex = seed;
    while (true) {
      std::vector<vid_t> next;
      for (const vid_t v : frontier) {
        for (const vid_t w : csr.neighbors(v)) {
          std::int32_t& mark = stamp[static_cast<std::size_t>(w)];
          if (mark == epoch || mark == kEmitted) continue;
          mark = epoch;
          next.push_back(w);
        }
      }
      if (next.empty()) break;
      ++depth;
      far_vertex = *std::min_element(next.begin(), next.end(),
                                     by_degree_then_id);
      frontier = std::move(next);
    }
    return std::pair<vid_t, vid_t>{depth, far_vertex};
  };

  std::vector<vid_t> order;
  for (vid_t v0 = 0; v0 < n; ++v0) {
    if (stamp[static_cast<std::size_t>(v0)] == kEmitted) continue;
    vid_t seed = v0;
    vid_t prev_depth = -1;
    for (int sweep = 0; sweep < 3; ++sweep) {
      const auto [depth, far_vertex] = bfs_extent(seed);
      if (depth <= prev_depth || far_vertex == seed) break;
      prev_depth = depth;
      seed = far_vertex;
    }
    std::size_t head = order.size();
    order.push_back(seed);
    stamp[static_cast<std::size_t>(seed)] = kEmitted;
    for (; head < order.size(); ++head) {
      std::vector<vid_t> fresh;
      for (const vid_t w : csr.neighbors(order[head])) {
        if (stamp[static_cast<std::size_t>(w)] == kEmitted) continue;
        stamp[static_cast<std::size_t>(w)] = kEmitted;
        fresh.push_back(w);
      }
      std::sort(fresh.begin(), fresh.end(), by_degree_then_id);
      order.insert(order.end(), fresh.begin(), fresh.end());
    }
  }
  return order;
}

/// Reference relabel: gather each new row from its old row, translate, sort.
Csr reference_relabel(const Csr& csr, const Permutation& perm) {
  Csr out;
  out.num_vertices = csr.num_vertices;
  out.row_offsets.push_back(0);
  for (const vid_t old_v : perm.old_of_new) {
    std::vector<vid_t> row;
    for (const vid_t w : csr.neighbors(old_v)) {
      row.push_back(perm.new_of_old[static_cast<std::size_t>(w)]);
    }
    std::sort(row.begin(), row.end());
    out.col_indices.insert(out.col_indices.end(), row.begin(), row.end());
    out.row_offsets.push_back(static_cast<eid_t>(out.col_indices.size()));
  }
  return out;
}

/// Graphs chosen to hit every branch of the sweeps: thousands of components
/// (R-MAT), long diameters (mesh, path), one hub whose frontier forces
/// bottom-up levels (star), components small enough that their first level
/// already goes bottom-up while other components sit unreached (two
/// cliques, dust), and the degenerate sizes.
std::vector<std::pair<std::string, Csr>> adversarial_graphs() {
  Coo cliques;
  cliques.num_vertices = 13;
  for (const auto& [lo, hi] : {std::pair{0, 6}, std::pair{6, 13}}) {
    for (vid_t u = lo; u < hi; ++u) {
      for (vid_t v = u + 1; v < hi; ++v) cliques.add_edge(u, v);
    }
  }
  Coo dust;
  dust.num_vertices = 1000;
  dust.add_edge(999, 0);
  dust.add_edge(500, 501);
  dust.add_edge(501, 502);
  std::vector<std::pair<std::string, Csr>> graphs;
  graphs.emplace_back("rmat10", build_csr(generate_rmat(10, 16, {.seed = 3})));
  graphs.emplace_back("rmat12", build_csr(generate_rmat(12, 16, {.seed = 5})));
  graphs.emplace_back("mesh", build_csr(generate_mesh2d(40, 30)));
  graphs.emplace_back("star", gcol::testing::star_graph(4096));
  graphs.emplace_back("two_cliques", build_csr(cliques));
  graphs.emplace_back("path", gcol::testing::path_graph(300));
  graphs.emplace_back("dust", build_csr(dust));
  graphs.emplace_back("single", gcol::testing::empty_graph(1));
  graphs.emplace_back("empty", gcol::testing::empty_graph(0));
  return graphs;
}

/// A seeded random permutation with its inverse.
Permutation random_permutation(vid_t n, std::uint32_t seed) {
  Permutation perm = identity_permutation(n);
  std::mt19937 rng(seed);
  std::shuffle(perm.new_of_old.begin(), perm.new_of_old.end(), rng);
  for (vid_t v = 0; v < n; ++v) {
    perm.old_of_new[static_cast<std::size_t>(
        perm.new_of_old[static_cast<std::size_t>(v)])] = v;
  }
  return perm;
}

TEST(ReorderOracleTest, BfsPermutationMatchesSerialOracle) {
  for (const auto& [name, csr] : adversarial_graphs()) {
    const Permutation perm = make_permutation(csr, ReorderStrategy::kBfs);
    EXPECT_EQ(perm.old_of_new, reference_bfs_cm_order(csr)) << name;
    EXPECT_TRUE(perm.check()) << name;
  }
}

TEST(ReorderOracleTest, RelabelMatchesGatherSortReference) {
  for (const auto& [name, csr] : adversarial_graphs()) {
    std::vector<std::pair<std::string, Permutation>> perms;
    for (const ReorderStrategy strategy : kStrategies) {
      perms.emplace_back(to_string(strategy),
                         make_permutation(csr, strategy));
    }
    perms.emplace_back("random", random_permutation(csr.num_vertices, 41));
    for (const auto& [perm_name, perm] : perms) {
      const Csr relabeled = relabel(csr, perm);
      const Csr expected = reference_relabel(csr, perm);
      EXPECT_EQ(relabeled.num_vertices, expected.num_vertices);
      EXPECT_EQ(relabeled.row_offsets, expected.row_offsets)
          << name << "/" << perm_name;
      EXPECT_EQ(relabeled.col_indices, expected.col_indices)
          << name << "/" << perm_name;
    }
  }
}

// ---------------------------------------------------------------------------
// Transparent coloring contract: Options::reorder through the registry
// ---------------------------------------------------------------------------

color::Coloring run(const color::AlgorithmSpec& spec, const Csr& csr,
                    ReorderStrategy strategy) {
  color::Options options;
  options.seed = 99;
  options.reorder = strategy;
  return spec.run(csr, options);
}

/// The two speculative algorithms read neighbors' in-flight colors as they
/// are written, so their result depends on traversal order — which is
/// exactly what relabeling changes. They are verify-only here at EVERY
/// worker count (unlike the frontier-mode suite's multi-worker-only
/// exclusion); everything else must be a pure function of the logical graph.
bool order_dependent(const std::string& name) {
  return name == "gunrock_hash" || name == "gm_speculative";
}

using ColorParam = std::tuple<std::string, Family, ReorderStrategy>;

class ReorderColoringTest : public ::testing::TestWithParam<ColorParam> {};

TEST_P(ReorderColoringTest, ConflictFreeAndInvariant) {
  const auto& [algorithm_name, family, strategy] = GetParam();
  const color::AlgorithmSpec* spec = color::find_algorithm(algorithm_name);
  ASSERT_NE(spec, nullptr);
  const Csr csr = make_graph(family);

  const color::Coloring result = run(*spec, csr, strategy);
  // The contract: colors come back on the ORIGINAL labeling, conflict-free
  // against the ORIGINAL graph, whatever layout the registry colored under.
  ASSERT_EQ(result.colors.size(), static_cast<std::size_t>(csr.num_vertices));
  const auto violation = color::find_violation(csr, result.colors);
  EXPECT_FALSE(violation.has_value())
      << algorithm_name << " (reorder=" << to_string(strategy) << ") on "
      << family_name(family) << ": violation at vertex "
      << (violation ? violation->vertex : -1);
  EXPECT_EQ(result.num_colors, color::count_colors(result.colors));

  if (order_dependent(algorithm_name)) {
    GTEST_SKIP() << "order-dependent algorithm: verify-only under reorder";
  }
  const color::Coloring reference = run(*spec, csr, ReorderStrategy::kIdentity);
  EXPECT_EQ(result.colors, reference.colors)
      << algorithm_name << " (reorder=" << to_string(strategy)
      << ") diverged from the identity-layout coloring on "
      << family_name(family);
  EXPECT_EQ(result.num_colors, reference.num_colors);
}

std::vector<ColorParam> make_color_params() {
  std::vector<ColorParam> params;
  const Family families[] = {Family::kErdosRenyi, Family::kRmat, Family::kRgg};
  for (const color::AlgorithmSpec& spec : color::all_algorithms()) {
    for (const Family family : families) {
      for (const ReorderStrategy strategy : kStrategies) {
        params.emplace_back(spec.name, family, strategy);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllStrategies, ReorderColoringTest,
    ::testing::ValuesIn(make_color_params()),
    [](const ::testing::TestParamInfo<ColorParam>& param_info) {
      // No structured bindings here: the macro would split on their commas.
      return std::get<0>(param_info.param) + "_" +
             family_name(std::get<1>(param_info.param)) + "_" +
             to_string(std::get<2>(param_info.param));
    });

// Regression for the randomized-priority contract: jp_random's draws are
// keyed on ORIGINAL vertex ids, so its coloring is byte-invariant to the
// reorder strategy. If a future change keys any draw on the relabeled id,
// this fails before the property suite's weaker validity checks would.
TEST(ReorderInvarianceTest, JpRandomColorsAreReorderInvariant) {
  const color::AlgorithmSpec* spec = color::find_algorithm("jp_random");
  ASSERT_NE(spec, nullptr);
  for (const Family family :
       {Family::kErdosRenyi, Family::kRmat, Family::kRgg}) {
    const Csr csr = make_graph(family);
    const color::Coloring reference =
        run(*spec, csr, ReorderStrategy::kIdentity);
    for (const ReorderStrategy strategy : kStrategies) {
      const color::Coloring result = run(*spec, csr, strategy);
      EXPECT_EQ(result.colors, reference.colors)
          << "jp_random not reorder-invariant under "
          << to_string(strategy) << " on " << family_name(family);
    }
  }
}

// The gunrock randomized family keys draws on original ids too; the BSP
// round structure makes their results order-free, so invariance must hold
// for the deterministic members at every worker count.
TEST(ReorderInvarianceTest, GunrockRandomizedFamilyIsReorderInvariant) {
  for (const char* name : {"gunrock_is", "gunrock_ar", "gunrock_is_atomics",
                           "gunrock_is_single", "gunrock_ar_fused"}) {
    const color::AlgorithmSpec* spec = color::find_algorithm(name);
    ASSERT_NE(spec, nullptr) << name;
    const Csr csr = make_graph(Family::kRmat);
    const color::Coloring reference =
        run(*spec, csr, ReorderStrategy::kIdentity);
    for (const ReorderStrategy strategy : kStrategies) {
      const color::Coloring result = run(*spec, csr, strategy);
      EXPECT_EQ(result.colors, reference.colors)
          << name << " not reorder-invariant under " << to_string(strategy);
    }
  }
}

}  // namespace
}  // namespace gcol::graph
