#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../testing/fixtures.hpp"
#include "core/greedy.hpp"
#include "core/grb_is.hpp"
#include "core/grb_jpl.hpp"
#include "core/grb_mis.hpp"
#include "core/verify.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/rgg.hpp"
#include "obs/metrics.hpp"

namespace gcol::color {
namespace {

using namespace gcol::testing;

std::vector<graph::Csr> fixture_graphs() {
  std::vector<graph::Csr> graphs;
  graphs.push_back(empty_graph(0));
  graphs.push_back(empty_graph(5));
  graphs.push_back(path_graph(17));
  graphs.push_back(cycle_graph(9));
  graphs.push_back(clique_graph(7));
  graphs.push_back(star_graph(20));
  graphs.push_back(bipartite_graph(6, 9));
  graphs.push_back(petersen_graph());
  graphs.push_back(disconnected_graph());
  graphs.push_back(graph::build_csr(graph::generate_rgg(9, {.seed = 4})));
  return graphs;
}

// ---- GraphBLAST IS (Algorithm 2) ------------------------------------------

TEST(GrbIs, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = grb_is_color(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(GrbIs, IsolatedVerticesColoredFirstRound) {
  const Coloring result = grb_is_color(empty_graph(6));
  EXPECT_EQ(result.num_colors, 1);
  EXPECT_EQ(result.iterations, 1);
}

TEST(GrbIs, OneColorPerIteration) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 1}));
  const Coloring result = grb_is_color(csr);
  EXPECT_EQ(result.num_colors, result.iterations);
}

TEST(GrbIs, DeterministicForSeed) {
  const auto csr =
      graph::build_csr(graph::generate_erdos_renyi(300, 1200, 6));
  GrbIsOptions options;
  options.seed = 5;
  EXPECT_EQ(grb_is_color(csr, options).colors,
            grb_is_color(csr, options).colors);
}

TEST(GrbIs, CliqueGetsExactColors) {
  EXPECT_EQ(grb_is_color(clique_graph(9)).num_colors, 9);
}

// ---- GraphBLAST MIS (Algorithm 3) ------------------------------------------

TEST(GrbMis, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = grb_mis_color(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(GrbMis, EachColorClassIsMaximalIndependentSet) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 7}));
  const Coloring result = grb_mis_color(csr);
  ASSERT_TRUE(is_valid_coloring(csr, result.colors));
  // Maximality of class c against classes > c: every vertex with a LARGER
  // color must have a neighbor with color c (else it would have joined c's
  // maximal set when c was built).
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    const std::int32_t cv = result.colors[static_cast<std::size_t>(v)];
    for (std::int32_t c = 0; c < cv; ++c) {
      bool blocked = false;
      for (const vid_t u : csr.neighbors(v)) {
        if (result.colors[static_cast<std::size_t>(u)] == c) {
          blocked = true;
          break;
        }
      }
      EXPECT_TRUE(blocked) << "vertex " << v << " skipped color " << c;
    }
  }
}

TEST(GrbMis, FewerOrEqualColorsThanIs) {
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 3}));
  EXPECT_LE(grb_mis_color(csr).num_colors, grb_is_color(csr).num_colors);
}

TEST(GrbMis, QualityComparableToGreedy) {
  // The paper's headline quality claim (1.014x fewer colors than greedy);
  // on meshes MIS should land within one color of greedy.
  const auto csr = graph::build_csr(graph::generate_rgg(11, {.seed = 9}));
  const std::int32_t mis_colors = grb_mis_color(csr).num_colors;
  const std::int32_t greedy_colors = greedy_color(csr).num_colors;
  EXPECT_LE(mis_colors, greedy_colors + 2);
}

TEST(GrbMis, MoreKernelLaunchesThanIs) {
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 3}));
  // The inner do-while's second vxm multiplies launch count (paper §V-C).
  EXPECT_GT(grb_mis_color(csr).kernel_launches,
            grb_is_color(csr).kernel_launches);
}

// ---- GraphBLAST JPL (Algorithm 4) ------------------------------------------

TEST(GrbJpl, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = grb_jpl_color(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(GrbJpl, ReusesColorsAcrossRounds) {
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 11}));
  const Coloring jpl = grb_jpl_color(csr);
  const Coloring is = grb_is_color(csr);
  // Color reuse means strictly fewer colors than rounds (and <= IS).
  EXPECT_LT(jpl.num_colors, jpl.iterations);
  EXPECT_LE(jpl.num_colors, is.num_colors);
}

TEST(GrbJpl, DeterministicForSeed) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 13}));
  EXPECT_EQ(grb_jpl_color(csr).colors, grb_jpl_color(csr).colors);
}

TEST(GrbJpl, BipartiteStaysCheap) {
  const Coloring result = grb_jpl_color(bipartite_graph(8, 8));
  EXPECT_TRUE(is_valid_coloring(bipartite_graph(8, 8), result.colors));
  EXPECT_LE(result.num_colors, 4);
}

// ---- Fused round tail (all three GraphBLAS algorithms) ----------------------

/// Launch counts of the unfused tail (reduce pair + two write_back/count_if
/// assign pairs per round) on the graph below, measured before the fused
/// tail became the default. The fused tail must come in strictly under.
constexpr std::uint64_t kUnfusedIs = 179;
constexpr std::uint64_t kUnfusedJpl = 192;
constexpr std::uint64_t kUnfusedMis = 489;

struct UnfusedLaunches {
  const char* name;
  Coloring (*run)(const graph::Csr&);
  std::uint64_t launches;
};

TEST(GrbFusedTail, DenseMaskRoundsUseFusedKernels) {
  // Weights are dense, so every round's frontier mask is dense too and
  // every round takes the fused tail.
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 4}));
  const UnfusedLaunches cases[] = {
      {"grb_is", [](const graph::Csr& g) { return grb_is_color(g); },
       kUnfusedIs},
      {"grb_jpl", [](const graph::Csr& g) { return grb_jpl_color(g); },
       kUnfusedJpl},
      {"grb_mis", [](const graph::Csr& g) { return grb_mis_color(g); },
       kUnfusedMis},
  };
  for (const UnfusedLaunches& c : cases) {
    const Coloring result = c.run(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors)) << c.name;
    const std::string prefix = std::string(c.name) + "::";
    for (const char* kernel : {"sync_frontier", "assign_colors"}) {
      const obs::KernelStat* stat = result.metrics.kernel(prefix + kernel);
      ASSERT_NE(stat, nullptr) << prefix << kernel << " never launched";
      EXPECT_GT(stat->launches, 0u) << prefix << kernel;
    }
    EXPECT_LT(result.kernel_launches, c.launches) << c.name;
  }
}

// ---- One-pass stores (every grb:: op merges and counts in its launch) ------

/// Launch counts on the graph below when each op still merged through a
/// separate write_back launch and counted with sim::count_if. The one-pass
/// store must come in strictly under.
constexpr std::uint64_t kTwoPassIs = 126;
constexpr std::uint64_t kTwoPassJpl = 139;
constexpr std::uint64_t kTwoPassMis = 361;

TEST(GrbOnePassStore, NoMergeOrCountLaunches) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 4}));
  const UnfusedLaunches cases[] = {
      {"grb_is", [](const graph::Csr& g) { return grb_is_color(g); },
       kTwoPassIs},
      {"grb_jpl", [](const graph::Csr& g) { return grb_jpl_color(g); },
       kTwoPassJpl},
      {"grb_mis", [](const graph::Csr& g) { return grb_mis_color(g); },
       kTwoPassMis},
  };
  for (const UnfusedLaunches& c : cases) {
    const Coloring result = c.run(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors)) << c.name;
    for (const char* kernel : {"grb::write_back", "sim::count_if"}) {
      EXPECT_EQ(result.metrics.kernel(kernel), nullptr)
          << c.name << " launched " << kernel;
    }
    EXPECT_LT(result.kernel_launches, c.launches) << c.name;
  }
}

}  // namespace
}  // namespace gcol::color
