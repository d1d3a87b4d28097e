#include "core/distance2.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "../testing/fixtures.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/grid.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/generators/rgg.hpp"

namespace gcol::color {
namespace {

using namespace gcol::testing;

class Distance2Test : public ::testing::TestWithParam<bool> {
 protected:
  Distance2Options options() const {
    Distance2Options o;
    o.parallel = GetParam();
    return o;
  }
};

TEST_P(Distance2Test, ValidOnFixtures) {
  const graph::Csr fixtures[] = {
      empty_graph(0),     empty_graph(5),   path_graph(12),
      cycle_graph(9),     clique_graph(6),  star_graph(15),
      petersen_graph(),   disconnected_graph(),
  };
  for (const auto& csr : fixtures) {
    const Coloring result = distance2_color(csr, options());
    EXPECT_TRUE(is_valid_distance2_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
    // A distance-2 coloring is a fortiori a proper distance-1 coloring.
    if (csr.num_vertices > 0) {
      EXPECT_TRUE(is_valid_coloring(csr, result.colors));
    }
  }
}

TEST_P(Distance2Test, RespectsLowerBound) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 3}));
  const Coloring result = distance2_color(csr, options());
  EXPECT_GE(result.num_colors, distance2_lower_bound(csr));
}

TEST_P(Distance2Test, StarNeedsNColors) {
  // Center + leaves are pairwise within distance 2: K_n effectively.
  const auto csr = star_graph(8);
  EXPECT_EQ(distance2_color(csr, options()).num_colors, 8);
}

TEST_P(Distance2Test, PathStaysNearOptimal) {
  // A path's optimal distance-2 coloring is 3-periodic; sequential
  // first-fit finds it exactly, randomized parallel rounds may spend one
  // extra color.
  const auto csr = path_graph(20);
  const Coloring result = distance2_color(csr, options());
  EXPECT_TRUE(is_valid_distance2_coloring(csr, result.colors));
  if (options().parallel) {
    EXPECT_LE(result.num_colors, 5);
    EXPECT_GE(result.num_colors, 3);
  } else {
    EXPECT_EQ(result.num_colors, 3);
  }
}

TEST_P(Distance2Test, ValidOnRandomGraphs) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto csr =
        graph::build_csr(graph::generate_erdos_renyi(300, 900, seed));
    const Coloring result = distance2_color(csr, options());
    EXPECT_TRUE(is_valid_distance2_coloring(csr, result.colors));
  }
}

TEST_P(Distance2Test, GridDistance2IsCompact) {
  // 5-point grid: distance-2 neighborhood has <= 12 vertices; the coloring
  // should stay near the lower bound of 5.
  const auto csr = graph::build_csr(graph::generate_grid2d(20, 20));
  const Coloring result = distance2_color(csr, options());
  EXPECT_TRUE(is_valid_distance2_coloring(csr, result.colors));
  EXPECT_GE(result.num_colors, 5);
  EXPECT_LE(result.num_colors, 13);
}

INSTANTIATE_TEST_SUITE_P(SequentialAndParallel, Distance2Test,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Parallel" : "Sequential";
                         });

TEST(Distance2, ParallelDeterministicForSeed) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 5}));
  Distance2Options options;
  options.seed = 9;
  EXPECT_EQ(distance2_color(csr, options).colors,
            distance2_color(csr, options).colors);
}

/// FNV-1a over each color, then num_colors and iterations (the golden-colors
/// suite's hash).
std::uint64_t coloring_hash(const Coloring& coloring) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= bits & 0xffU;
      h *= 0x100000001b3ULL;
      bits >>= 8;
    }
  };
  for (const std::int32_t c : coloring.colors) mix(c);
  mix(coloring.num_colors);
  mix(coloring.iterations);
  return h;
}

TEST(Distance2, ParallelColorsArePinned) {
  // The parallel colorer's output is a function of (graph, seed) alone, at
  // any worker count: these hashes pin it, so a round schedule that moves
  // one color or one round fails here.
  const struct {
    const char* name;
    graph::Csr csr;
    std::uint64_t hash;
  } cases[] = {
      {"gnm", graph::build_csr(graph::generate_erdos_renyi(600, 3000, 42)),
       0xa4c9344f78125c7bULL},
      {"rmat", graph::build_csr(graph::generate_rmat(9, 8, {.seed = 5})),
       0x25d259fd801ef195ULL},
      {"rgg", graph::build_csr(graph::generate_rgg(9, {.seed = 7})),
       0x8839c3b4b9007d3dULL},
  };
  for (const auto& c : cases) {
    const Coloring result = distance2_color(c.csr, Distance2Options{});
    ASSERT_TRUE(is_valid_distance2_coloring(c.csr, result.colors)) << c.name;
    EXPECT_EQ(coloring_hash(result), c.hash)
        << c.name << " hashes to 0x" << std::hex << coloring_hash(result);
  }
}

TEST(Distance2, ParallelReportsRoundSeriesAndKernels) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 5}));
  const Coloring result = distance2_color(csr, Distance2Options{});
  ASSERT_TRUE(is_valid_distance2_coloring(csr, result.colors));
  EXPECT_FALSE(result.hit_iteration_cap);
  const auto* frontier = result.metrics.series("frontier");
  const auto* colored = result.metrics.series("colored");
  ASSERT_NE(frontier, nullptr);
  ASSERT_NE(colored, nullptr);
  EXPECT_EQ(frontier->front(), csr.num_vertices);
  EXPECT_EQ(colored->back(), csr.num_vertices);
  EXPECT_EQ(static_cast<std::int64_t>(frontier->size()), result.iterations);
  EXPECT_EQ(static_cast<std::int64_t>(colored->size()), result.iterations);
  EXPECT_FALSE(result.metrics.kernel_names().empty());
  EXPECT_GE(result.metrics.total_kernel_launches(), result.kernel_launches);
}

TEST(Distance2, VerifierRejectsDistance2Conflict) {
  // Path 0-1-2: colors {0,1,0} are distance-1 proper but distance-2 invalid.
  const auto csr = path_graph(3);
  const std::vector<std::int32_t> colors = {0, 1, 0};
  EXPECT_TRUE(is_valid_coloring(csr, colors));
  EXPECT_FALSE(is_valid_distance2_coloring(csr, colors));
}

TEST(Distance2, VerifierRejectsUncolored) {
  const auto csr = path_graph(2);
  EXPECT_FALSE(is_valid_distance2_coloring(
      csr, std::vector<std::int32_t>{0, kUncolored}));
}

}  // namespace
}  // namespace gcol::color
