#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../testing/fixtures.hpp"
#include "core/greedy.hpp"
#include "core/grb_common.hpp"
#include "core/grb_is.hpp"
#include "core/grb_jpl.hpp"
#include "core/grb_mis.hpp"
#include "core/verify.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/mesh.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "sim/stream.hpp"

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

// ---- Serial oracles of Algorithms 2-4 --------------------------------------

/// Host-only replays of the three GraphBLAS algorithms from the same
/// set_random_weights draws. A vertex joins a round's independent set when
/// it is a candidate and its weight beats every neighbor's (colored or
/// knocked-out neighbors weigh 0), so a neighborless candidate always joins.
struct SerialGrb {
  const graph::Csr& csr;
  std::vector<detail::Weight> weight;
  std::vector<std::int32_t> paper;  // 1-based, 0 = uncolored
  Coloring result;
  std::int64_t inner_steps = 0;  // Algorithm 3's inner rounds

  explicit SerialGrb(const graph::Csr& g)
      : csr(g), paper(static_cast<std::size_t>(g.num_vertices), 0) {
    grb::Vector<detail::Weight> drawn(g.num_vertices);
    detail::set_random_weights(drawn, Options{});
    if (g.num_vertices > 0) {
      const auto values = drawn.dense_values();
      weight.assign(values.begin(), values.end());
    }
  }

  /// Local maxima among the nonzero entries of `w`.
  std::vector<vid_t> select(const std::vector<detail::Weight>& w) const {
    std::vector<vid_t> set;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const detail::Weight wv = w[static_cast<std::size_t>(v)];
      bool beats_all = wv != 0;
      for (const vid_t u : csr.neighbors(v)) {
        beats_all = beats_all && wv > w[static_cast<std::size_t>(u)];
      }
      if (beats_all) set.push_back(v);
    }
    return set;
  }

  /// Smallest color >= 1 no colored neighbor of `set` holds.
  std::int32_t min_free_color(const std::vector<vid_t>& set) const {
    std::vector<bool> used(static_cast<std::size_t>(csr.num_vertices) + 2);
    for (const vid_t v : set) {
      for (const vid_t u : csr.neighbors(v)) {
        used[static_cast<std::size_t>(paper[static_cast<std::size_t>(u)])] =
            true;
      }
    }
    std::int32_t color = 1;
    while (used[static_cast<std::size_t>(color)]) ++color;
    return color;
  }

  /// Algorithm 3's inner loop: a maximal independent set of the candidates.
  std::vector<vid_t> maximal_set() {
    std::vector<detail::Weight> cand = weight;
    std::vector<vid_t> mis;
    for (std::vector<vid_t> members = select(cand); !members.empty();
         members = select(cand)) {
      ++inner_steps;
      for (const vid_t v : members) cand[static_cast<std::size_t>(v)] = 0;
      for (const vid_t v : members) {
        for (const vid_t u : csr.neighbors(v)) {
          cand[static_cast<std::size_t>(u)] = 0;
        }
      }
      mis.insert(mis.end(), members.begin(), members.end());
    }
    return mis;
  }

  /// Runs `algorithm` ("grb_is", "grb_jpl" or "grb_mis") to completion.
  Coloring run(const std::string& algorithm) {
    for (std::int32_t round = 1;; ++round) {
      const std::vector<vid_t> set =
          algorithm == "grb_mis" ? maximal_set() : select(weight);
      if (set.empty()) break;
      const std::int32_t color =
          algorithm == "grb_jpl" ? min_free_color(set) : round;
      for (const vid_t v : set) {
        paper[static_cast<std::size_t>(v)] = color;
        weight[static_cast<std::size_t>(v)] = 0;
      }
      ++result.iterations;
    }
    for (const std::int32_t color : paper) {
      result.colors.push_back(color == 0 ? kUncolored : color - 1);
    }
    return result;
  }
};

Coloring run_grb(const std::string& algorithm, const graph::Csr& csr) {
  if (algorithm == "grb_is") return grb_is_color(csr);
  if (algorithm == "grb_jpl") return grb_jpl_color(csr);
  return grb_mis_color(csr);
}

graph::Csr two_cliques(vid_t k) {
  graph::Coo coo;
  coo.num_vertices = 2 * k;
  for (vid_t base : {vid_t{0}, k}) {
    for (vid_t u = 0; u < k; ++u) {
      for (vid_t v = u + 1; v < k; ++v) coo.add_edge(base + u, base + v);
    }
  }
  return graph::build_csr(coo);
}

std::vector<graph::Csr> oracle_graphs() {
  std::vector<graph::Csr> graphs;
  graphs.push_back(graph::build_csr(graph::generate_rmat(10)));
  graphs.push_back(graph::build_csr(graph::generate_mesh2d(24, 20)));
  graphs.push_back(star_graph(4096));
  graphs.push_back(two_cliques(13));
  graphs.push_back(empty_graph(300));  // isolated-vertex dust
  graphs.push_back(empty_graph(1));
  graphs.push_back(empty_graph(0));
  return graphs;
}

TEST(GrbOracle, MatchesSerialReplayAtOneAndManyWorkers) {
  sim::Stream single(sim::Device::instance(), 1);
  for (const char* algorithm : {"grb_is", "grb_jpl", "grb_mis"}) {
    for (const auto& csr : oracle_graphs()) {
      const Coloring oracle = SerialGrb(csr).run(algorithm);
      Coloring one_worker;
      single.submit([&] { one_worker = run_grb(algorithm, csr); });
      single.synchronize();
      for (const Coloring& result : {run_grb(algorithm, csr), one_worker}) {
        EXPECT_EQ(result.colors, oracle.colors)
            << algorithm << " n=" << csr.num_vertices;
        EXPECT_EQ(result.iterations, oracle.iterations)
            << algorithm << " n=" << csr.num_vertices;
      }
    }
  }
}

// ---- Launch budget: each round is a fixed number of launches ---------------

TEST(GrbLaunchBudget, FixedLaunchesPerRound) {
  // Per round: grb_is selects (one deferred-chain launch) and assigns;
  // grb_jpl adds its min-color pass; each grb_mis inner step selects,
  // assigns, finds the members' neighbors and knocks them out, and each
  // outer round adds its closing select, its set mirror and its color
  // assign. The constant is the weight draw and the final empty select(s).
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 4}));
  const auto rounds = [](const Coloring& result) {
    return static_cast<std::uint64_t>(result.iterations);
  };
  const Coloring is = grb_is_color(csr);
  EXPECT_LE(is.kernel_launches, 2 * rounds(is) + 2);
  const Coloring jpl = grb_jpl_color(csr);
  EXPECT_LE(jpl.kernel_launches, 3 * rounds(jpl) + 2);
  SerialGrb oracle(csr);
  const Coloring expected = oracle.run("grb_mis");
  const Coloring mis = grb_mis_color(csr);
  ASSERT_EQ(mis.iterations, expected.iterations);
  const auto steps = static_cast<std::uint64_t>(oracle.inner_steps);
  EXPECT_LE(mis.kernel_launches, 4 * steps + 3 * rounds(mis) + 3);
  for (const Coloring* result : {&is, &jpl, &mis}) {
    EXPECT_TRUE(is_valid_coloring(csr, result->colors));
  }
}

}  // namespace
}  // namespace gcol::color
