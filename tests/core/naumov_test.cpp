#include "core/naumov.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../testing/fixtures.hpp"
#include "core/verify.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "sim/rng.hpp"

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
  graphs.push_back(petersen_graph());
  graphs.push_back(disconnected_graph());
  graphs.push_back(graph::build_csr(graph::generate_rgg(9, {.seed = 4})));
  return graphs;
}

TEST(NaumovJpl, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    EXPECT_TRUE(is_valid_coloring(csr, naumov_jpl_color(csr).colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(NaumovJpl, OneColorPerIteration) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 21}));
  const Coloring result = naumov_jpl_color(csr);
  EXPECT_EQ(result.num_colors, result.iterations);
}

TEST(NaumovJpl, RehashingEscapesBadDraws) {
  // Per-iteration rehash means a vertex unlucky in round k can win round
  // k+1; the clique still terminates in exactly n rounds.
  const auto csr = clique_graph(10);
  const Coloring result = naumov_jpl_color(csr);
  EXPECT_TRUE(is_valid_coloring(csr, result.colors));
  EXPECT_EQ(result.num_colors, 10);
}

TEST(NaumovJpl, DeterministicForSeed) {
  const auto csr =
      graph::build_csr(graph::generate_erdos_renyi(300, 1200, 6));
  NaumovJplOptions options;
  options.seed = 7;
  EXPECT_EQ(naumov_jpl_color(csr, options).colors,
            naumov_jpl_color(csr, options).colors);
}

TEST(NaumovCc, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    EXPECT_TRUE(is_valid_coloring(csr, naumov_cc_color(csr).colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(NaumovCc, FewerIterationsThanJpl) {
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 23}));
  const Coloring cc = naumov_cc_color(csr);
  const Coloring jpl = naumov_jpl_color(csr);
  // Multiple hashes per iteration converge in fewer rounds...
  EXPECT_LT(cc.iterations, jpl.iterations);
  // ...at a color-count cost (the paper's CC-vs-everything quality gap).
  EXPECT_GE(cc.num_colors, jpl.num_colors);
}

TEST(NaumovCc, HashCountClamped) {
  const auto csr = cycle_graph(11);
  NaumovCcOptions options;
  options.num_hashes = 0;  // clamps to 1
  EXPECT_TRUE(is_valid_coloring(csr, naumov_cc_color(csr, options).colors));
  options.num_hashes = 100;  // clamps to 8
  EXPECT_TRUE(is_valid_coloring(csr, naumov_cc_color(csr, options).colors));
}

TEST(NaumovCc, MoreHashesFewerIterations) {
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 29}));
  NaumovCcOptions one;
  one.num_hashes = 1;
  NaumovCcOptions four;
  four.num_hashes = 4;
  EXPECT_LE(naumov_cc_color(csr, four).iterations,
            naumov_cc_color(csr, one).iterations);
}

TEST(NaumovCc, DeterministicForSeed) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 31}));
  EXPECT_EQ(naumov_cc_color(csr).colors, naumov_cc_color(csr).colors);
}

/// Host-only reference of the CC round rule, one vertex at a time: in round
/// r, each hash h of num_hashes ranks the vertices uncolored at the start of
/// the round (ties broken by original id), and an uncolored vertex takes the
/// color of its first winning role in the order max_0, min_0, max_1, ...:
/// color 2 * num_hashes * r + 2h for a local maximum, + 1 for a minimum.
Coloring cc_oracle(const graph::Csr& csr, const NaumovCcOptions& options) {
  const auto un = static_cast<std::size_t>(csr.num_vertices);
  const std::int32_t hashes = options.num_hashes;
  Coloring oracle;
  oracle.colors.assign(un, kUncolored);
  while (std::count(oracle.colors.begin(), oracle.colors.end(), kUncolored) >
         0) {
    const std::int32_t r = oracle.iterations++;
    const auto priority = [&](std::int32_t h, vid_t v) {
      const vid_t orig = options.original_id(v);
      return (static_cast<std::int64_t>(sim::iteration_hash(
                  options.seed + static_cast<std::uint64_t>(h) * 0x9e37u,
                  static_cast<std::uint32_t>(r), orig))
              << 32) |
             static_cast<std::int64_t>(static_cast<std::uint32_t>(orig));
    };
    std::vector<std::int32_t> next = oracle.colors;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (oracle.colors[uv] != kUncolored) continue;
      for (std::int32_t role = 0; role < 2 * hashes; ++role) {
        const std::int32_t h = role / 2;
        const bool want_max = role % 2 == 0;
        bool wins = true;
        for (const vid_t u : csr.neighbors(v)) {
          if (oracle.colors[static_cast<std::size_t>(u)] != kUncolored) {
            continue;
          }
          wins = wins && (want_max ? priority(h, u) < priority(h, v)
                                   : priority(h, u) > priority(h, v));
        }
        if (wins) {
          next[uv] = 2 * hashes * r + role;
          break;
        }
      }
    }
    oracle.colors = std::move(next);
  }
  return oracle;
}

TEST(NaumovCc, MatchesSerialOracle) {
  std::vector<graph::Csr> graphs = fixture_graphs();
  graphs.push_back(star_graph(4096));
  graphs.push_back(clique_graph(40));
  graphs.push_back(graph::build_csr(graph::generate_rmat(10)));
  for (const std::int32_t hashes : {1, 3, 8}) {
    NaumovCcOptions options;
    options.num_hashes = hashes;
    for (const auto& csr : graphs) {
      const Coloring oracle = cc_oracle(csr, options);
      const Coloring result = naumov_cc_color(csr, options);
      EXPECT_EQ(result.colors, oracle.colors)
          << "n=" << csr.num_vertices << " hashes=" << hashes;
      EXPECT_EQ(result.iterations, oracle.iterations)
          << "n=" << csr.num_vertices << " hashes=" << hashes;
    }
  }
}

}  // namespace
}  // namespace gcol::color
