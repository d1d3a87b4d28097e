#include "core/naumov.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "../testing/fixtures.hpp"
#include "core/verify.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/reorder.hpp"
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

/// csrcolor's packed round-r priority of internal vertex v: the hash of its
/// original id in the high half (so hashes order as signed int32), the
/// original id below as the tie break.
std::int64_t round_priority(const Options& options, std::uint64_t seed,
                            std::int32_t r, vid_t v) {
  const vid_t orig = options.original_id(v);
  return (static_cast<std::int64_t>(sim::iteration_hash(
              seed, static_cast<std::uint32_t>(r), orig))
          << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(orig));
}

/// Host-only reference of the JPL round rule, one vertex at a time: in round
/// r, a vertex uncolored at the start of the round takes color r when its
/// round-r priority beats every neighbor uncolored at the start of it.
Coloring jpl_oracle(const graph::Csr& csr, const NaumovJplOptions& options) {
  const auto un = static_cast<std::size_t>(csr.num_vertices);
  Coloring oracle;
  oracle.colors.assign(un, kUncolored);
  while (std::count(oracle.colors.begin(), oracle.colors.end(), kUncolored) >
         0) {
    const std::int32_t r = oracle.iterations++;
    std::vector<std::int32_t> next = oracle.colors;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (oracle.colors[uv] != kUncolored) continue;
      const std::int64_t mine = round_priority(options, options.seed, r, v);
      bool wins = true;
      for (const vid_t u : csr.neighbors(v)) {
        if (oracle.colors[static_cast<std::size_t>(u)] != kUncolored) continue;
        wins = wins && round_priority(options, options.seed, r, u) < mine;
      }
      if (wins) next[uv] = r;
    }
    oracle.colors = std::move(next);
  }
  return oracle;
}

std::vector<graph::Csr> oracle_graphs() {
  std::vector<graph::Csr> graphs = fixture_graphs();
  graphs.push_back(star_graph(4096));
  graphs.push_back(clique_graph(40));
  graphs.push_back(graph::build_csr(graph::generate_rmat(10)));
  return graphs;
}

/// A relabeled input as the registry hands it over: the bfs-relabeled rmat
/// graph with its old_of_new map, which the colorer must key hashes on.
struct Relabeled {
  graph::Csr original;
  graph::Permutation perm;
  graph::Csr csr;
};

Relabeled relabeled_rmat() {
  Relabeled out;
  out.original = graph::build_csr(graph::generate_rmat(10));
  out.perm = graph::make_permutation(out.original, graph::ReorderStrategy::kBfs);
  out.csr = graph::relabel(out.original, out.perm);
  return out;
}

TEST(NaumovJpl, MatchesSerialOracle) {
  for (const std::uint64_t seed : {0x5eedULL, 7ULL}) {
    NaumovJplOptions options;
    options.seed = seed;
    for (const auto& csr : oracle_graphs()) {
      const Coloring oracle = jpl_oracle(csr, options);
      const Coloring result = naumov_jpl_color(csr, options);
      EXPECT_EQ(result.colors, oracle.colors)
          << "n=" << csr.num_vertices << " seed=" << seed;
      EXPECT_EQ(result.iterations, oracle.iterations)
          << "n=" << csr.num_vertices << " seed=" << seed;
    }
  }
}

TEST(NaumovJpl, MatchesSerialOracleUnderRelabeledIds) {
  // Hashes key on original ids: the relabeled run must draw them from the
  // caller's numbering, exactly as the oracle does, and so color every
  // logical vertex as the unrelabeled run does.
  const Relabeled input = relabeled_rmat();
  NaumovJplOptions options;
  options.original_ids = input.perm.old_of_new;
  const Coloring oracle = jpl_oracle(input.csr, options);
  const Coloring result = naumov_jpl_color(input.csr, options);
  EXPECT_EQ(result.colors, oracle.colors);
  EXPECT_EQ(result.iterations, oracle.iterations);
  std::vector<std::int32_t> unpermuted(result.colors.size());
  for (std::size_t v = 0; v < unpermuted.size(); ++v) {
    unpermuted[static_cast<std::size_t>(input.perm.old_of_new[v])] =
        result.colors[v];
  }
  EXPECT_EQ(unpermuted, naumov_jpl_color(input.original).colors);
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
      return round_priority(
          options, options.seed + static_cast<std::uint64_t>(h) * 0x9e37u, r,
          v);
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
  const std::vector<graph::Csr> graphs = oracle_graphs();
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

TEST(NaumovCc, MatchesSerialOracleUnderRelabeledIds) {
  const Relabeled input = relabeled_rmat();
  for (const std::int32_t hashes : {1, 8}) {
    NaumovCcOptions options;
    options.num_hashes = hashes;
    options.original_ids = input.perm.old_of_new;
    const Coloring oracle = cc_oracle(input.csr, options);
    const Coloring result = naumov_cc_color(input.csr, options);
    EXPECT_EQ(result.colors, oracle.colors) << "hashes=" << hashes;
    EXPECT_EQ(result.iterations, oracle.iterations) << "hashes=" << hashes;
  }
}

/// 2^18 isolated vertices whose original ids run in reverse, so breaking a
/// tie on internal ids would invert every outcome, plus two edges keyed on
/// original ids: one joins two ids whose round-0 hashes collide (among 2^18
/// 32-bit hashes a handful of pairs do), the other a hash at or above 2^31
/// to one below it, which a signed int32 order ranks the other way round
/// from an unsigned one.
struct TieInput {
  std::vector<vid_t> reversed;
  graph::Csr csr;
  vid_t tie_low = 0;   ///< smaller original id of the colliding pair
  vid_t tie_high = 0;  ///< larger original id of the colliding pair
  vid_t negative = 0;  ///< original id whose hash is >= 2^31
  vid_t positive = 0;  ///< original id whose hash is < 2^31
};

TieInput tie_input(std::uint64_t seed) {
  constexpr vid_t kIds = vid_t{1} << 18;
  TieInput in;
  std::vector<std::pair<std::uint32_t, vid_t>> hashed;
  for (vid_t id = 0; id < kIds; ++id) {
    hashed.emplace_back(sim::iteration_hash(seed, 0, id), id);
  }
  std::sort(hashed.begin(), hashed.end());
  const auto collision =
      std::adjacent_find(hashed.begin(), hashed.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         });
  if (collision != hashed.end()) {
    in.tie_low = std::min(collision->second, std::next(collision)->second);
    in.tie_high = std::max(collision->second, std::next(collision)->second);
  }
  // The sort leaves the hashes below 2^31 first and the rest after.
  in.positive = hashed.front().second;
  in.negative = hashed.back().second;

  in.reversed.resize(static_cast<std::size_t>(kIds));
  std::iota(in.reversed.rbegin(), in.reversed.rend(), vid_t{0});
  const auto internal = [](vid_t orig) { return kIds - 1 - orig; };
  graph::Coo coo;
  coo.num_vertices = kIds;
  coo.add_edge(internal(in.tie_low), internal(in.tie_high));
  coo.add_edge(internal(in.negative), internal(in.positive));
  in.csr = graph::build_csr(coo);
  return in;
}

TEST(NaumovTies, CollidingAndSignStraddlingHashesMatchOracles) {
  const std::uint64_t seed = Options{}.seed;
  const TieInput in = tie_input(seed);
  ASSERT_NE(in.tie_low, in.tie_high) << "no round-0 hash collision found";
  ASSERT_EQ(sim::iteration_hash(seed, 0, in.tie_low),
            sim::iteration_hash(seed, 0, in.tie_high));
  ASSERT_GE(sim::iteration_hash(seed, 0, in.negative), 1u << 31);
  ASSERT_LT(sim::iteration_hash(seed, 0, in.positive), 1u << 31);
  const auto color_of = [&](const Coloring& c, vid_t orig) {
    return c.colors[static_cast<std::size_t>(in.csr.num_vertices - 1 - orig)];
  };

  NaumovJplOptions jpl;
  jpl.original_ids = in.reversed;
  const Coloring jpl_result = naumov_jpl_color(in.csr, jpl);
  EXPECT_EQ(jpl_result.colors, jpl_oracle(in.csr, jpl).colors);
  // Round 0: the larger original id wins the tie, the hash below 2^31 wins
  // the straddling pair.
  EXPECT_EQ(color_of(jpl_result, in.tie_high), 0);
  EXPECT_EQ(color_of(jpl_result, in.tie_low), 1);
  EXPECT_EQ(color_of(jpl_result, in.positive), 0);
  EXPECT_EQ(color_of(jpl_result, in.negative), 1);

  // Hash 0 of CC shares JPL's seed, so the same pairs meet in role max_0
  // (color 0) and min_0 (color 1).
  for (const std::int32_t hashes : {1, 8}) {
    NaumovCcOptions cc;
    cc.num_hashes = hashes;
    cc.original_ids = in.reversed;
    const Coloring cc_result = naumov_cc_color(in.csr, cc);
    EXPECT_EQ(cc_result.colors, cc_oracle(in.csr, cc).colors)
        << "hashes=" << hashes;
    EXPECT_EQ(color_of(cc_result, in.tie_high), 0) << "hashes=" << hashes;
    EXPECT_EQ(color_of(cc_result, in.tie_low), 1) << "hashes=" << hashes;
    EXPECT_EQ(color_of(cc_result, in.positive), 0) << "hashes=" << hashes;
    EXPECT_EQ(color_of(cc_result, in.negative), 1) << "hashes=" << hashes;
  }
}

}  // namespace
}  // namespace gcol::color
