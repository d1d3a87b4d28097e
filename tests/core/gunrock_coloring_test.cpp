#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "../testing/fixtures.hpp"
#include "core/gunrock_ar.hpp"
#include "core/gunrock_hash.hpp"
#include "core/gunrock_is.hpp"
#include "core/jones_plassmann.hpp"
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
  graphs.push_back(cycle_graph(8));
  graphs.push_back(cycle_graph(9));
  graphs.push_back(clique_graph(7));
  graphs.push_back(star_graph(20));
  graphs.push_back(bipartite_graph(6, 9));
  graphs.push_back(petersen_graph());
  graphs.push_back(disconnected_graph());
  graphs.push_back(graph::build_csr(graph::generate_rgg(9, {.seed = 4})));
  graphs.push_back(
      graph::build_csr(graph::generate_erdos_renyi(400, 1600, 8)));
  return graphs;
}

// ---- Gunrock IS (Algorithm 5) --------------------------------------------

TEST(GunrockIs, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = gunrock_is_color(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(GunrockIs, SingleSetVariantValid) {
  GunrockIsOptions options;
  options.min_max = false;
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = gunrock_is_color(csr, options);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors));
  }
}

TEST(GunrockIs, AtomicsVariantMatchesValidity) {
  GunrockIsOptions options;
  options.min_max = false;
  options.use_atomics = true;
  for (const auto& csr : fixture_graphs()) {
    EXPECT_TRUE(is_valid_coloring(csr, gunrock_is_color(csr, options).colors));
  }
}

TEST(GunrockIs, MinMaxNeedsFewerIterationsThanSingleSet) {
  const auto csr = graph::build_csr(graph::generate_rgg(11, {.seed = 1}));
  GunrockIsOptions minmax;
  GunrockIsOptions single;
  single.min_max = false;
  const Coloring a = gunrock_is_color(csr, minmax);
  const Coloring b = gunrock_is_color(csr, single);
  // Two independent sets per iteration halve the round count (paper §IV-B1).
  EXPECT_LT(a.iterations, b.iterations);
  EXPECT_LE(a.iterations, b.iterations / 2 + 1);
}

TEST(GunrockIs, DeterministicForSeedOnSingleWorker) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 3}));
  GunrockIsOptions options;
  options.seed = 42;
  const Coloring a = gunrock_is_color(csr, options);
  const Coloring b = gunrock_is_color(csr, options);
  EXPECT_EQ(a.colors, b.colors);
  options.seed = 43;
  const Coloring c = gunrock_is_color(csr, options);
  EXPECT_NE(a.colors, c.colors);
}

TEST(GunrockIs, EqualRandomWeightsStillTerminate) {
  // Tie-break by id must resolve identical draws; a clique maximizes ties.
  const auto csr = clique_graph(12);
  const Coloring result = gunrock_is_color(csr);
  EXPECT_TRUE(is_valid_coloring(csr, result.colors));
  EXPECT_EQ(result.num_colors, 12);
}

TEST(GunrockIs, ReportsLaunchesAndIterations) {
  const auto csr = path_graph(50);
  const Coloring result = gunrock_is_color(csr);
  EXPECT_GT(result.kernel_launches, 0u);
  EXPECT_GT(result.iterations, 0);
  EXPECT_EQ(result.algorithm, "gunrock_is_minmax");
}

// ---- Gunrock Hash (Algorithm 6) -----------------------------------------

TEST(GunrockHash, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = gunrock_hash_color(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(GunrockHash, HashSizeOneStillValid) {
  GunrockHashOptions options;
  options.hash_size = 1;
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 5}));
  EXPECT_TRUE(is_valid_coloring(csr, gunrock_hash_color(csr, options).colors));
}

TEST(GunrockHash, ZeroHashSizeClamped) {
  GunrockHashOptions options;
  options.hash_size = 0;
  const auto csr = cycle_graph(7);
  EXPECT_TRUE(is_valid_coloring(csr, gunrock_hash_color(csr, options).colors));
}

TEST(GunrockHash, FewerOrEqualColorsThanIsOnMeshes) {
  // The paper's Figure 1b claim: color reuse beats plain IS on mesh graphs.
  const auto csr = graph::build_csr(graph::generate_rgg(11, {.seed = 6}));
  const Coloring hash = gunrock_hash_color(csr);
  const Coloring is = gunrock_is_color(csr);
  EXPECT_LE(hash.num_colors, is.num_colors);
}

TEST(GunrockHash, ResolvesConflictsOnDenseGraph) {
  const auto csr = clique_graph(16);
  const Coloring result = gunrock_hash_color(csr);
  EXPECT_TRUE(is_valid_coloring(csr, result.colors));
  EXPECT_EQ(result.num_colors, 16);
  // Every clique proposal except the winner conflicts eventually.
  EXPECT_GT(result.conflicts_resolved, 0);
}

// ---- Gunrock AR (Algorithm 7) --------------------------------------------

TEST(GunrockAr, ValidOnAllFixtures) {
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = gunrock_ar_color(csr);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
  }
}

TEST(GunrockAr, OneColorPerIteration) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 8}));
  const Coloring result = gunrock_ar_color(csr);
  // AR opens exactly one color per iteration (no min-max trick, §IV-B3).
  EXPECT_EQ(result.num_colors, result.iterations);
}

TEST(GunrockAr, MoreLaunchesPerIterationThanIs) {
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 9}));
  const Coloring ar = gunrock_ar_color(csr);
  const Coloring is = gunrock_is_color(csr);
  const double ar_rate = static_cast<double>(ar.kernel_launches) /
                         std::max(1, ar.iterations);
  const double is_rate = static_cast<double>(is.kernel_launches) /
                         std::max(1, is.iterations);
  // The advance + segmented-reduce pipeline costs several launches per
  // color round versus IS's fused compute (the Table II story).
  EXPECT_GT(ar_rate, is_rate);
}

TEST(GunrockAr, FusedMinMaxValidOnAllFixtures) {
  GunrockArOptions options;
  options.fused_minmax = true;
  for (const auto& csr : fixture_graphs()) {
    const Coloring result = gunrock_ar_color(csr, options);
    EXPECT_TRUE(is_valid_coloring(csr, result.colors))
        << "n=" << csr.num_vertices;
    EXPECT_EQ(result.algorithm, "gunrock_ar_fused");
  }
}

TEST(GunrockAr, FusedMinMaxHalvesIterations) {
  // The paper's §IV-B3 future work: one widened reduction recovers the
  // min-max trick, so round count drops by ~2x with the same launch count
  // per round.
  const auto csr = graph::build_csr(graph::generate_rgg(10, {.seed = 14}));
  GunrockArOptions fused;
  fused.fused_minmax = true;
  const Coloring plain = gunrock_ar_color(csr);
  const Coloring both = gunrock_ar_color(csr, fused);
  EXPECT_LE(both.iterations, plain.iterations / 2 + 1);
  const double plain_rate = static_cast<double>(plain.kernel_launches) /
                            std::max(1, plain.iterations);
  const double fused_rate = static_cast<double>(both.kernel_launches) /
                            std::max(1, both.iterations);
  EXPECT_NEAR(fused_rate, plain_rate, 1.5);
}

TEST(GunrockAr, DeterministicForSeed) {
  const auto csr = graph::build_csr(graph::generate_rgg(9, {.seed = 2}));
  EXPECT_EQ(gunrock_ar_color(csr).colors, gunrock_ar_color(csr).colors);
}

// ---- Gunrock AR serial oracle ----------------------------------------------

/// Every vertex's random weight, keyed on its original id, in the high 32
/// bits and the original id below: the (weight, id) order of the frontier
/// colorers.
std::vector<std::int64_t> oracle_priorities(const graph::Csr& csr,
                                            const Options& options) {
  const sim::CounterRng rng(options.seed);
  std::vector<std::int64_t> priority(
      static_cast<std::size_t>(csr.num_vertices));
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    const vid_t orig = options.original_id(v);
    priority[static_cast<std::size_t>(v)] =
        (static_cast<std::int64_t>(
             rng.uniform_int31(static_cast<std::uint64_t>(orig)))
         << 32) |
        static_cast<std::int64_t>(static_cast<std::uint32_t>(orig));
  }
  return priority;
}

/// Host-only reference of Algorithm 7's round rule, one vertex at a time: a
/// vertex uncolored at the start of round r whose packed priority beats
/// every neighbor uncolored at the start of round r takes color r, or with
/// `fused` color 2r as a local maximum and 2r + 1 as a local minimum.
/// Neighbors colored in round r still compete within it.
Coloring ar_oracle(const graph::Csr& csr, const GunrockArOptions& options) {
  const auto un = static_cast<std::size_t>(csr.num_vertices);
  const std::vector<std::int64_t> priority = oracle_priorities(csr, options);
  Coloring oracle;
  oracle.colors.assign(un, kUncolored);
  while (std::count(oracle.colors.begin(), oracle.colors.end(), kUncolored) >
         0) {
    const std::int32_t r = oracle.iterations++;
    std::vector<std::int32_t> next = oracle.colors;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (oracle.colors[uv] != kUncolored) continue;
      bool is_max = true;
      bool is_min = true;
      for (const vid_t u : csr.neighbors(v)) {
        const auto uu = static_cast<std::size_t>(u);
        if (oracle.colors[uu] != kUncolored) continue;
        is_max = is_max && priority[uu] < priority[uv];
        is_min = is_min && priority[uu] > priority[uv];
      }
      if (is_max) {
        next[uv] = options.fused_minmax ? 2 * r : r;
      } else if (options.fused_minmax && is_min) {
        next[uv] = 2 * r + 1;
      }
    }
    oracle.colors = std::move(next);
  }
  return oracle;
}

/// The fixtures plus hub-heavy graphs, where a hub's neighbor segment
/// splits across workers and its neighbors finalize while it is reduced.
std::vector<graph::Csr> oracle_graphs() {
  std::vector<graph::Csr> graphs = fixture_graphs();
  graphs.push_back(star_graph(4096));
  graphs.push_back(clique_graph(40));
  graphs.push_back(graph::build_csr(graph::generate_rmat(10)));
  return graphs;
}

TEST(GunrockAr, MatchesSerialOracleInEveryMode) {
  for (const bool fused : {false, true}) {
    for (const auto mode :
         {gr::FrontierMode::kBitmapPush, gr::FrontierMode::kBitmapPull,
          gr::FrontierMode::kAuto}) {
      GunrockArOptions options;
      options.fused_minmax = fused;
      options.frontier_mode = mode;
      for (const auto& csr : oracle_graphs()) {
        const Coloring oracle = ar_oracle(csr, options);
        const Coloring result = gunrock_ar_color(csr, options);
        EXPECT_EQ(result.colors, oracle.colors)
            << "n=" << csr.num_vertices << " fused=" << fused
            << " mode=" << gr::to_string(mode);
        EXPECT_EQ(result.iterations, oracle.iterations)
            << "n=" << csr.num_vertices << " fused=" << fused
            << " mode=" << gr::to_string(mode);
      }
    }
  }
}

TEST(GunrockAr, MatchesSerialOracleUnderRelabeledIds) {
  // Priorities key on original ids: a reversed id map must draw them from
  // the caller's numbering, exactly as the oracle does.
  const auto csr = graph::build_csr(graph::generate_rmat(10));
  std::vector<vid_t> reversed(static_cast<std::size_t>(csr.num_vertices));
  std::iota(reversed.rbegin(), reversed.rend(), vid_t{0});
  for (const bool fused : {false, true}) {
    GunrockArOptions options;
    options.fused_minmax = fused;
    options.original_ids = reversed;
    const Coloring oracle = ar_oracle(csr, options);
    const Coloring result = gunrock_ar_color(csr, options);
    EXPECT_EQ(result.colors, oracle.colors) << "fused=" << fused;
    EXPECT_EQ(result.iterations, oracle.iterations) << "fused=" << fused;
  }
}

TEST(GunrockAr, InitLaunchDeclaresItsTraffic) {
  // One 8-byte live[] store per vertex, plus the 4-byte original-id read
  // when the graph is relabeled.
  const auto csr = graph::build_csr(graph::generate_rmat(10));
  const auto n = static_cast<std::int64_t>(csr.num_vertices);
  std::vector<vid_t> reversed(static_cast<std::size_t>(n));
  std::iota(reversed.rbegin(), reversed.rend(), vid_t{0});
  GunrockArOptions relabeled;
  relabeled.original_ids = reversed;
  for (const auto& [options, read] :
       {std::pair{GunrockArOptions{}, std::int64_t{0}},
        std::pair{relabeled, 4 * n}}) {
    const Coloring result = gunrock_ar_color(csr, options);
    const obs::KernelStat* init =
        result.metrics.kernel("gunrock_ar::init_live");
    ASSERT_NE(init, nullptr);
    EXPECT_EQ(init->bytes_written, 8 * n);
    EXPECT_EQ(init->bytes_read, read);
  }
}

// ---- Gunrock IS serial oracle ----------------------------------------------

/// Host-only reference of Algorithm 5's round rule: a vertex uncolored at
/// the start of round r takes color 2r + 1 when its priority beats every
/// neighbor uncolored at the start of round r, or with `min_max` color
/// 2r + 2 when every such neighbor beats it. Neighbors colored in round r
/// still compete within it.
Coloring is_oracle(const graph::Csr& csr, const GunrockIsOptions& options) {
  const auto un = static_cast<std::size_t>(csr.num_vertices);
  const std::vector<std::int64_t> priority = oracle_priorities(csr, options);
  Coloring oracle;
  oracle.colors.assign(un, kUncolored);
  while (std::count(oracle.colors.begin(), oracle.colors.end(), kUncolored) >
         0) {
    const std::int32_t r = oracle.iterations++;
    std::vector<std::int32_t> next = oracle.colors;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (oracle.colors[uv] != kUncolored) continue;
      bool is_max = true;
      bool is_min = true;
      for (const vid_t u : csr.neighbors(v)) {
        const auto uu = static_cast<std::size_t>(u);
        if (oracle.colors[uu] != kUncolored) continue;
        is_max = is_max && priority[uu] < priority[uv];
        is_min = is_min && priority[uu] > priority[uv];
      }
      if (is_max) {
        next[uv] = 2 * r + 1;
      } else if (options.min_max && is_min) {
        next[uv] = 2 * r + 2;
      }
    }
    oracle.colors = std::move(next);
  }
  return oracle;
}

/// The three Table II rows: min-max, single-set, and single-set with the
/// atomic colored counter.
std::vector<GunrockIsOptions> is_variants() {
  GunrockIsOptions minmax;
  GunrockIsOptions single;
  single.min_max = false;
  GunrockIsOptions atomics = single;
  atomics.use_atomics = true;
  return {minmax, single, atomics};
}

TEST(GunrockIs, MatchesSerialOracleInEveryMode) {
  for (GunrockIsOptions options : is_variants()) {
    for (const auto mode :
         {gr::FrontierMode::kBitmapPush, gr::FrontierMode::kBitmapPull,
          gr::FrontierMode::kAuto}) {
      options.frontier_mode = mode;
      for (const auto& csr : oracle_graphs()) {
        const Coloring oracle = is_oracle(csr, options);
        const Coloring result = gunrock_is_color(csr, options);
        EXPECT_EQ(result.colors, oracle.colors)
            << "n=" << csr.num_vertices << " min_max=" << options.min_max
            << " atomics=" << options.use_atomics
            << " mode=" << gr::to_string(mode);
        EXPECT_EQ(result.iterations, oracle.iterations)
            << "n=" << csr.num_vertices << " min_max=" << options.min_max
            << " atomics=" << options.use_atomics
            << " mode=" << gr::to_string(mode);
      }
    }
  }
}

TEST(GunrockIs, MatchesSerialOracleUnderRelabeledIds) {
  // Priorities key on original ids: a reversed id map must draw them from
  // the caller's numbering, exactly as the oracle does.
  const auto csr = graph::build_csr(graph::generate_rmat(10));
  std::vector<vid_t> reversed(static_cast<std::size_t>(csr.num_vertices));
  std::iota(reversed.rbegin(), reversed.rend(), vid_t{0});
  for (GunrockIsOptions options : is_variants()) {
    options.original_ids = reversed;
    const Coloring oracle = is_oracle(csr, options);
    const Coloring result = gunrock_is_color(csr, options);
    EXPECT_EQ(result.colors, oracle.colors) << "min_max=" << options.min_max;
    EXPECT_EQ(result.iterations, oracle.iterations)
        << "min_max=" << options.min_max;
  }
}

// ---- Jones-Plassmann equals greedy in priority order -----------------------

/// Sequential first-fit greedy over the vertices in descending priority,
/// equal priorities in descending id (JP's tie break).
std::vector<std::int32_t> greedy_in_priority_order(
    const graph::Csr& csr, const std::vector<std::int64_t>& priority) {
  std::vector<vid_t> order(static_cast<std::size_t>(csr.num_vertices));
  std::iota(order.begin(), order.end(), vid_t{0});
  std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    const std::int64_t pa = priority[static_cast<std::size_t>(a)];
    const std::int64_t pb = priority[static_cast<std::size_t>(b)];
    return pa > pb || (pa == pb && a > b);
  });
  std::vector<std::int32_t> colors(order.size(), kUncolored);
  for (const vid_t v : order) {
    const auto adj = csr.neighbors(v);
    std::vector<bool> used(adj.size() + 1, false);
    for (const vid_t u : adj) {
      const std::int32_t c = colors[static_cast<std::size_t>(u)];
      if (c >= 0 && static_cast<std::size_t>(c) < used.size()) {
        used[static_cast<std::size_t>(c)] = true;
      }
    }
    colors[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(
        std::find(used.begin(), used.end(), false) - used.begin());
  }
  return colors;
}

TEST(JonesPlassmann, EqualsGreedyInPriorityOrder) {
  // JP with first-fit gives each vertex the smallest color absent from its
  // higher-priority neighbors, all of which colored in earlier rounds.
  for (const auto priority :
       {JpPriority::kRandom, JpPriority::kLargestDegreeFirst,
        JpPriority::kSmallestDegreeLast,
        JpPriority::kHybridDegreeThenRandom}) {
    for (const auto mode :
         {gr::FrontierMode::kBitmapPush, gr::FrontierMode::kBitmapPull,
          gr::FrontierMode::kAuto}) {
      JonesPlassmannOptions options;
      options.priority = priority;
      options.frontier_mode = mode;
      for (const auto& csr : oracle_graphs()) {
        EXPECT_EQ(jones_plassmann_color(csr, options).colors,
                  greedy_in_priority_order(
                      csr, jones_plassmann_priorities(csr, options)))
            << "n=" << csr.num_vertices << " priority=" << to_string(priority)
            << " mode=" << gr::to_string(mode);
      }
    }
  }
}

}  // namespace
}  // namespace gcol::color
