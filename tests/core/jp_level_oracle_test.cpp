// Serial level oracle for the dependency-count Jones-Plassmann engine. A
// vertex must color in round 1 + (the latest round of its higher-priority
// neighbors), with round 1 for a local maximum, under every priority, a
// relabeled input and tied priorities; and every dependency count must
// reach 0 exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "../testing/fixtures.hpp"
#include "core/jones_plassmann.hpp"
#include "core/priority_dag.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/grid.hpp"
#include "graph/generators/rmat.hpp"
#include "sim/device.hpp"

namespace gcol::color {
namespace {

/// Each vertex's round, read off capped runs: run(k) colors with at most k
/// rounds, and a vertex's round is the first k whose run colors it. Every
/// capped run must agree with the full run on the vertices it colored.
template <typename Run>
std::vector<std::int32_t> observed_rounds(const Coloring& full, Run run) {
  std::vector<std::int32_t> rounds(full.colors.size(), 0);
  for (std::int32_t k = 1; k <= full.iterations; ++k) {
    const Coloring capped = run(k);
    EXPECT_EQ(capped.hit_iteration_cap, k < full.iterations) << "k=" << k;
    for (std::size_t v = 0; v < rounds.size(); ++v) {
      if (capped.colors[v] == kUncolored) continue;
      EXPECT_EQ(capped.colors[v], full.colors[v]) << "v=" << v << " k=" << k;
      if (rounds[v] == 0) rounds[v] = k;
    }
  }
  return rounds;
}

/// Checks round(v) == 1 + max round of the neighbors that outrank v.
template <typename Outranks>
void expect_levels(const graph::Csr& csr,
                   const std::vector<std::int32_t>& rounds, Outranks outranks,
                   const char* label) {
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    std::int32_t level = 1;
    for (const vid_t u : csr.neighbors(v)) {
      if (outranks(u, v)) {
        level = std::max(level, rounds[static_cast<std::size_t>(u)] + 1);
      }
    }
    ASSERT_EQ(rounds[static_cast<std::size_t>(v)], level)
        << label << " v=" << v;
  }
}

/// JP's strict order: priority first, ties to the higher original id.
auto jp_order(const std::vector<std::int64_t>& priority,
              const JonesPlassmannOptions& options) {
  return [&priority, &options](vid_t u, vid_t v) {
    const std::int64_t pu = priority[static_cast<std::size_t>(u)];
    const std::int64_t pv = priority[static_cast<std::size_t>(v)];
    return pu > pv ||
           (pu == pv && options.original_id(u) > options.original_id(v));
  };
}

/// One edge whose endpoints tie under jp_ldf at the default seed (equal
/// degree and equal draw); see JonesPlassmannTie in the golden suite.
graph::Csr ldf_tie_graph() {
  graph::Coo coo;
  coo.num_vertices = 46020;
  coo.add_edge(32100, 46019);
  return graph::build_csr(coo);
}

TEST(JonesPlassmannLevels, RoundsFollowSerialLevels) {
  const graph::Csr rmat =
      graph::build_csr(graph::generate_rmat(9, 8, {.seed = 3}));
  const graph::Csr grid = graph::build_csr(graph::generate_grid2d(24, 24));
  std::vector<vid_t> reversed(static_cast<std::size_t>(rmat.num_vertices));
  std::iota(reversed.rbegin(), reversed.rend(), vid_t{0});
  for (const auto priority :
       {JpPriority::kRandom, JpPriority::kLargestDegreeFirst,
        JpPriority::kSmallestDegreeLast,
        JpPriority::kHybridDegreeThenRandom}) {
    JonesPlassmannOptions plain;
    plain.priority = priority;
    JonesPlassmannOptions relabeled = plain;
    relabeled.original_ids = reversed;
    const struct {
      const char* label;
      const graph::Csr* csr;
      const JonesPlassmannOptions* options;
    } cases[] = {{"rmat", &rmat, &plain},
                 {"rmat-relabeled", &rmat, &relabeled},
                 {"grid", &grid, &plain}};
    for (const auto& c : cases) {
      const Coloring full = jones_plassmann_color(*c.csr, *c.options);
      ASSERT_TRUE(is_valid_coloring(*c.csr, full.colors)) << c.label;
      EXPECT_EQ(full.kernel_launches,
                static_cast<std::uint64_t>(full.iterations) + 1)
          << c.label;
      const std::vector<std::int32_t> rounds =
          observed_rounds(full, [&](std::int32_t k) {
            JonesPlassmannOptions capped = *c.options;
            capped.max_iterations = k;
            return jones_plassmann_color(*c.csr, capped);
          });
      const std::vector<std::int64_t> prio =
          jones_plassmann_priorities(*c.csr, *c.options);
      expect_levels(*c.csr, rounds, jp_order(prio, *c.options), c.label);
    }
  }
}

TEST(JonesPlassmannLevels, TiedLdfPrioritiesFollowSerialLevels) {
  const graph::Csr csr = ldf_tie_graph();
  JonesPlassmannOptions options;
  options.priority = JpPriority::kLargestDegreeFirst;
  const std::vector<std::int64_t> prio =
      jones_plassmann_priorities(csr, options);
  ASSERT_EQ(prio[32100], prio[46019]) << "the fixture must tie";
  const Coloring full = jones_plassmann_color(csr, options);
  EXPECT_EQ(full.iterations, 2);
  const std::vector<std::int32_t> rounds =
      observed_rounds(full, [&](std::int32_t k) {
        JonesPlassmannOptions capped = options;
        capped.max_iterations = k;
        return jones_plassmann_color(csr, capped);
      });
  expect_levels(csr, rounds, jp_order(prio, options), "ldf-tie");
}

TEST(JonesPlassmannLevels, EveryCountReachesZeroOnce) {
  // Drives the engine directly with a degree-only key, so most neighbors
  // tie and the id decides: every vertex must color exactly once, and each
  // count must see exactly as many releases as it started with (so it
  // passes through 0 once and never below).
  const graph::Csr graphs[] = {
      graph::build_csr(graph::generate_grid2d(24, 24)),
      graph::build_csr(graph::generate_rmat(9, 8, {.seed = 3})),
      testing::star_graph(300)};
  auto& device = sim::Device::instance();
  for (const auto& csr : graphs) {
    const auto n = static_cast<std::size_t>(csr.num_vertices);
    const auto outranks = [&csr](vid_t u, vid_t v) {
      return csr.degree(u) > csr.degree(v) ||
             (csr.degree(u) == csr.degree(v) && u > v);
    };
    const auto count_of = [&](vid_t v) {
      std::int32_t count = 0;
      for (const vid_t u : csr.neighbors(v)) count += outranks(u, v);
      return count;
    };
    std::vector<std::atomic<std::int32_t>> colorings(n);
    std::vector<std::atomic<std::int32_t>> releases(n);
    Coloring result;
    result.colors.assign(n, kUncolored);
    std::int32_t* colors = result.colors.data();
    color_priority_dag(
        device, result, 1 << 20,
        {"test::round", "test::count", "test::color"}, count_of,
        [&](vid_t v, auto&& release) {
          colorings[static_cast<std::size_t>(v)].fetch_add(1);
          std::vector<bool> used(csr.neighbors(v).size() + 1, false);
          for (const vid_t u : csr.neighbors(v)) {
            const std::int32_t c = colors[static_cast<std::size_t>(u)];
            if (c == kUncolored) {
              releases[static_cast<std::size_t>(u)].fetch_add(1);
              release(u);
            } else if (static_cast<std::size_t>(c) < used.size()) {
              used[static_cast<std::size_t>(c)] = true;
            }
          }
          std::int32_t c = 0;
          while (used[static_cast<std::size_t>(c)]) ++c;
          colors[static_cast<std::size_t>(v)] = c;
        });
    ASSERT_TRUE(is_valid_coloring(csr, result.colors));
    EXPECT_EQ(result.kernel_launches,
              static_cast<std::uint64_t>(result.iterations) + 1);
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      EXPECT_EQ(colorings[uv].load(), 1) << "v=" << v;
      EXPECT_EQ(releases[uv].load(), count_of(v)) << "v=" << v;
    }
    const std::vector<std::int32_t> rounds =
        observed_rounds(result, [&](std::int32_t k) {
          Coloring capped;
          capped.colors.assign(n, kUncolored);
          std::int32_t* out = capped.colors.data();
          color_priority_dag(
              device, capped, k,
              {"test::round", "test::count", "test::color"}, count_of,
              [&](vid_t v, auto&& release) {
                for (const vid_t u : csr.neighbors(v)) {
                  if (out[static_cast<std::size_t>(u)] == kUncolored) {
                    release(u);
                  }
                }
                out[static_cast<std::size_t>(v)] =
                    result.colors[static_cast<std::size_t>(v)];
              });
          return capped;
        });
    expect_levels(csr, rounds, outranks, "degree-key");
  }
}

}  // namespace
}  // namespace gcol::color
