#include "gunrock/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "../testing/fixtures.hpp"

namespace gcol::gr {
namespace {

using gcol::testing::cycle_graph;
using gcol::testing::path_graph;
using gcol::testing::star_graph;

class OperatorsTest : public ::testing::TestWithParam<unsigned> {
 protected:
  sim::Device device{GetParam()};
};

TEST_P(OperatorsTest, ComputeVisitsEveryFrontierVertexOnce) {
  std::vector<std::atomic<int>> hits(50);
  compute(device, Frontier::all(50),
          [&](vid_t v) { hits[static_cast<std::size_t>(v)].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST_P(OperatorsTest, ComputeOnExplicitFrontier) {
  std::vector<std::atomic<int>> hits(10);
  compute(device, Frontier::of({1, 3, 5}, 10),
          [&](vid_t v) { hits[static_cast<std::size_t>(v)].fetch_add(1); });
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[3].load(), 1);
  EXPECT_EQ(hits[5].load(), 1);
  EXPECT_EQ(hits[0].load(), 0);
}

TEST_P(OperatorsTest, FilterKeepsMatchingInOrder) {
  const Frontier f = filter(device, Frontier::all(20),
                            [](vid_t v) { return v % 4 == 0; });
  ASSERT_EQ(f.size(), 5);
  for (std::int64_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f.vertex(i), static_cast<vid_t>(4 * i));
  }
  EXPECT_EQ(f.num_vertices(), 20);
}

TEST_P(OperatorsTest, FilterListLaunchesTwiceInAscendingOrder) {
  // The list path is one flag+count launch and one scatter launch, and its
  // survivors keep ascending frontier order at every worker count.
  std::vector<vid_t> members;
  for (vid_t v = 0; v < 1000; v += 3) members.push_back(v);
  const Frontier input = Frontier::of(members, 1000);
  const std::uint64_t before = device.launch_count();
  const Frontier f = filter(device, input, [](vid_t v) { return v % 2 == 0; });
  EXPECT_EQ(device.launch_count() - before, 2u);
  ASSERT_FALSE(f.is_bitmap());
  std::vector<vid_t> expected;
  for (const vid_t v : members) {
    if (v % 2 == 0) expected.push_back(v);
  }
  EXPECT_EQ(f.to_vector(), expected);
}

TEST_P(OperatorsTest, FilterOfNothing) {
  const Frontier f =
      filter(device, Frontier::all(10), [](vid_t) { return false; });
  EXPECT_TRUE(f.is_empty());
}

TEST_P(OperatorsTest, AdvanceOnStarFromCenter) {
  const auto csr = star_graph(6);
  const AdvanceResult result =
      advance(device, csr, Frontier::of({0}, csr.num_vertices));
  ASSERT_EQ(result.num_segments(), 1);
  EXPECT_EQ(result.segment_offsets[0], 0);
  EXPECT_EQ(result.segment_offsets[1], 5);
  std::vector<vid_t> sorted(result.neighbors);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<vid_t>{1, 2, 3, 4, 5}));
}

TEST_P(OperatorsTest, AdvanceSegmentsMatchDegrees) {
  const auto csr = path_graph(6);
  const AdvanceResult result =
      advance(device, csr, Frontier::all(csr.num_vertices));
  ASSERT_EQ(result.num_segments(), 6);
  for (vid_t v = 0; v < 6; ++v) {
    const auto begin = result.segment_offsets[static_cast<std::size_t>(v)];
    const auto end = result.segment_offsets[static_cast<std::size_t>(v) + 1];
    EXPECT_EQ(end - begin, csr.degree(v));
    // Segment contents equal the adjacency list (order preserved).
    const auto adj = csr.neighbors(v);
    for (eid_t k = begin; k < end; ++k) {
      EXPECT_EQ(result.neighbors[static_cast<std::size_t>(k)],
                adj[static_cast<std::size_t>(k - begin)]);
    }
  }
}

TEST_P(OperatorsTest, AdvanceEmptyFrontier) {
  const auto csr = path_graph(6);
  const AdvanceResult result =
      advance(device, csr, Frontier::empty(csr.num_vertices));
  EXPECT_EQ(result.num_segments(), 0);
  EXPECT_TRUE(result.neighbors.empty());
}

TEST_P(OperatorsTest, NeighborReduceMaxMatchesSerial) {
  const auto csr = cycle_graph(10);
  std::vector<std::int32_t> weight(10);
  for (int i = 0; i < 10; ++i) weight[static_cast<std::size_t>(i)] = (i * 7) % 10;
  std::vector<std::int32_t> out(10);
  neighbor_reduce<std::int32_t>(
      device, csr, Frontier::all(10),
      [&](vid_t, vid_t u) { return weight[static_cast<std::size_t>(u)]; },
      [](std::int32_t a, std::int32_t b) { return b > a ? b : a; },
      std::int32_t{-1}, out);
  for (vid_t v = 0; v < 10; ++v) {
    std::int32_t expected = -1;
    for (const vid_t u : csr.neighbors(v)) {
      expected = std::max(expected, weight[static_cast<std::size_t>(u)]);
    }
    EXPECT_EQ(out[static_cast<std::size_t>(v)], expected) << "vertex " << v;
  }
}

TEST_P(OperatorsTest, NeighborReduceIdentityForIsolatedVertices) {
  const auto csr = gcol::testing::disconnected_graph();  // has isolated 6, 7
  std::vector<std::int32_t> out(static_cast<std::size_t>(csr.num_vertices));
  neighbor_reduce<std::int32_t>(
      device, csr, Frontier::all(csr.num_vertices),
      [](vid_t, vid_t) { return 1; },
      [](std::int32_t a, std::int32_t b) { return a + b; }, std::int32_t{0},
      out);
  EXPECT_EQ(out[6], 0);
  EXPECT_EQ(out[7], 0);
  EXPECT_EQ(out[0], 2);  // triangle vertex: two neighbors
}

TEST_P(OperatorsTest, NeighborReduceMapSeesSource) {
  const auto csr = path_graph(3);
  std::vector<std::int32_t> out(3);
  neighbor_reduce<std::int32_t>(
      device, csr, Frontier::all(3),
      [](vid_t src, vid_t dst) { return src * 10 + dst; },
      [](std::int32_t a, std::int32_t b) { return a + b; }, std::int32_t{0},
      out);
  EXPECT_EQ(out[0], 1);        // 0*10+1
  EXPECT_EQ(out[1], 10 + 12);  // neighbors 0 and 2
  EXPECT_EQ(out[2], 21);
}

// ---- direction-optimized bitmap engine --------------------------------

/// A bitmap frontier holding every multiple of `step` below n.
Frontier stride_bits(vid_t n, vid_t step, FrontierMode mode) {
  std::vector<std::uint64_t> words(sim::words_for_bits(n), 0);
  std::int64_t count = 0;
  for (vid_t v = 0; v < n; v += step) {
    words[static_cast<std::size_t>(v / 64)] |= std::uint64_t{1} << (v % 64);
    ++count;
  }
  return Frontier::bits(std::move(words), count, n, mode);
}

TEST_P(OperatorsTest, ResolveDirectionHonorsForcedModesAndOccupancy) {
  EXPECT_EQ(resolve_direction(stride_bits(256, 2, FrontierMode::kBitmapPush),
                              100.0),
            Direction::kPush);
  EXPECT_EQ(resolve_direction(stride_bits(256, 64, FrontierMode::kBitmapPull),
                              0.0),
            Direction::kPull);
  // kAuto: push while size * (avg_degree + 1) < n, pull once the estimated
  // edge work reaches a full pass.
  EXPECT_EQ(resolve_direction(stride_bits(256, 64, FrontierMode::kAuto), 3.0),
            Direction::kPush);  // 4 * 4 = 16 < 256
  EXPECT_EQ(resolve_direction(stride_bits(256, 1, FrontierMode::kAuto), 3.0),
            Direction::kPull);  // 256 * 4 >= 256
}

TEST_P(OperatorsTest, ComputeBitmapVisitsMembersOnceBothDirections) {
  for (const FrontierMode mode :
       {FrontierMode::kBitmapPush, FrontierMode::kBitmapPull,
        FrontierMode::kAuto}) {
    std::vector<std::atomic<int>> hits(130);
    compute(device, stride_bits(130, 3, mode),
            [&](vid_t v) { hits[static_cast<std::size_t>(v)].fetch_add(1); });
    for (vid_t v = 0; v < 130; ++v) {
      EXPECT_EQ(hits[static_cast<std::size_t>(v)].load(), v % 3 == 0 ? 1 : 0)
          << to_string(mode) << " vertex " << v;
    }
  }
}

TEST_P(OperatorsTest, FilterBitsKeepsMatchingMembers) {
  const Frontier f = filter(device, stride_bits(150, 1, FrontierMode::kAuto),
                            [](vid_t v) { return v % 4 == 0; });
  ASSERT_TRUE(f.is_bitmap());
  EXPECT_EQ(f.mode(), FrontierMode::kAuto);
  EXPECT_EQ(f.size(), 38);  // 0,4,...,148
  for (vid_t v = 0; v < 150; ++v) {
    EXPECT_EQ(f.contains(v), v % 4 == 0) << v;
  }
  // A second filter chains off the bitmap result (the per-round loop shape).
  const Frontier g = filter(device, f, [](vid_t v) { return v >= 100; });
  EXPECT_EQ(g.size(), 13);  // 100,104,...,148
  EXPECT_TRUE(g.contains(100));
  EXPECT_FALSE(g.contains(96));
}

TEST_P(OperatorsTest, FilterBitsRunsPredOncePerMember) {
  std::vector<std::atomic<int>> calls(128);
  const Frontier f = filter_bits(
      device, stride_bits(128, 2, FrontierMode::kBitmapPull), {},
      [&](vid_t v) {
        calls[static_cast<std::size_t>(v)].fetch_add(1);
        return v < 64;
      });
  EXPECT_EQ(f.size(), 32);
  for (vid_t v = 0; v < 128; ++v) {
    EXPECT_EQ(calls[static_cast<std::size_t>(v)].load(), v % 2 == 0 ? 1 : 0);
  }
}

TEST_P(OperatorsTest, AdvanceBitsPushPullAgreeAndMatchSerial) {
  for (const auto& csr : {star_graph(70), cycle_graph(130), path_graph(65)}) {
    for (const vid_t step : {vid_t{1}, vid_t{7}}) {
      const vid_t n = csr.num_vertices;
      // Serial reference: union of members' adjacencies.
      std::vector<int> expected(static_cast<std::size_t>(n), 0);
      for (vid_t v = 0; v < n; v += step) {
        for (const vid_t u : csr.neighbors(v)) {
          expected[static_cast<std::size_t>(u)] = 1;
        }
      }
      const Frontier push = advance_bits(
          device, csr, stride_bits(n, step, FrontierMode::kBitmapPush));
      const Frontier pull = advance_bits(
          device, csr, stride_bits(n, step, FrontierMode::kBitmapPull));
      for (vid_t u = 0; u < n; ++u) {
        EXPECT_EQ(push.contains(u), expected[static_cast<std::size_t>(u)] != 0)
            << "push, vertex " << u;
        EXPECT_EQ(pull.contains(u), expected[static_cast<std::size_t>(u)] != 0)
            << "pull, vertex " << u;
      }
      EXPECT_EQ(push.size(), pull.size());
    }
  }
}

TEST_P(OperatorsTest, NeighborReduceBitsMatchesSerialAllDirections) {
  const auto csr = star_graph(80);
  std::vector<std::int32_t> weight(80);
  for (int i = 0; i < 80; ++i) {
    weight[static_cast<std::size_t>(i)] = (i * 13) % 80;
  }
  const auto map = [&](vid_t, vid_t u) {
    return weight[static_cast<std::size_t>(u)];
  };
  const auto max_op = [](std::int32_t a, std::int32_t b) {
    return b > a ? b : a;
  };
  // Serial reference over the same member set; non-members stay -2.
  std::vector<std::int32_t> expected(80, -2);
  for (vid_t v = 0; v < 80; v += 3) {
    std::int32_t acc = -1;
    for (const vid_t u : csr.neighbors(v)) acc = max_op(acc, map(v, u));
    expected[static_cast<std::size_t>(v)] = acc;
  }
  for (const FrontierMode mode :
       {FrontierMode::kBitmapPush, FrontierMode::kBitmapPull,
        FrontierMode::kAuto}) {
    std::vector<std::int32_t> out(80, -2);
    neighbor_reduce_bits<std::int32_t>(
        device, csr, stride_bits(80, 3, mode), map, max_op, std::int32_t{-1},
        [&](vid_t v, std::int32_t acc) {
          out[static_cast<std::size_t>(v)] = acc;
        });
    EXPECT_EQ(out, expected) << to_string(mode);
  }
}

TEST_P(OperatorsTest, BitmapPushEdgeBalancedPathMatchesSerial) {
  // Enough edge work (n * avg_degree >= kPushEdgeBalanceMinEntries) that
  // multi-worker devices take the materialize + merge-path branch in both
  // advance_bits and neighbor_reduce_bits; 1-worker devices stay on the
  // word-skipping loop. Results must be identical either way.
  const auto csr = star_graph(4000);  // ~8k directed edges on a full frontier
  const Frontier frontier =
      stride_bits(4000, 1, FrontierMode::kBitmapPush);
  ASSERT_GE(static_cast<double>(frontier.size()) * csr.average_degree(),
            static_cast<double>(kPushEdgeBalanceMinEntries));

  const Frontier advanced = advance_bits(device, csr, frontier);
  EXPECT_EQ(advanced.size(), 4000);  // hub reaches leaves, leaves reach hub

  std::vector<std::int64_t> degree_sum(4000, -1);
  neighbor_reduce_bits<std::int64_t>(
      device, csr, frontier, [](vid_t, vid_t) { return std::int64_t{1}; },
      [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
      [&](vid_t v, std::int64_t acc) {
        degree_sum[static_cast<std::size_t>(v)] = acc;
      });
  EXPECT_EQ(degree_sum[0], 3999);
  for (vid_t v = 1; v < 4000; ++v) {
    ASSERT_EQ(degree_sum[static_cast<std::size_t>(v)], 1) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, OperatorsTest,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace gcol::gr
