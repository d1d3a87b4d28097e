#include "gunrock/frontier.hpp"

#include <gtest/gtest.h>

namespace gcol::gr {
namespace {

TEST(Frontier, AllIsImplicit) {
  const Frontier f = Frontier::all(100);
  EXPECT_TRUE(f.is_all());
  EXPECT_EQ(f.size(), 100);
  EXPECT_FALSE(f.is_empty());
  EXPECT_EQ(f.vertex(0), 0);
  EXPECT_EQ(f.vertex(99), 99);
}

TEST(Frontier, ExplicitList) {
  const Frontier f = Frontier::of({5, 2, 9}, 10);
  EXPECT_FALSE(f.is_all());
  EXPECT_EQ(f.size(), 3);
  EXPECT_EQ(f.vertex(0), 5);
  EXPECT_EQ(f.vertex(2), 9);
  EXPECT_EQ(f.num_vertices(), 10);
}

TEST(Frontier, EmptyFrontier) {
  const Frontier f = Frontier::empty(10);
  EXPECT_TRUE(f.is_empty());
  EXPECT_EQ(f.size(), 0);
}

TEST(Frontier, AllOfZeroVerticesIsEmpty) {
  const Frontier f = Frontier::all(0);
  EXPECT_TRUE(f.is_empty());
}

TEST(Frontier, ToVectorMaterializesImplicit) {
  const Frontier f = Frontier::all(5);
  const auto v = f.to_vector();
  ASSERT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(v[i], static_cast<vid_t>(i));
  }
}

TEST(Frontier, ToVectorReturnsExplicitCopy) {
  const Frontier f = Frontier::of({3, 1}, 4);
  const auto v = f.to_vector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v[1], 1);
}

TEST(Frontier, AllBitsSetsEveryBitAndMasksTheTail) {
  const Frontier f = Frontier::all_bits(100, FrontierMode::kAuto);
  EXPECT_TRUE(f.is_bitmap());
  EXPECT_FALSE(f.is_all());
  EXPECT_EQ(f.size(), 100);
  EXPECT_EQ(f.mode(), FrontierMode::kAuto);
  for (vid_t v = 0; v < 100; ++v) EXPECT_TRUE(f.contains(v)) << v;
  // Tail invariant: bits >= num_vertices are clear, so dense word probes
  // never need a bounds check.
  ASSERT_EQ(f.words().size(), 2u);
  EXPECT_EQ(f.words()[1] >> (100 - 64), 0u);
}

TEST(Frontier, BitsFactoryCountAndMembership) {
  std::vector<std::uint64_t> words(2, 0);
  words[0] = (std::uint64_t{1} << 3) | (std::uint64_t{1} << 40);
  words[1] = std::uint64_t{1} << 1;  // vertex 65
  const Frontier f = Frontier::bits(std::move(words), 3, 70,
                                    FrontierMode::kBitmapPush);
  EXPECT_EQ(f.size(), 3);
  EXPECT_TRUE(f.contains(3));
  EXPECT_TRUE(f.contains(40));
  EXPECT_TRUE(f.contains(65));
  EXPECT_FALSE(f.contains(0));
  EXPECT_FALSE(f.contains(64));
}

TEST(Frontier, ForEachVisitsBitmapMembersAscending) {
  std::vector<std::uint64_t> words(3, 0);
  for (const int v : {0, 63, 64, 100, 129}) {
    words[static_cast<std::size_t>(v / 64)] |= std::uint64_t{1} << (v % 64);
  }
  const Frontier f =
      Frontier::bits(std::move(words), 5, 130, FrontierMode::kBitmapPull);
  std::vector<vid_t> seen;
  f.for_each([&](vid_t v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<vid_t>{0, 63, 64, 100, 129}));
  EXPECT_EQ(f.to_vector(), seen);
}

TEST(Frontier, ForEachCoversImplicitAndListWithoutAllocation) {
  std::vector<vid_t> seen;
  Frontier::all(4).for_each([&](vid_t v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<vid_t>{0, 1, 2, 3}));
  seen.clear();
  Frontier::of({2, 0}, 4).for_each([&](vid_t v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<vid_t>{2, 0}));
}

TEST(Frontier, ReleaseWordsRecyclesTheBuffer) {
  Frontier f = Frontier::all_bits(128, FrontierMode::kAuto);
  std::vector<std::uint64_t> buffer = f.release_words();
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(f.size(), 0);
  // Round-trip: the recycled buffer backs the next bitmap.
  buffer.assign(2, 0);
  buffer[0] = 0b101;
  const Frontier next =
      Frontier::bits(std::move(buffer), 2, 128, FrontierMode::kAuto);
  EXPECT_EQ(next.size(), 2);
  EXPECT_TRUE(next.contains(0));
  EXPECT_TRUE(next.contains(2));
}

TEST(FrontierMode, ToStringAndParseRoundTrip) {
  for (const FrontierMode mode : {FrontierMode::kBitmapPush,
                                  FrontierMode::kBitmapPull,
                                  FrontierMode::kAuto}) {
    FrontierMode parsed{};
    EXPECT_TRUE(parse_frontier_mode(to_string(mode), parsed));
    EXPECT_EQ(parsed, mode);
  }
  FrontierMode parsed{};
  EXPECT_FALSE(parse_frontier_mode("dense", parsed));
  EXPECT_FALSE(parse_frontier_mode("sparse", parsed));
}

}  // namespace
}  // namespace gcol::gr
