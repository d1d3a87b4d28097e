#include "gunrock/enactor.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gcol::gr {
namespace {

/// A result sized for n vertices, as a colorer hands it to the driver.
color::Coloring result_for(std::int64_t n) {
  color::Coloring result;
  result.colors.assign(static_cast<std::size_t>(n), color::kUncolored);
  return result;
}

TEST(Enactor, StopsOnceEveryVertexIsColored) {
  sim::Device device(2);
  color::Coloring result = result_for(10);
  Enactor enactor(device, result, 1 << 20);
  // Two vertices per round: rounds 0..4 color 2, 4, ..., 10.
  enactor.run("test::round",
              [](std::int32_t iteration) { return 2 * (iteration + 1); });
  EXPECT_EQ(result.iterations, 5);
  EXPECT_FALSE(result.hit_iteration_cap);
  // The driver's series: uncolored entering each round, colored after it.
  EXPECT_EQ(*result.metrics.series("frontier"),
            (std::vector<std::int64_t>{10, 8, 6, 4, 2}));
  EXPECT_EQ(*result.metrics.series("colored"),
            (std::vector<std::int64_t>{2, 4, 6, 8, 10}));
  EXPECT_GE(result.elapsed_ms, 0.0);
}

TEST(Enactor, SingleIteration) {
  sim::Device device(1);
  color::Coloring result = result_for(7);
  Enactor enactor(device, result, 1 << 20);
  enactor.run("test::round", [](std::int32_t) { return 7; });
  EXPECT_EQ(result.iterations, 1);
  EXPECT_FALSE(result.hit_iteration_cap);
}

TEST(Enactor, RunsNoRoundAfterAllColored) {
  // The body would keep "coloring" past n if called again; the driver must
  // not call it once colored == n, not even to observe an empty round.
  sim::Device device(1);
  color::Coloring result = result_for(3);
  std::int32_t calls = 0;
  Enactor enactor(device, result, 1 << 20);
  enactor.run("test::round", [&](std::int32_t) {
    ++calls;
    device.launch("test::a", 4, [](std::int64_t) {});
    return std::int64_t{3};
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.kernel_launches, 1u);
  EXPECT_EQ(result.metrics.series("frontier")->size(), 1u);
}

TEST(Enactor, IterationCapTriggers) {
  sim::Device device(1);
  color::Coloring result = result_for(5);
  Enactor enactor(device, result, 10);
  enactor.run("test::round", [](std::int32_t) { return 0; });
  EXPECT_EQ(result.iterations, 10);
  EXPECT_TRUE(result.hit_iteration_cap);
  EXPECT_EQ(result.metrics.series("colored")->size(), 10u);
}

TEST(Enactor, CapSetsStatusOnlyWithVerticesLeft) {
  sim::Device device(1);
  const auto one_per_round = [](std::int32_t iteration) {
    return iteration + 1;
  };
  // Finishing exactly on round max_iterations is a complete run.
  color::Coloring exact = result_for(4);
  Enactor(device, exact, 4).run("test::round", one_per_round);
  EXPECT_EQ(exact.iterations, 4);
  EXPECT_FALSE(exact.hit_iteration_cap);
  // One vertex short of n at the cap is not.
  color::Coloring short_one = result_for(4);
  Enactor(device, short_one, 3).run("test::round", one_per_round);
  EXPECT_EQ(short_one.iterations, 3);
  EXPECT_TRUE(short_one.hit_iteration_cap);
  EXPECT_EQ(short_one.metrics.series("colored")->back(), 3);
}

TEST(Enactor, CountsKernelLaunchesInsideBody) {
  sim::Device device(2);
  color::Coloring result = result_for(3);
  // Launches between construction and run() open the counted window too.
  Enactor enactor(device, result, 1 << 20);
  device.launch("test::setup", 8, [](std::int64_t) {});
  enactor.run("test::round", [&](std::int32_t iteration) {
    device.launch("test::a", 8, [](std::int64_t) {});
    device.launch("test::b", 8, [](std::int64_t) {});
    return iteration + 1;
  });
  // Not counted: the driver has returned.
  device.launch("test::export", 8, [](std::int64_t) {});
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(result.kernel_launches, 7u);
}

TEST(Enactor, BodyReceivesAscendingIterationNumbers) {
  sim::Device device(1);
  color::Coloring result = result_for(8);
  std::int32_t last = -1;
  Enactor enactor(device, result, 1 << 20);
  enactor.run("test::round", [&](std::int32_t iteration) {
    EXPECT_EQ(iteration, last + 1);
    last = iteration;
    return iteration + 1;
  });
  EXPECT_EQ(last, 7);
}

}  // namespace
}  // namespace gcol::gr
