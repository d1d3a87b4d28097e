// Frontier-mode equivalence suite: for every registered algorithm, the
// bitmap frontier's traversal direction (forced push, forced pull,
// occupancy-adaptive auto) must be an implementation detail — the colors
// must come out byte-identical to a reference run under kAuto (the default
// the golden-colors suite pins) and pass the independent verifier. The auto
// entries therefore check run-to-run identity. The test keeps the name it
// had when a sparse-list mode was the reference. The binary runs
// under whatever GCOL_THREADS the harness sets; tests/CMakeLists.txt
// registers it at 1 worker (where every algorithm is deterministic, so the
// identity check is exact for all of them) and 4 workers (real concurrency;
// the raced proposal/resolution algorithms are verify-only there, same
// exclusion as the determinism property test). The TSan CI job runs both,
// so the bitmap kernels' word-owner writes and atomic-OR publishes get
// race-checked under every direction.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/rgg.hpp"
#include "gunrock/frontier.hpp"
#include "sim/device.hpp"

namespace gcol::color {
namespace {

enum class Family { kErdosRenyi, kRgg };

const char* family_name(Family family) {
  switch (family) {
    case Family::kErdosRenyi: return "Gnm";
    case Family::kRgg: return "Rgg";
  }
  return "Unknown";
}

graph::Csr make_graph(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      // Sparse enough that shrinking frontiers stay in push territory for a
      // while before any pull crossover: exercises the adaptive switch.
      return graph::build_csr(graph::generate_erdos_renyi(600, 3000, 42));
    case Family::kRgg:
      return graph::build_csr(graph::generate_rgg(9, {.seed = 7}));
  }
  return {};
}

Coloring run(const AlgorithmSpec& spec, const graph::Csr& csr,
             gr::FrontierMode mode) {
  Options options;
  options.seed = 99;
  options.frontier_mode = mode;
  return spec.run(csr, options);
}

/// Bitwise identity across representations only holds when the algorithm
/// itself is deterministic under the current worker count; the raced
/// proposal/resolution algorithms are checked for validity only on
/// multi-worker devices (mirrors property_test's DeterministicForSeed).
bool raced_on_multiworker(const std::string& name) {
  return sim::Device::instance().num_workers() > 1 &&
         (name == "gunrock_hash" || name == "gm_speculative");
}

using Param = std::tuple<std::string, Family, gr::FrontierMode>;

class FrontierModeTest : public ::testing::TestWithParam<Param> {};

TEST_P(FrontierModeTest, MatchesSparseReference) {
  const auto& [algorithm_name, family, mode] = GetParam();
  const AlgorithmSpec* spec = find_algorithm(algorithm_name);
  ASSERT_NE(spec, nullptr);
  const graph::Csr csr = make_graph(family);

  const Coloring result = run(*spec, csr, mode);
  ASSERT_EQ(result.colors.size(), static_cast<std::size_t>(csr.num_vertices));
  const auto violation = find_violation(csr, result.colors);
  EXPECT_FALSE(violation.has_value())
      << algorithm_name << " (" << gr::to_string(mode) << ") on "
      << family_name(family) << ": violation at vertex "
      << (violation ? violation->vertex : -1);
  EXPECT_EQ(result.num_colors, count_colors(result.colors));

  if (raced_on_multiworker(algorithm_name)) {
    GTEST_SKIP() << "raced algorithm on multi-worker device: verify-only";
  }
  const Coloring reference = run(*spec, csr, gr::FrontierMode::kAuto);
  EXPECT_EQ(result.colors, reference.colors)
      << algorithm_name << " (" << gr::to_string(mode)
      << ") diverged from the auto reference on "
      << family_name(family);
}

std::vector<Param> make_params() {
  std::vector<Param> params;
  const Family families[] = {Family::kErdosRenyi, Family::kRgg};
  const gr::FrontierMode modes[] = {gr::FrontierMode::kBitmapPush,
                                    gr::FrontierMode::kBitmapPull,
                                    gr::FrontierMode::kAuto};
  for (const AlgorithmSpec& spec : all_algorithms()) {
    for (const Family family : families) {
      for (const gr::FrontierMode mode : modes) {
        params.emplace_back(spec.name, family, mode);
      }
    }
  }
  return params;
}

std::string mode_tag(gr::FrontierMode mode) {
  switch (mode) {
    case gr::FrontierMode::kBitmapPush: return "push";
    case gr::FrontierMode::kBitmapPull: return "pull";
    case gr::FrontierMode::kAuto: return "auto";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllModes, FrontierModeTest, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      // No structured bindings here: the macro would split on their commas.
      return std::get<0>(param_info.param) + "_" +
             family_name(std::get<1>(param_info.param)) + "_" +
             mode_tag(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace gcol::color
