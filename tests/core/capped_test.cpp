// Capped-run contract: a round-based colorer that reaches
// Options::max_iterations with vertices still uncolored says so through
// Coloring::hit_iteration_cap. With a cap of one round, every registered
// algorithm and distance2_jp must return either a complete proper coloring
// with the status clear, or the status set, at least one vertex kUncolored,
// and no edge joining two equal colors among the colored vertices. The
// status must reach the caller through the registry's reorder wrapper and
// through color::Batch. Own binary: tests/CMakeLists.txt pins GCOL_THREADS
// to 1, 2, 3 and 4.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/distance2.hpp"
#include "core/registry.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/mesh.hpp"
#include "graph/generators/rmat.hpp"
#include "sim/device.hpp"

namespace gcol::color {
namespace {

struct Input {
  std::string name;
  graph::Csr csr;
};

std::vector<Input> inputs() {
  std::vector<Input> out;
  out.push_back(
      {"rmat", graph::build_csr(graph::generate_rmat(9, 8, {.seed = 5}))});
  out.push_back({"mesh", graph::build_csr(graph::generate_mesh2d(24, 20))});
  return out;
}

/// Registry entries a one-round cap must stop short on both inputs, so a
/// wrapper that dropped the status would fail the complete-run branch.
constexpr std::int64_t kAlwaysCapped = 16;

Options capped_options() {
  Options options;
  options.max_iterations = 1;
  return options;
}

/// Checks one result against the contract; returns whether it was capped.
bool check(const graph::Csr& csr, const Coloring& result,
           const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(result.colors.size(), static_cast<std::size_t>(csr.num_vertices));
  if (!result.hit_iteration_cap) {
    const auto violation = find_violation(csr, result.colors);
    EXPECT_FALSE(violation.has_value())
        << "complete run with a violation at vertex " << violation->vertex;
    return false;
  }
  std::int64_t uncolored = 0;
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    const std::int32_t cv = result.colors[static_cast<std::size_t>(v)];
    if (cv == kUncolored) {
      ++uncolored;
      continue;
    }
    for (const vid_t u : csr.neighbors(v)) {
      EXPECT_NE(result.colors[static_cast<std::size_t>(u)], cv)
          << "capped run colors edge " << v << "-" << u << " with " << cv;
    }
  }
  EXPECT_GT(uncolored, 0) << "capped run colored every vertex";
  EXPECT_EQ(result.iterations, 1);
  return true;
}

TEST(CappedRun, EveryAlgorithmIsProperOrExplicitlyCapped) {
  for (const Input& input : inputs()) {
    std::int64_t capped = 0;
    for (const AlgorithmSpec& spec : all_algorithms()) {
      const Coloring result = spec.run(input.csr, capped_options());
      capped += check(input.csr, result, spec.name + " on " + input.name);
    }
    // The sixteen round-based registry entries other than gm_speculative
    // need more than one round here; gm_speculative's speculative first
    // round finishes when no conflict arises (always, at one worker).
    EXPECT_GE(capped, kAlwaysCapped) << input.name;
  }
}

TEST(CappedRun, StatusSurvivesReorderUnpermute) {
  Options options = capped_options();
  options.reorder = graph::ReorderStrategy::kBfs;
  for (const Input& input : inputs()) {
    std::int64_t capped = 0;
    for (const AlgorithmSpec& spec : all_algorithms()) {
      const Coloring result = spec.run(input.csr, options);
      capped += check(input.csr, result,
                      spec.name + " under bfs on " + input.name);
    }
    EXPECT_GE(capped, kAlwaysCapped) << input.name;
  }
}

TEST(CappedRun, StatusSurvivesBatch) {
  const std::vector<Input> graphs = inputs();
  std::vector<const graph::Csr*> pointers;
  for (const Input& input : graphs) pointers.push_back(&input.csr);
  Batch batch(sim::Device::instance());
  std::int64_t capped = 0;
  for (const AlgorithmSpec& spec : all_algorithms()) {
    const std::vector<Coloring> results =
        batch.run(spec, pointers, capped_options());
    ASSERT_EQ(results.size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      capped += check(graphs[i].csr, results[i],
                      spec.name + " in a batch on " + graphs[i].name);
    }
  }
  EXPECT_GE(capped, 2 * kAlwaysCapped);
}

TEST(CappedRun, Distance2JpIsProperOrExplicitlyCapped) {
  Distance2Options options;
  options.max_iterations = 1;
  for (const Input& input : inputs()) {
    const Coloring result = distance2_color(input.csr, options);
    EXPECT_TRUE(check(input.csr, result, "distance2_jp on " + input.name));
  }
}

}  // namespace
}  // namespace gcol::color
