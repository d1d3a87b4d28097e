// Golden-colors suite: every registered algorithm, on three graph families,
// must reproduce a recorded hash of (colors, num_colors, iterations). The
// hashes pin the exact output of the current round bodies, so any change to
// an algorithm's schedule, fusion or data layout that moves a single color
// fails here. The binary runs under whatever GCOL_THREADS the harness sets;
// tests/CMakeLists.txt registers it at 1 worker and at 4 workers. Every
// deterministic algorithm must hit the SAME hash at every width; the raced
// proposal/resolution algorithms (gunrock_hash, gm_speculative) are
// nondeterministic above one worker, so there they are only checked for a
// proper coloring.
//
// A missing table entry fails with the row to add, so regenerating the
// table after an intended color change is: delete the stale row, run the
// suite at one worker, paste the printed row.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "sim/device.hpp"

namespace gcol::color {
namespace {

enum class Family { kErdosRenyi, kRmat, kRgg };

const char* family_name(Family family) {
  switch (family) {
    case Family::kErdosRenyi: return "Gnm";
    case Family::kRmat: return "Rmat";
    case Family::kRgg: return "Rgg";
  }
  return "Unknown";
}

graph::Csr make_graph(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      // Sparse: long shrinking-frontier tails and mostly-zero GraphBLAS
      // masks.
      return graph::build_csr(graph::generate_erdos_renyi(600, 3000, 42));
    case Family::kRmat:
      // Power-law: skewed degrees push the AR push/pull boundary, so both
      // directions run.
      return graph::build_csr(graph::generate_rmat(9, 8, {.seed = 5}));
    case Family::kRgg:
      return graph::build_csr(graph::generate_rgg(9, {.seed = 7}));
  }
  return {};
}

/// FNV-1a over the little-endian bytes of each color, then num_colors and
/// iterations.
std::uint64_t coloring_hash(const Coloring& coloring) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= bits & 0xffU;
      h *= 0x100000001b3ULL;
      bits >>= 8;
    }
  };
  for (const std::int32_t c : coloring.colors) mix(c);
  mix(coloring.num_colors);
  mix(coloring.iterations);
  return h;
}

struct Golden {
  std::string_view key;  ///< "<algorithm>_<family>"
  std::uint64_t hash;    ///< coloring_hash at seed 99, default Options
};

// clang-format off
constexpr Golden kGolden[] = {
    {"cpu_greedy_Gnm",          0x6b244012e3b607e3ULL},
    {"cpu_greedy_Rmat",         0xe1d13a17ab81ade3ULL},
    {"cpu_greedy_Rgg",          0x8e2283ae2740170cULL},
    {"grb_is_Gnm",              0xfe568e81c097c52eULL},
    {"grb_is_Rmat",             0x5b45368c4b98d7a1ULL},
    {"grb_is_Rgg",              0xeac829b454ecb54aULL},
    {"grb_jpl_Gnm",             0x10f4023f7c9576e3ULL},
    {"grb_jpl_Rmat",            0x493d5745684bdc09ULL},
    {"grb_jpl_Rgg",             0x0342a0fb12650f45ULL},
    {"grb_mis_Gnm",             0xc36b9912c3e69465ULL},
    {"grb_mis_Rmat",            0xe1388de02fd772d5ULL},
    {"grb_mis_Rgg",             0x1f10c071c5554102ULL},
    {"gunrock_ar_Gnm",          0x2047d16c7468f463ULL},
    {"gunrock_ar_Rmat",         0x6323284efabc674cULL},
    {"gunrock_ar_Rgg",          0xd4eacf11dbd8ec6aULL},
    {"gunrock_hash_Gnm",        0x708628c60bc391a3ULL},
    {"gunrock_hash_Rmat",       0x7d82f7dbcce19ba9ULL},
    {"gunrock_hash_Rgg",        0xd8f0ce38318ba165ULL},
    {"gunrock_is_Gnm",          0x37cd1438d7ca0154ULL},
    {"gunrock_is_Rmat",         0xb8582cd9307a34c7ULL},
    {"gunrock_is_Rgg",          0x1947f6702a846144ULL},
    {"naumov_cc_Gnm",           0x214ccb7e6228c35fULL},
    {"naumov_cc_Rmat",          0x7e0f9080a8693492ULL},
    {"naumov_cc_Rgg",           0x3d34240e649b8e67ULL},
    {"naumov_jpl_Gnm",          0x330d2357436599a5ULL},
    {"naumov_jpl_Rmat",         0x6ed1d7cb6e57d4b8ULL},
    {"naumov_jpl_Rgg",          0xebb9dc467cde7a64ULL},
    {"grb_jpl_pure_Gnm",        0x10f4023f7c9576e3ULL},
    {"grb_jpl_pure_Rmat",       0x493d5745684bdc09ULL},
    {"grb_jpl_pure_Rgg",        0x0342a0fb12650f45ULL},
    {"gunrock_is_atomics_Gnm",  0x399ff2ce769db389ULL},
    {"gunrock_is_atomics_Rmat", 0xf6c8f0addd7991f7ULL},
    {"gunrock_is_atomics_Rgg",  0x8d7a147b7c293efbULL},
    {"gunrock_ar_fused_Gnm",    0xa421901a7af40f40ULL},
    {"gunrock_ar_fused_Rmat",   0xddfee71ad2d5a91bULL},
    {"gunrock_ar_fused_Rgg",    0x294954270b17cb4aULL},
    {"gunrock_is_single_Gnm",   0x399ff2ce769db389ULL},
    {"gunrock_is_single_Rmat",  0xf6c8f0addd7991f7ULL},
    {"gunrock_is_single_Rgg",   0x8d7a147b7c293efbULL},
    {"cpu_greedy_random_Gnm",   0xa9d9567a330e4fedULL},
    {"cpu_greedy_random_Rmat",  0xff6211850ceaa32dULL},
    {"cpu_greedy_random_Rgg",   0xf38e65ebdd241986ULL},
    {"cpu_greedy_lf_Gnm",       0xb1a2dcc922743d45ULL},
    {"cpu_greedy_lf_Rmat",      0xcaf8a3ff7082e042ULL},
    {"cpu_greedy_lf_Rgg",       0xefa702b90f81fa8bULL},
    {"cpu_greedy_sl_Gnm",       0xfd4168dbef6b59a4ULL},
    {"cpu_greedy_sl_Rmat",      0x319b920ac692794aULL},
    {"cpu_greedy_sl_Rgg",       0x682db83fc77d4b6fULL},
    {"cpu_greedy_id_Gnm",       0xcc2e9b63c329faa2ULL},
    {"cpu_greedy_id_Rmat",      0x6b2739cc6b9db7edULL},
    {"cpu_greedy_id_Rgg",       0x983df4f10de7a14bULL},
    {"jp_random_Gnm",           0x6018211d2f12e3ffULL},
    {"jp_random_Rmat",          0x223e780c8089c27bULL},
    {"jp_random_Rgg",           0x157852ef5516ea42ULL},
    {"jp_ldf_Gnm",              0xb2cd5c7440594bf2ULL},
    {"jp_ldf_Rmat",             0xcd2b73883dfe2c82ULL},
    {"jp_ldf_Rgg",              0x229f1d0ec5cf242fULL},
    {"jp_sdl_Gnm",              0x585176ad2dd23c85ULL},
    {"jp_sdl_Rmat",             0x46c0398691d4a2b4ULL},
    {"jp_sdl_Rgg",              0xda42b4d6b38d533cULL},
    {"jp_hybrid_Gnm",           0x6b8661bf219ec793ULL},
    {"jp_hybrid_Rmat",          0xd239ac58bd52c56aULL},
    {"jp_hybrid_Rgg",           0x18aaf3bf9aabc010ULL},
    {"dsatur_Gnm",              0x00630b29d1deed46ULL},
    {"dsatur_Rmat",             0x923c4d4bb99f4502ULL},
    {"dsatur_Rgg",              0x69a68675a4794de8ULL},
    {"gm_speculative_Gnm",      0x6b244012e3b607e3ULL},
    {"gm_speculative_Rmat",     0xe1d13a17ab81ade3ULL},
    {"gm_speculative_Rgg",      0x8e2283ae2740170cULL},
};
// clang-format on

/// Nondeterministic above one worker even with a fixed seed: proposals race
/// and conflict resolution keeps whichever write landed.
bool raced(const std::string& name) {
  return name == "gunrock_hash" || name == "gm_speculative";
}

using Param = std::tuple<std::string, Family>;

class GoldenColorsTest : public ::testing::TestWithParam<Param> {};

TEST_P(GoldenColorsTest, MatchesRecordedHash) {
  const auto& [algorithm_name, family] = GetParam();
  const AlgorithmSpec* spec = find_algorithm(algorithm_name);
  ASSERT_NE(spec, nullptr);
  const graph::Csr csr = make_graph(family);
  Options options;
  options.seed = 99;
  const Coloring coloring = spec->run(csr, options);

  ASSERT_EQ(coloring.colors.size(),
            static_cast<std::size_t>(csr.num_vertices));
  const auto violation = find_violation(csr, coloring.colors);
  EXPECT_FALSE(violation.has_value())
      << algorithm_name << " on " << family_name(family)
      << ": violation at vertex " << (violation ? violation->vertex : -1);
  EXPECT_EQ(coloring.num_colors, count_colors(coloring.colors));

  const unsigned workers = sim::Device::instance().num_workers();
  if (workers > 1 && raced(algorithm_name)) {
    GTEST_SKIP() << "raced algorithm on " << workers << " workers: "
                 << "verify-only";
  }
  const std::string key = algorithm_name + "_" + family_name(family);
  const std::uint64_t actual = coloring_hash(coloring);
  for (const Golden& golden : kGolden) {
    if (golden.key != key) continue;
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(actual));
    EXPECT_EQ(actual, golden.hash)
        << key << " at " << workers << " worker(s) hashed to " << hex
        << ": its colors, color count or iteration count moved";
    return;
  }
  char row[128];
  std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxULL},", key.c_str(),
                static_cast<unsigned long long>(actual));
  ADD_FAILURE() << "no golden row for " << key << "; record:\n" << row;
}

std::vector<Param> make_params() {
  std::vector<Param> params;
  const Family families[] = {Family::kErdosRenyi, Family::kRmat,
                             Family::kRgg};
  for (const AlgorithmSpec& spec : all_algorithms()) {
    for (const Family family : families) {
      params.emplace_back(spec.name, family);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, GoldenColorsTest, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      // No structured bindings here: the macro would split on their commas.
      return std::get<0>(param_info.param) + "_" +
             family_name(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace gcol::color
