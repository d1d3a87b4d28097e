// Figure 3 reproduction: scalability on DIMACS10-style random geometric
// graphs. For each RGG scale, prints runtime and color count for the best
// Gunrock (IS) and GraphBLAST (IS) implementations — the data behind all
// four panels (runtime/colors vs vertices/edges).
//
// Paper claims under test: Gunrock wins at small scales (lower overhead);
// GraphBLAST narrows the gap as scale grows (the paper sees a crossover at
// scale 23-24); Gunrock needs ~1.14x fewer colors throughout.

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "graph/build.hpp"
#include "graph/generators/rgg.hpp"

namespace {

using namespace gcol;

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  std::printf("== Figure 3: RGG scaling, rgg_n_2_{%d..%d}_s0 (runs=%d) "
              "==\n",
              args.min_rgg_scale, args.max_rgg_scale, args.runs);
  std::printf("(paper sweeps scales 15..24; cap with --max-rgg to fit your "
              "machine)\n\n");

  const color::AlgorithmSpec* gunrock = color::find_algorithm("gunrock_is");
  const color::AlgorithmSpec* graphblast = color::find_algorithm("grb_is");

  bench::TablePrinter table(
      {"scale", "V", "E", "gunrock_ms", "grb_ms", "gunrock_colors",
       "grb_colors", "grb/gunrock_ms", "color_ratio"},
      args.csv);

  std::vector<double> runtime_ratios;
  std::vector<double> color_ratios;
  for (int scale = args.min_rgg_scale; scale <= args.max_rgg_scale; ++scale) {
    const graph::Csr csr = graph::build_csr(
        graph::generate_rgg(scale, {.seed = args.seed + 200}));
    const bench::Measurement g = bench::run_averaged(
        *gunrock, csr, args.seed, args.runs, args.frontier_mode, args.reorder);
    const bench::Measurement b =
        bench::run_averaged(*graphblast, csr, args.seed, args.runs,
                            args.frontier_mode, args.reorder);
    if (!g.valid || !b.valid) {
      std::fprintf(stderr, "INVALID coloring at scale %d\n", scale);
      return 1;
    }
    const double runtime_ratio = b.ms_avg / g.ms_avg;
    const double color_ratio =
        static_cast<double>(b.result.num_colors) /
        static_cast<double>(g.result.num_colors);
    runtime_ratios.push_back(runtime_ratio);
    color_ratios.push_back(color_ratio);
    table.add_row({std::to_string(scale), std::to_string(csr.num_vertices),
                   std::to_string(csr.num_undirected_edges()),
                   bench::fmt(g.ms_avg), bench::fmt(b.ms_avg),
                   std::to_string(g.result.num_colors),
                   std::to_string(b.result.num_colors),
                   bench::fmt(runtime_ratio), bench::fmt(color_ratio)});
  }
  table.print();

  std::printf("\n== summary vs paper claims ==\n");
  std::printf("GraphBLAST/Gunrock runtime ratio: %.2fx at scale %d -> %.2fx "
              "at scale %d (paper: Gunrock wins small scales, crossover at "
              "23-24)\n",
              runtime_ratios.front(), args.min_rgg_scale,
              runtime_ratios.back(), args.max_rgg_scale);
  std::printf("GraphBLAST/Gunrock color ratio geomean: %.2fx (paper: Gunrock "
              "1.14x fewer colors)\n",
              bench::geomean(color_ratios));
  return 0;
}
