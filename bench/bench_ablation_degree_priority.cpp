// Future-work experiment from the paper's conclusion: "examine how the
// largest-degree-first heuristic compares with the randomized algorithms ...
// With power law graphs, it is possible that a random weight initialization
// would perform worse than largest-degree first". Compares Jones-Plassmann
// priorities (random / LDF / SDL) and greedy orderings on a mesh-like RGG
// versus an R-MAT power-law graph.

#include <cstdio>
#include <string>

#include "common/bench_util.hpp"
#include "core/registry.hpp"
#include "graph/build.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/stats.hpp"

namespace {

using namespace gcol;

void run_panel(const char* title, const graph::Csr& csr,
               const bench::Args& args) {
  const graph::DegreeStats stats = graph::degree_stats(csr);
  std::printf("-- %s (V=%d, E=%lld, avg_deg=%.1f, max_deg=%d) --\n", title,
              csr.num_vertices,
              static_cast<long long>(csr.num_undirected_edges()),
              stats.average_degree, stats.max_degree);
  bench::TablePrinter table(
      {"algorithm", "ms", "colors", "iterations"}, args.csv);
  for (const char* name : {"jp_random", "jp_ldf", "jp_sdl", "jp_hybrid",
                           "cpu_greedy", "cpu_greedy_lf", "cpu_greedy_sl",
                           "cpu_greedy_id", "dsatur", "gunrock_is",
                           "grb_mis"}) {
    const color::AlgorithmSpec* spec = color::find_algorithm(name);
    const bench::Measurement m = bench::run_averaged(
        *spec, csr, args.seed, args.runs, args.frontier_mode, args.reorder);
    if (!m.valid) {
      std::fprintf(stderr, "INVALID coloring from %s\n", name);
      std::exit(1);
    }
    table.add_row({spec->display_name, bench::fmt(m.ms_avg),
                   std::to_string(m.result.num_colors),
                   std::to_string(m.result.iterations)});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  std::printf("== Ablation: degree-based vs randomized priorities "
              "(paper future work; runs=%d) ==\n\n",
              args.runs);
  run_panel("mesh-like: rgg_n_2_14_s0",
            graph::build_csr(
                graph::generate_rgg(14, {.seed = args.seed + 200})),
            args);
  run_panel("power-law: rmat scale 14, edge factor 8",
            graph::build_csr(
                graph::generate_rmat(14, 8, {.seed = args.seed + 300})),
            args);
  return 0;
}
