// Figure 2 reproduction: the time-quality tradeoff scatter. For every
// dataset, prints (runtime, colors) pairs for the two Gunrock
// implementations (Fig. 2a: IS vs Hash) and the two GraphBLAST
// implementations (Fig. 2b: IS vs MIS). The paper's claim: within each
// framework, the more expensive implementation buys a better color count.

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "graph/datasets.hpp"

namespace {

using namespace gcol;

void run_panel(const char* title, const std::vector<const char*>& names,
               const bench::Args& args, const char* cheap,
               const char* expensive) {
  std::printf("%s\n", title);
  bench::TablePrinter table(
      {"dataset", "implementation", "runtime_ms", "colors"}, args.csv);
  int quality_wins = 0;
  int datasets = 0;
  for (const graph::DatasetInfo& info : graph::paper_datasets()) {
    const graph::Csr csr = graph::build_dataset(info, args.scale);
    std::int32_t cheap_colors = 0, expensive_colors = 0;
    for (const char* name : names) {
      const color::AlgorithmSpec* spec = color::find_algorithm(name);
      const bench::Measurement m = bench::run_averaged(
          *spec, csr, args.seed, args.runs, args.frontier_mode, args.reorder);
      table.add_row({info.name, spec->display_name, bench::fmt(m.ms_avg),
                     std::to_string(m.result.num_colors)});
      if (std::string(name) == cheap) cheap_colors = m.result.num_colors;
      if (std::string(name) == expensive) {
        expensive_colors = m.result.num_colors;
      }
    }
    ++datasets;
    if (expensive_colors <= cheap_colors) ++quality_wins;
  }
  table.print();
  std::printf("%s matched or beat %s on colors in %d/%d datasets\n\n",
              expensive, cheap, quality_wins, datasets);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  std::printf("== Figure 2: time-quality tradeoff (scale=%.3f, runs=%d) "
              "==\n\n",
              args.scale, args.runs);
  run_panel("-- Fig 2a: Gunrock IS vs Hash --",
            {"gunrock_is", "gunrock_hash"}, args, "gunrock_is",
            "gunrock_hash");
  run_panel("-- Fig 2b: GraphBLAST IS vs MIS --", {"grb_is", "grb_mis"},
            args, "grb_is", "grb_mis");
  return 0;
}
