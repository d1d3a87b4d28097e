// Micro-benchmarks (google-benchmark) for the substrate primitives every
// coloring iteration is built from: scan, reduce, segmented reduce, stream
// compaction, and the vxm push/pull traversals. These quantify the per-
// launch costs the paper's analysis attributes algorithm differences to.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/palette.hpp"
#include "graph/build.hpp"
#include "graph/generators/rgg.hpp"
#include "graph/generators/rmat.hpp"
#include "graph/reorder.hpp"
#include "graphblas/grb.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "sim/bitops.hpp"
#include "sim/compact.hpp"
#include "sim/device.hpp"
#include "sim/reduce.hpp"
#include "sim/rng.hpp"
#include "sim/scan.hpp"
#include "sim/segmented_reduce.hpp"
#include "sim/simd.hpp"

namespace {

using namespace gcol;

std::vector<std::int64_t> make_values(std::int64_t n) {
  const sim::CounterRng rng(5);
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::int64_t>(rng.uniform_below(i, 1000));
  }
  return values;
}

// Per-launch overhead: the cost of one kernel launch + global barrier when
// the kernel body is (nearly) free. This is the paper's fixed "global
// synchronization" cost — the quantity the launch fast path (inline small
// grids, sense-reversing barrier above them) exists to shrink. n = 4 hits
// the inline path; n just above sim::kInlineLaunchItems pays the full
// barrier, so the pair brackets both regimes.
void BM_LaunchOverhead(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const std::int64_t n = state.range(0);
  std::int64_t sink = 0;
  for (auto _ : state) {
    device.launch("bench::noop", n, [&](std::int64_t i) {
      benchmark::DoNotOptimize(sink += i);
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LaunchOverhead)
    ->Arg(4)
    ->Arg(sim::kInlineLaunchItems)
    ->Arg(sim::kInlineLaunchItems + 1)
    ->Arg(1024);

void BM_ExclusiveScan(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto values = make_values(state.range(0));
  std::vector<std::int64_t> out(values.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::exclusive_scan<std::int64_t>(device, values, std::span(out)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExclusiveScan)->Range(1 << 10, 1 << 20);

void BM_ReduceSum(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto values = make_values(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::reduce_sum<std::int64_t>(device, values));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceSum)->Range(1 << 10, 1 << 20);

void BM_CountIf(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto values = make_values(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::count_if<std::int64_t>(
        device, values, [](std::int64_t x) { return x > 500; }));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountIf)->Range(1 << 10, 1 << 20);

void BM_CompactIndices(benchmark::State& state) {
  auto& device = sim::Device::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::compact_indices(
        device, state.range(0), [](std::int64_t i) { return i % 3 == 0; }));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompactIndices)->Range(1 << 10, 1 << 20);

// Fused compaction over a skewed predicate: nearly everything kept. The
// flag+count/scatter fusion (two launches instead of flag, scan, scatter)
// shows up here as launch-overhead savings on top of the removed scan pass.
void BM_CompactValues(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto values = make_values(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::compact_values<std::int64_t>(
        device, values, [](std::int64_t x, std::int64_t) { return x != 0; }));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompactValues)->Range(1 << 10, 1 << 20);

// Advance schedule ablation (paper Table II axis): vertex-chunked dynamic
// scheduling vs the edge-balanced merge-path fill, on a near-uniform RGG
// (balanced degrees — little for edge-balancing to fix) and a skewed R-MAT
// (power-law degrees — the case vertex granularity starves on).
template <gr::AdvancePolicy policy>
void BM_AdvanceRgg(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto csr = graph::build_csr(graph::generate_rgg(
      static_cast<int>(state.range(0)), {.seed = 1}));
  const gr::Frontier frontier = gr::Frontier::all(csr.num_vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gr::advance(device, csr, frontier, policy));
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_AdvanceRgg<gr::AdvancePolicy::kVertexChunked>)
    ->DenseRange(12, 16, 2);
BENCHMARK(BM_AdvanceRgg<gr::AdvancePolicy::kEdgeBalanced>)
    ->DenseRange(12, 16, 2);

template <gr::AdvancePolicy policy>
void BM_AdvanceRmat(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto csr = graph::build_csr(graph::generate_rmat(
      static_cast<int>(state.range(0)), 16, {.seed = 17}));
  const gr::Frontier frontier = gr::Frontier::all(csr.num_vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gr::advance(device, csr, frontier, policy));
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_AdvanceRmat<gr::AdvancePolicy::kVertexChunked>)
    ->DenseRange(12, 16, 2);
BENCHMARK(BM_AdvanceRmat<gr::AdvancePolicy::kEdgeBalanced>)
    ->DenseRange(12, 16, 2);

// Frontier-rebuild representations (DESIGN.md §3d): the per-round frontier
// compaction every frontier-driven algorithm pays. The sparse list goes
// through the fused flag+count/scatter compaction (two launches, a scan and
// a gather); the bitmap rebuild is ONE word-owner launch writing 64
// membership decisions per word with no scatter at all.
void BM_FrontierCompactList(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto n = static_cast<vid_t>(state.range(0));
  const gr::Frontier frontier = gr::Frontier::all(n);
  std::vector<vid_t> spare;
  for (auto _ : state) {
    gr::Frontier next = gr::filter_into(
        device, frontier, std::move(spare),
        [](vid_t v) { return (v & 1) == 0; });
    benchmark::DoNotOptimize(next.size());
    spare = next.release_vertices();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrontierCompactList)->Range(1 << 12, 1 << 20);

void BM_FrontierBitmapUpdate(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto n = static_cast<vid_t>(state.range(0));
  const gr::Frontier frontier =
      gr::Frontier::all_bits(n, gr::FrontierMode::kAuto);
  std::vector<std::uint64_t> spare;
  for (auto _ : state) {
    gr::Frontier next = gr::filter_bits(
        device, frontier, std::move(spare),
        [](vid_t v) { return (v & 1) == 0; });
    benchmark::DoNotOptimize(next.size());
    spare = next.release_words();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrontierBitmapUpdate)->Range(1 << 12, 1 << 20);

// Push/pull crossover sweep (the gr::resolve_direction heuristic's subject):
// bitmap advance over frontiers of density 1/k on a mid-size RGG, forced
// push (word-skipping set-bit iteration + scattered atomic ORs) vs forced
// pull (dense candidate pass with adjacency early-exit). Dense frontiers
// (k small) should favor pull, sparse ones (k large) push; kAuto's
// edge-work-vs-full-pass rule picks per launch.
template <gr::FrontierMode mode>
void BM_BitmapAdvance(benchmark::State& state) {
  auto& device = sim::Device::instance();
  const auto csr =
      graph::build_csr(graph::generate_rgg(14, {.seed = 1}));
  const vid_t n = csr.num_vertices;
  std::vector<std::uint64_t> words(sim::words_for_bits(n), 0);
  std::int64_t count = 0;
  for (vid_t v = 0; v < n; v += static_cast<vid_t>(state.range(0))) {
    words[static_cast<std::size_t>(v / 64)] |= std::uint64_t{1} << (v % 64);
    ++count;
  }
  const gr::Frontier frontier =
      gr::Frontier::bits(std::move(words), count, n, mode);
  std::vector<std::uint64_t> buffer;
  for (auto _ : state) {
    gr::Frontier out =
        gr::advance_bits(device, csr, frontier, std::move(buffer));
    benchmark::DoNotOptimize(out.size());
    buffer = out.release_words();
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BitmapAdvance<gr::FrontierMode::kBitmapPush>)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_BitmapAdvance<gr::FrontierMode::kBitmapPull>)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_BitmapAdvance<gr::FrontierMode::kAuto>)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Palette representations (DESIGN.md "Palette representations"): the
// min-color kernel run per vertex per round by every first-fit algorithm,
// dense array vs bit-packed windowed, as a function of degree. The dense
// formulation pays an O(degree)-entry used[] array (store per edge + linear
// scan); the windowed bit palette pays (degree/64 + 1) register windows and
// a countr_one each — no memory traffic beyond the neighbor colors.
std::vector<std::int32_t> make_neighbor_colors(std::int64_t degree) {
  const sim::CounterRng rng(11);
  std::vector<std::int32_t> colors(static_cast<std::size_t>(degree));
  for (std::size_t k = 0; k < colors.size(); ++k) {
    // First-fit neighborhoods concentrate at the low end of the palette;
    // every fourth neighbor is still uncolored (-1), as mid-round.
    colors[k] = rng.uniform_below(k, 4) == 0
                    ? -1
                    : static_cast<std::int32_t>(rng.uniform_below(
                          k ^ 0x5bd1e995u, static_cast<std::uint32_t>(
                                               colors.size() + 1)));
  }
  return colors;
}

void BM_MinColorDense(benchmark::State& state) {
  const std::int64_t degree = state.range(0);
  const auto colors = make_neighbor_colors(degree);
  std::vector<std::uint8_t> used(static_cast<std::size_t>(degree) + 2);
  for (auto _ : state) {
    std::fill(used.begin(), used.end(), 0);
    for (const std::int32_t c : colors) {
      if (c >= 0 && c <= degree) used[static_cast<std::size_t>(c)] = 1;
    }
    std::int32_t min_color = 0;
    while (used[static_cast<std::size_t>(min_color)] != 0) ++min_color;
    benchmark::DoNotOptimize(min_color);
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
BENCHMARK(BM_MinColorDense)->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);

void BM_MinColorBitPacked(benchmark::State& state) {
  const std::int64_t degree = state.range(0);
  const auto colors = make_neighbor_colors(degree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(color::palette::first_fit_windowed(
        degree,
        [&](std::int64_t k) { return colors[static_cast<std::size_t>(k)]; }));
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
BENCHMARK(BM_MinColorBitPacked)->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);

// SIMD substrate ablations (DESIGN.md §3f). Window-width axis of the
// windowed first-fit: W = 1 is the scalar oracle (one 64-color word per
// overflow pass), W = kLaneWords amortizes overflow passes over one vector
// register's worth of palette. The input is the adversarial dense
// neighborhood — neighbor k holds color k, so every color in [0, degree) is
// taken, the answer is `degree`, and the sweep walks degree/(64*W)+2
// adjacency passes. Same exact answer at any W; the realistic low-color
// distribution (where the shared scalar first window resolves everything
// and W is irrelevant) is BM_MinColorBitPacked above.
template <std::size_t W>
void BM_PaletteMinColor(benchmark::State& state) {
  const std::int64_t degree = state.range(0);
  std::vector<std::int32_t> colors(static_cast<std::size_t>(degree));
  for (std::size_t k = 0; k < colors.size(); ++k) {
    colors[k] = static_cast<std::int32_t>(colors.size() - 1 - k);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(color::palette::first_fit_windowed<W>(
        degree,
        [&](std::int64_t k) { return colors[static_cast<std::size_t>(k)]; }));
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
constexpr std::size_t kScalarWindow = 1;
constexpr std::size_t kSimdWindow =
    static_cast<std::size_t>(sim::simd::kLaneWords);
BENCHMARK(BM_PaletteMinColor<kScalarWindow>)
    ->Arg(8)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_PaletteMinColor<kSimdWindow>)
    ->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

// Bitmap-frontier scan: per-word visit loop (the pre-SIMD shape) vs
// visit_set_bits_span, whose simd::first_nonzero_word hops zero runs a lane
// at a time. The argument is the set-bit stride (1/k density): dense
// frontiers have no zero runs to skip, sparse ones are mostly skipping —
// the win must come without changing the visit order (both sides sum the
// same bit indices).
template <bool kSpanScan>
void BM_BitmapScan(benchmark::State& state) {
  constexpr std::int64_t kBits = 1 << 20;
  const std::int64_t stride = state.range(0);
  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(sim::words_for_bits(kBits)), 0);
  std::int64_t set = 0;
  for (std::int64_t b = 0; b < kBits; b += stride) {
    words[static_cast<std::size_t>(b / 64)] |= std::uint64_t{1} << (b % 64);
    ++set;
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    if constexpr (kSpanScan) {
      sim::visit_set_bits_span(std::span<const std::uint64_t>(words), 0,
                               [&](std::int64_t bit) { sum += bit; });
    } else {
      for (std::size_t w = 0; w < words.size(); ++w) {
        sim::visit_set_bits(words[w], static_cast<std::int64_t>(w) * 64,
                            [&](std::int64_t bit) { sum += bit; });
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * set);
}
BENCHMARK(BM_BitmapScan<false>)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_BitmapScan<true>)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

// Prefetch-distance sweep for the scattered CSR gathers (the grb_jpl
// forbidden-pass shape: walk adjacency rows, gather a per-neighbor color).
// Arg is the lookahead in edges; 0 is the no-prefetch control and
// sim::kGatherPrefetchDistance is the shipped setting. Skewed R-MAT rows on
// a graph bigger than L2 so the gathers actually miss.
void BM_CsrGatherPrefetch(benchmark::State& state) {
  const auto csr = graph::build_csr(graph::generate_rmat(16, 16, {.seed = 17}));
  const std::int64_t distance = state.range(0);
  std::vector<std::int32_t> colors(
      static_cast<std::size_t>(csr.num_vertices));
  for (std::size_t v = 0; v < colors.size(); ++v) {
    colors[v] = static_cast<std::int32_t>(v % 97);
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto row = static_cast<std::size_t>(v);
      const auto begin = static_cast<std::size_t>(csr.row_offsets[row]);
      const auto end = static_cast<std::size_t>(csr.row_offsets[row + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t ahead = k + static_cast<std::size_t>(distance);
        if (distance > 0 && ahead < end) {
          sim::prefetch(
              &colors[static_cast<std::size_t>(csr.col_indices[ahead])]);
        }
        sum += colors[static_cast<std::size_t>(csr.col_indices[k])];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_CsrGatherPrefetch)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Cache-aware CSR relabeling (DESIGN.md §3g): the one-time preprocessing
// cost each reorder strategy charges before the color phase earns it back.
// make_permutation + relabel end to end on a skewed R-MAT — the histogram /
// scan / scatter pipeline plus the per-row neighbor translation and re-sort.
template <graph::ReorderStrategy strategy>
void BM_Relabel(benchmark::State& state) {
  const auto csr = graph::build_csr(graph::generate_rmat(
      static_cast<int>(state.range(0)), 16, {.seed = 17}));
  for (auto _ : state) {
    const graph::Permutation perm = graph::make_permutation(csr, strategy);
    const graph::Csr relabeled = graph::relabel(csr, perm);
    benchmark::DoNotOptimize(relabeled.num_vertices);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_Relabel<graph::ReorderStrategy::kDegreeSort>)
    ->DenseRange(12, 16, 2);
BENCHMARK(BM_Relabel<graph::ReorderStrategy::kDbg>)->DenseRange(12, 16, 2);
BENCHMARK(BM_Relabel<graph::ReorderStrategy::kBfs>)->DenseRange(12, 16, 2);

// What the relabeling buys: the scattered per-neighbor gather (the
// forbidden-color pass shape of BM_CsrGatherPrefetch, same prefetch
// distance) on the natural labeling vs each strategy's relabeled CSR. The
// work is identical — same edges, same per-vertex sum modulo the label
// translation — so any delta is pure locality: neighbor ids drawn closer
// together hit the same cache lines and pages.
template <graph::ReorderStrategy strategy>
void BM_CsrGatherReordered(benchmark::State& state) {
  const auto base = graph::build_csr(graph::generate_rmat(
      static_cast<int>(state.range(0)), 16, {.seed = 17}));
  graph::Csr relabeled;
  if (strategy != graph::ReorderStrategy::kIdentity) {
    relabeled =
        graph::relabel(base, graph::make_permutation(base, strategy));
  }
  const graph::Csr& csr =
      strategy == graph::ReorderStrategy::kIdentity ? base : relabeled;
  std::vector<std::int32_t> colors(
      static_cast<std::size_t>(csr.num_vertices));
  for (std::size_t v = 0; v < colors.size(); ++v) {
    colors[v] = static_cast<std::int32_t>(v % 97);
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (vid_t v = 0; v < csr.num_vertices; ++v) {
      const auto row = static_cast<std::size_t>(v);
      const auto begin = static_cast<std::size_t>(csr.row_offsets[row]);
      const auto end = static_cast<std::size_t>(csr.row_offsets[row + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t ahead = k + sim::kGatherPrefetchDistance;
        if (ahead < end) {
          sim::prefetch(
              &colors[static_cast<std::size_t>(csr.col_indices[ahead])]);
        }
        sum += colors[static_cast<std::size_t>(csr.col_indices[k])];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_CsrGatherReordered<graph::ReorderStrategy::kIdentity>)
    ->DenseRange(14, 18, 2);
BENCHMARK(BM_CsrGatherReordered<graph::ReorderStrategy::kDegreeSort>)
    ->DenseRange(14, 18, 2);
BENCHMARK(BM_CsrGatherReordered<graph::ReorderStrategy::kDbg>)
    ->DenseRange(14, 18, 2);
BENCHMARK(BM_CsrGatherReordered<graph::ReorderStrategy::kBfs>)
    ->DenseRange(14, 18, 2);

void BM_SegmentedReduce(benchmark::State& state) {
  auto& device = sim::Device::instance();
  // CSR-like segments from a real RGG's degree structure.
  const auto csr = graph::build_csr(graph::generate_rgg(
      static_cast<int>(state.range(0)), {.seed = 1}));
  const auto values = make_values(csr.num_edges());
  std::vector<std::int64_t> out(static_cast<std::size_t>(csr.num_vertices));
  for (auto _ : state) {
    sim::segmented_reduce<std::int64_t, eid_t>(
        device, csr.row_offsets, values, out, std::int64_t{0},
        [](std::int64_t a, std::int64_t b) { return b > a ? b : a; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_SegmentedReduce)->DenseRange(12, 16, 2);

void BM_VxmPull(benchmark::State& state) {
  const auto csr = graph::build_csr(graph::generate_rgg(
      static_cast<int>(state.range(0)), {.seed = 1}));
  const grb::Matrix<std::int64_t> a(csr);
  grb::Vector<std::int64_t> u(csr.num_vertices);
  u.fill(7);
  grb::Vector<std::int64_t> w(csr.num_vertices);
  grb::Descriptor desc;
  desc.vxm_mode = grb::VxmMode::kPull;
  for (auto _ : state) {
    grb::vxm(w, nullptr, grb::max_times_semiring<std::int64_t>(), u, a, desc);
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_edges());
}
BENCHMARK(BM_VxmPull)->DenseRange(12, 16, 2);

void BM_VxmPushSparseFrontier(benchmark::State& state) {
  const auto csr =
      graph::build_csr(graph::generate_rgg(14, {.seed = 1}));
  const grb::Matrix<std::int64_t> a(csr);
  // Frontier density controlled by the benchmark argument (1/k vertices).
  grb::Vector<std::int64_t> u(csr.num_vertices);
  for (grb::Index i = 0; i < csr.num_vertices; i += state.range(0)) {
    u.set_element(i, i + 1);
  }
  grb::Vector<std::int64_t> w(csr.num_vertices);
  grb::Descriptor desc;
  desc.vxm_mode = grb::VxmMode::kPush;
  for (auto _ : state) {
    grb::vxm(w, nullptr, grb::max_times_semiring<std::int64_t>(), u, a, desc);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_VxmPushSparseFrontier)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
