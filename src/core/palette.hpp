#pragma once
// Bit-packed forbidden-color palettes — the color-selection kernel shared by
// the first-fit style algorithms (Jones-Plassmann, speculative greedy, the
// fused GraphBLAST JPL path). The dense formulation keeps an O(palette)
// integer array per vertex and scans it linearly; here a color is one BIT,
// so marking a neighbor's color is an OR and "minimum color not used by any
// colored neighbor" is a countr_one per 64-color word (cuSPARSE csrcolor /
// Chen et al.'s trick, see sim/bitops.hpp).
//
// Two modes, trading scratch for adjacency re-scans:
//
//   - first_fit_windowed: ZERO scratch. Sweeps candidate colors in
//     ascending 64-color windows held in one register word, re-reading the
//     neighbor colors per window. A degree-d vertex first-fits within
//     [0, d], so the sweep visits at most d/64 + 1 windows; on the
//     low-degree graphs of the paper's Figure 1 that is one window — one
//     pass, one countr_one.
//
//   - ForbiddenPalette: O(deg/64 + 1) words per vertex, one adjacency pass
//     regardless of degree. Total scratch is O(n + m/64) words instead of
//     the dense O(n · palette) entries; slices are per-vertex disjoint, so
//     concurrent kernels fill them without atomics.
//
// Per-edge cost model (see DESIGN.md "Palette representations"): dense pays
// a palette-array store per edge plus an O(palette) scan per vertex;
// windowed pays (deg/64 + 1) reads per edge and a single word op per
// window; bit-packed pays one OR per edge and a words(v)-word scan.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "sim/bitops.hpp"
#include "sim/device.hpp"
#include "sim/scan.hpp"
#include "sim/simd.hpp"

namespace gcol::color::palette {

/// Structural traffic of a first-fit color pass, per NEIGHBOR: one neighbor
/// color gather (the window words are register-held, the adjacency gather is
/// the substrate's own declaration). A floor — the rare high-color vertex
/// re-reads its neighbors once per extra 64-color window. Color kernels
/// pass this (plus their own extras) as the advance substrate's
/// per-position traffic.
inline constexpr sim::Traffic kFirstFitPerNeighbor{
    static_cast<std::int64_t>(sizeof(std::int32_t)), 0};

/// Structural traffic of a bit-packed forbidden-mask mark, per NEIGHBOR: one
/// neighbor color gather plus one read-modify-write of the vertex's private
/// mask word.
inline constexpr sim::Traffic kMaskMarkPerNeighbor{
    static_cast<std::int64_t>(sizeof(std::int32_t)) +
        static_cast<std::int64_t>(sizeof(std::uint64_t)),
    static_cast<std::int64_t>(sizeof(std::uint64_t))};

/// Minimum color >= 0 not present in a degree-`degree` neighborhood, where
/// `color_of(k)` yields the k-th neighbor's color (negative = uncolored).
/// Allocation-free: each adjacency pass ORs the neighbor colors that fall
/// in one register-held 64-color window, and the sweep moves up a window
/// only when every color of the current one is taken. Most vertices
/// first-fit under color 64, so the common case is one pass with one
/// shift/OR per neighbor and no indexed store; a degree-d vertex pays at
/// most d/64 + 1 passes. The sweep is exhaustive and ascending, so the
/// answer is the exact first-fit minimum.
template <typename ColorOf>
[[nodiscard]] std::int32_t first_fit_windowed(std::int64_t degree,
                                              ColorOf&& color_of) {
  for (std::int32_t base = 0;; base += sim::kBitsPerWord) {
    std::uint64_t window = 0;
    for (std::int64_t k = 0; k < degree; ++k) {
      const std::int32_t rel = color_of(k) - base;
      if (rel >= 0 && rel < sim::kBitsPerWord) {
        window |= std::uint64_t{1} << rel;
      }
    }
    if (window != sim::kFullWord) return base + sim::min_unset_bit(window);
    // Full window: every color in [base, base + 64) is taken, which needs
    // 64 distinct neighbor colors — so the sweep ends within deg/64 + 1
    // windows and always terminates.
  }
}

/// Words needed to first-fit a degree-`degree` vertex: colors [0, degree]
/// always contain a free one, so degree/64 + 1 words suffice.
[[nodiscard]] constexpr std::size_t words_for_degree(
    std::int64_t degree) noexcept {
  return static_cast<std::size_t>(degree) /
             static_cast<std::size_t>(sim::kBitsPerWord) +
         1;
}

/// Per-vertex bit-packed forbidden masks over a whole CSR graph: vertex v
/// owns words_for_degree(deg(v)) words, laid out contiguously via a degree
/// scan (same offsets discipline as the edge-balanced advance). Building the
/// offsets costs three launches once per coloring call; per-iteration use is
/// then reset / mark / min_free on the vertex's private slice.
class ForbiddenPalette {
 public:
  ForbiddenPalette(sim::Device& device, const graph::Csr& csr)
      : offsets_(static_cast<std::size_t>(csr.num_vertices) + 1) {
    const vid_t n = csr.num_vertices;
    std::vector<std::int64_t> words(static_cast<std::size_t>(n));
    device.launch(
        "palette::words", n,
        [&](std::int64_t v) {
          words[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(
              words_for_degree(csr.degree(static_cast<vid_t>(v))));
        },
        sim::Schedule::kStatic, 0, nullptr,
        sim::Traffic{2 * static_cast<std::int64_t>(sizeof(eid_t)),
                     static_cast<std::int64_t>(sizeof(std::int64_t))});
    const std::int64_t total = sim::exclusive_scan<std::int64_t>(
        device, words, std::span(offsets_).first(static_cast<std::size_t>(n)));
    offsets_[static_cast<std::size_t>(n)] = total;
    words_.assign(static_cast<std::size_t>(total), 0);
  }

  /// Vertex v's private mask words (disjoint across vertices).
  [[nodiscard]] std::span<std::uint64_t> slice(vid_t v) noexcept {
    const auto begin = static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(v) + 1]);
    return std::span(words_).subspan(begin, end - begin);
  }

  static void reset(std::span<std::uint64_t> slice) noexcept {
    sim::simd::fill(slice, 0);
  }

  /// Marks `color` forbidden; colors outside the slice's window (negative,
  /// i.e. uncolored, or beyond deg+1 — never the first-fit answer) are
  /// ignored.
  static void mark(std::span<std::uint64_t> slice,
                   std::int32_t color) noexcept {
    if (color >= 0 &&
        color < static_cast<std::int32_t>(slice.size()) * sim::kBitsPerWord) {
      sim::set_bit(slice.data(), color);
    }
  }

  /// Minimum unmarked color; with at most deg marks in deg/64 + 1 words a
  /// free bit always exists.
  [[nodiscard]] static std::int32_t min_free(
      std::span<const std::uint64_t> slice) noexcept {
    return static_cast<std::int32_t>(sim::min_unset_bit(slice));
  }

  [[nodiscard]] std::size_t total_words() const noexcept {
    return words_.size();
  }

 private:
  std::vector<std::int64_t> offsets_;  // size n + 1
  std::vector<std::uint64_t> words_;   // size offsets_.back()
};

}  // namespace gcol::color::palette
