#pragma once
// Vertex frontiers — the central data structure of Gunrock's data-centric
// abstraction (paper §III-B): "operations on vertex or edge frontiers".
//
// Three representations:
//   - the implicit full vertex set;
//   - an explicit compacted vertex list produced by filter (the speculative
//     and distance-2 colorers' conflict lists);
//   - a dense *bitmap*, one bit per vertex in 64-bit words (Gunrock's
//     direction-optimized frontiers; GraphBLAST's dense masks). The four
//     frontier colorers run on it: rebuilding a bitmap frontier is a
//     word-wise pass — no scan, no scatter — and membership is one bit
//     test, which is what makes pull traversal cheap.
//
// FrontierMode is the direction policy a bitmap frontier carries: operators
// consult it to decide how to traverse (push = iterate set bits, pull =
// test membership over all vertices, auto = pick per launch from frontier
// occupancy).

#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/types.hpp"
#include "sim/bitops.hpp"

namespace gcol::gr {

/// Bitmap traversal policy (the Table-II direction ablation knob).
enum class FrontierMode {
  kBitmapPush,  ///< bitmap, always iterate set bits (word-skipping)
  kBitmapPull,  ///< bitmap, always full-pass membership tests
  kAuto,        ///< bitmap, per-launch occupancy-adaptive push/pull
};

[[nodiscard]] constexpr const char* to_string(FrontierMode mode) noexcept {
  switch (mode) {
    case FrontierMode::kBitmapPush: return "bitmap-push";
    case FrontierMode::kBitmapPull: return "bitmap-pull";
    case FrontierMode::kAuto: return "auto";
  }
  return "?";
}

/// Parses the spelling to_string produces; returns false on no match.
inline bool parse_frontier_mode(std::string_view text, FrontierMode& mode) {
  if (text == "bitmap-push") mode = FrontierMode::kBitmapPush;
  else if (text == "bitmap-pull") mode = FrontierMode::kBitmapPull;
  else if (text == "auto") mode = FrontierMode::kAuto;
  else return false;
  return true;
}

class Frontier {
 public:
  /// The implicit frontier containing every vertex of an n-vertex graph.
  [[nodiscard]] static Frontier all(vid_t num_vertices) {
    Frontier f;
    f.num_vertices_ = num_vertices;
    f.kind_ = Kind::kImplicitAll;
    return f;
  }

  /// An explicit frontier. `vertices` must contain valid ids < num_vertices.
  [[nodiscard]] static Frontier of(std::vector<vid_t> vertices,
                                   vid_t num_vertices) {
    Frontier f;
    f.num_vertices_ = num_vertices;
    f.kind_ = Kind::kList;
    f.vertices_ = std::move(vertices);
    return f;
  }

  /// An empty frontier over an n-vertex graph.
  [[nodiscard]] static Frontier empty(vid_t num_vertices) {
    return of({}, num_vertices);
  }

  /// A full bitmap frontier (every bit set, tail bits of the last word
  /// zero). `mode` records the traversal policy for downstream operators.
  [[nodiscard]] static Frontier all_bits(vid_t num_vertices,
                                         FrontierMode mode) {
    std::vector<std::uint64_t> words(sim::words_for_bits(num_vertices),
                                     sim::kFullWord);
    const std::int64_t tail =
        static_cast<std::int64_t>(num_vertices) % sim::kBitsPerWord;
    if (!words.empty() && tail != 0) {
      words.back() = sim::kFullWord >> (sim::kBitsPerWord - tail);
    }
    return bits(std::move(words), num_vertices, num_vertices, mode);
  }

  /// A bitmap frontier from a word buffer. `count` must equal the popcount
  /// of `words` and bits >= num_vertices must be clear; `words` must hold
  /// exactly words_for_bits(num_vertices) entries.
  [[nodiscard]] static Frontier bits(std::vector<std::uint64_t> words,
                                     std::int64_t count, vid_t num_vertices,
                                     FrontierMode mode) {
    assert(words.size() == sim::words_for_bits(num_vertices));
    Frontier f;
    f.num_vertices_ = num_vertices;
    f.kind_ = Kind::kBitmap;
    f.words_ = std::move(words);
    f.count_ = count;
    f.mode_ = mode;
    return f;
  }

  [[nodiscard]] vid_t num_vertices() const noexcept { return num_vertices_; }

  [[nodiscard]] bool is_all() const noexcept {
    return kind_ == Kind::kImplicitAll;
  }

  [[nodiscard]] bool is_bitmap() const noexcept {
    return kind_ == Kind::kBitmap;
  }

  /// Traversal policy knob; meaningful for bitmap frontiers only.
  [[nodiscard]] FrontierMode mode() const noexcept { return mode_; }

  [[nodiscard]] std::int64_t size() const noexcept {
    switch (kind_) {
      case Kind::kImplicitAll: return num_vertices_;
      case Kind::kList: return static_cast<std::int64_t>(vertices_.size());
      case Kind::kBitmap: return count_;
    }
    return 0;
  }

  [[nodiscard]] bool is_empty() const noexcept { return size() == 0; }

  /// The i-th active vertex (implicit / list frontiers only — a bitmap has
  /// no O(1) rank-to-vertex map; traverse it with for_each or the push
  /// schedule instead).
  [[nodiscard]] vid_t vertex(std::int64_t i) const noexcept {
    assert(kind_ != Kind::kBitmap);
    return kind_ == Kind::kImplicitAll ? static_cast<vid_t>(i)
                                       : vertices_[static_cast<std::size_t>(i)];
  }

  /// Membership test: one bit probe on bitmaps, constant-true on implicit
  /// frontiers (list frontiers have no O(1) test and assert).
  [[nodiscard]] bool contains(vid_t v) const noexcept {
    assert(kind_ != Kind::kList);
    return kind_ == Kind::kImplicitAll || sim::test_bit(words_.data(), v);
  }

  /// The bitmap words (bitmap frontiers only).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    assert(kind_ == Kind::kBitmap);
    return words_;
  }

  /// Steals the word buffer, leaving the frontier empty — the double-
  /// buffering handshake: a filter loop recycles the outgoing frontier's
  /// allocation as the next rebuild's output. Word contents are unspecified
  /// afterwards — rebuilds overwrite every word.
  [[nodiscard]] std::vector<std::uint64_t> release_words() noexcept {
    std::vector<std::uint64_t> buffer = std::move(words_);
    words_.clear();
    count_ = 0;
    return buffer;
  }

  /// Host-side iteration over the active vertices in ascending order (lists
  /// are visited in list order), without materializing a vector — the fast
  /// path for call sites that previously paid to_vector()'s iota/gather
  /// allocation just to loop.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    switch (kind_) {
      case Kind::kImplicitAll:
        for (vid_t v = 0; v < num_vertices_; ++v) visit(v);
        return;
      case Kind::kList:
        for (const vid_t v : vertices_) visit(v);
        return;
      case Kind::kBitmap:
        sim::visit_set_bits_span(
            words_, 0,
            [&](std::int64_t bit) { visit(static_cast<vid_t>(bit)); });
        return;
    }
  }

  /// Materialized vertex list (allocates for implicit-all and bitmap
  /// frontiers; prefer for_each when only iterating).
  [[nodiscard]] std::vector<vid_t> to_vector() const {
    if (kind_ == Kind::kList) return vertices_;
    std::vector<vid_t> v;
    v.reserve(static_cast<std::size_t>(size()));
    for_each([&](vid_t u) { v.push_back(u); });
    return v;
  }

 private:
  enum class Kind { kImplicitAll, kList, kBitmap };

  Frontier() = default;
  vid_t num_vertices_ = 0;
  Kind kind_ = Kind::kList;
  FrontierMode mode_ = FrontierMode::kAuto;
  std::vector<vid_t> vertices_;
  std::vector<std::uint64_t> words_;
  std::int64_t count_ = 0;
};

}  // namespace gcol::gr
