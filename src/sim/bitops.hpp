#pragma once
// Word-granular bit operations for bit-packed color palettes (and any other
// dense bitset the substrate grows). The GPU coloring literature (cuSPARSE
// csrcolor; Chen et al., "Efficient and High-quality Sparse Graph Coloring
// on the GPU") represents "forbidden colors" as 32/64-bit mask words so that
// marking a neighbor's color is one OR and finding the minimum available
// color is one ffs/popc instruction instead of a scan over an O(palette)
// array. These helpers are the CPU spellings of those instructions
// (std::countr_one == __ffs(~w) - 1), shared by core/palette.hpp and the
// fused coloring kernels.

#include <bit>
#include <cstdint>
#include <span>

#include "sim/simd.hpp"

namespace gcol::sim {

/// Colors per mask word. 64 matches the widest single-instruction ffs the
/// host offers; a window of one word covers colors [base, base + 64).
inline constexpr std::int32_t kBitsPerWord = 64;

/// All bits set: a word with no free color.
inline constexpr std::uint64_t kFullWord = ~std::uint64_t{0};

[[nodiscard]] constexpr std::size_t word_index(std::int64_t bit) noexcept {
  return static_cast<std::size_t>(bit) / kBitsPerWord;
}

[[nodiscard]] constexpr std::uint64_t bit_mask(std::int64_t bit) noexcept {
  return std::uint64_t{1} << (static_cast<std::uint64_t>(bit) %
                              kBitsPerWord);
}

/// Sets bit `bit` in a word array (no bounds check — caller clamps).
constexpr void set_bit(std::uint64_t* words, std::int64_t bit) noexcept {
  words[word_index(bit)] |= bit_mask(bit);
}

[[nodiscard]] constexpr bool test_bit(const std::uint64_t* words,
                                      std::int64_t bit) noexcept {
  return (words[word_index(bit)] & bit_mask(bit)) != 0;
}

/// Index of the lowest zero bit of `word` (64 when the word is full):
/// the "minimum unset color" instruction, one countr_one on hardware.
[[nodiscard]] constexpr std::int32_t min_unset_bit(std::uint64_t word)
    noexcept {
  return std::countr_one(word);
}

/// Lowest zero bit across a word span, or -1 when every bit is set.
/// Words are scanned in order, so the result is the global minimum
/// (simd::first_zero_bit, usable in constant expressions too).
[[nodiscard]] constexpr std::int64_t min_unset_bit(
    std::span<const std::uint64_t> words) noexcept {
  return simd::first_zero_bit(words);
}

/// Number of 64-bit words needed to hold `bits` bits.
[[nodiscard]] constexpr std::size_t words_for_bits(std::int64_t bits)
    noexcept {
  return (static_cast<std::size_t>(bits) + kBitsPerWord - 1) / kBitsPerWord;
}

/// Calls visit(bit_index) for every set bit of `word`, ascending, where
/// bit_index is `base + <bit position>`. The word-skipping inner loop of a
/// bitmap-push traversal: one countr_zero (__ffs on hardware) per set bit,
/// zero words cost a single compare.
template <typename Visit>
constexpr void visit_set_bits(std::uint64_t word, std::int64_t base,
                              Visit&& visit) {
  while (word != 0) {
    const int bit = std::countr_zero(word);
    visit(base + bit);
    word &= word - 1;  // clear lowest set bit
  }
}

/// Calls visit(bit) for every set bit of a word span, ascending, where bit
/// indices start at `base_bit` for words[0]. Zero runs are skipped with
/// simd::first_nonzero_word — the sequential spelling of visit_set_bits for
/// contiguous ranges (slot word ranges, whole-bitmap sweeps). Visit order
/// and visited set are identical to the per-word loop. The skip only
/// engages on a zero word: nonzero words pay one extra compare, so dense
/// bitmaps keep per-word-loop throughput (BM_BitmapScan measures both
/// regimes).
template <typename Visit>
void visit_set_bits_span(std::span<const std::uint64_t> words,
                         std::int64_t base_bit, Visit&& visit) {
  std::size_t w = 0;
  while (w < words.size()) {
    if (words[w] == 0) {
      const std::int64_t skip = simd::first_nonzero_word(words.subspan(w));
      if (skip < 0) return;
      w += static_cast<std::size_t>(skip);
    }
    visit_set_bits(words[w],
                   base_bit + static_cast<std::int64_t>(w) * kBitsPerWord,
                   visit);
    ++w;
  }
}

}  // namespace gcol::sim
