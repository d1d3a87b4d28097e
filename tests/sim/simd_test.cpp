#include "sim/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sim/bitops.hpp"

// Property tests for the word-loop verbs: every verb must agree with a
// per-bit scalar model built from bitops' single-word helpers (test_bit /
// set_bit / bit_mask — one bit per step, no word-level shortcut) on
// randomized spans: lengths 0..257, unaligned base offsets (nothing may
// assume 16/32-byte alignment), and word mixes biased toward the all-zero
// and all-ones words the search verbs stop or skip on. "Scalar" in the test
// names means that per-bit model.

namespace gcol::sim::simd {
namespace {

constexpr std::size_t kMaxLength = 257;
constexpr std::size_t kMaxOffset = 3;  // words, to exercise unaligned bases

/// Word generator biased toward the special values: ~1/4 all-zero, ~1/4
/// all-ones, rest uniform — zero runs and full runs are exactly what the
/// search verbs stop or skip on.
std::uint64_t random_word(std::mt19937_64& rng) {
  switch (rng() & 3u) {
    case 0: return 0;
    case 1: return kFullWord;
    default: return rng();
  }
}

/// A buffer whose usable span starts `offset` words into the allocation, so
/// the span base is not 16/32-byte aligned for odd offsets.
std::vector<std::uint64_t> random_buffer(std::mt19937_64& rng,
                                         std::size_t length,
                                         std::size_t offset) {
  std::vector<std::uint64_t> buffer(length + offset);
  for (auto& word : buffer) word = random_word(rng);
  return buffer;
}

// ---------------------------------------------------------------------------
// Per-bit models of the verbs.
// ---------------------------------------------------------------------------

std::int64_t bit_count(std::span<const std::uint64_t> words) {
  return static_cast<std::int64_t>(words.size()) * kBitsPerWord;
}

std::int64_t model_first_zero_bit(std::span<const std::uint64_t> words) {
  for (std::int64_t bit = 0; bit < bit_count(words); ++bit) {
    if (!test_bit(words.data(), bit)) return bit;
  }
  return -1;
}

std::int64_t model_first_nonzero_word(std::span<const std::uint64_t> words) {
  for (std::int64_t bit = 0; bit < bit_count(words); ++bit) {
    if (test_bit(words.data(), bit)) {
      return static_cast<std::int64_t>(word_index(bit));
    }
  }
  return -1;
}

std::int64_t model_popcount(std::span<const std::uint64_t> words) {
  std::int64_t total = 0;
  for (std::int64_t bit = 0; bit < bit_count(words); ++bit) {
    total += test_bit(words.data(), bit) ? 1 : 0;
  }
  return total;
}

/// Wrapping sum as Σ 2^(bit % 64) over the set bits.
std::uint64_t model_sum(std::span<const std::uint64_t> words) {
  std::uint64_t total = 0;
  for (std::int64_t bit = 0; bit < bit_count(words); ++bit) {
    if (test_bit(words.data(), bit)) total += bit_mask(bit);
  }
  return total;
}

/// The words whose bit b is set iff `pred(b)` holds.
template <typename Pred>
std::vector<std::uint64_t> model_words(std::size_t length, Pred&& pred) {
  std::vector<std::uint64_t> words(length, 0);
  for (std::int64_t bit = 0; bit < bit_count(words); ++bit) {
    if (pred(bit)) set_bit(words.data(), bit);
  }
  return words;
}

TEST(SimdTest, SearchAndReduceVerbsMatchScalar) {
  std::mt19937_64 rng(20260807);
  for (std::size_t length = 0; length <= kMaxLength; ++length) {
    const std::size_t offset = length % (kMaxOffset + 1);
    const std::vector<std::uint64_t> buffer =
        random_buffer(rng, length, offset);
    const std::span<const std::uint64_t> words =
        std::span(buffer).subspan(offset, length);

    EXPECT_EQ(first_zero_bit(words), model_first_zero_bit(words))
        << "length " << length;
    EXPECT_EQ(first_nonzero_word(words), model_first_nonzero_word(words))
        << "length " << length;
    EXPECT_EQ(popcount(words), model_popcount(words)) << "length " << length;
    EXPECT_EQ(sum(words), model_sum(words)) << "length " << length;
  }
}

TEST(SimdTest, SearchVerbsOnHomogeneousSpans) {
  for (std::size_t length = 0; length <= kMaxLength; ++length) {
    const std::vector<std::uint64_t> zeros(length, 0);
    const std::vector<std::uint64_t> ones(length, kFullWord);
    const std::span<const std::uint64_t> z(zeros), o(ones);

    // All-empty: no zero run to skip past, first free bit is bit 0.
    EXPECT_EQ(first_nonzero_word(z), -1);
    EXPECT_EQ(first_zero_bit(z), length == 0 ? -1 : 0);
    EXPECT_EQ(popcount(z), 0);
    // All-full: no free bit anywhere — the -1 the palette combine relies on.
    EXPECT_EQ(first_zero_bit(o), -1);
    EXPECT_EQ(first_nonzero_word(o), length == 0 ? -1 : 0);
    EXPECT_EQ(popcount(o), static_cast<std::int64_t>(length) * 64);
  }
}

TEST(SimdTest, FirstZeroBitPinpointsSingleHole) {
  // One cleared bit in an otherwise full span, swept across every word and
  // several bit positions: the search must land exactly there.
  for (std::size_t length = 1; length <= 9; ++length) {
    for (std::size_t hole_word = 0; hole_word < length; ++hole_word) {
      for (const int hole_bit : {0, 1, 31, 62, 63}) {
        std::vector<std::uint64_t> words(length, kFullWord);
        words[hole_word] &= ~(std::uint64_t{1} << hole_bit);
        const std::int64_t expected =
            static_cast<std::int64_t>(hole_word) * 64 + hole_bit;
        EXPECT_EQ(first_zero_bit(words), expected);
        EXPECT_EQ(model_first_zero_bit(words), expected);
      }
    }
  }
}

TEST(SimdTest, MutatingVerbsMatchScalar) {
  std::mt19937_64 rng(42);
  for (std::size_t length = 0; length <= kMaxLength; ++length) {
    const std::size_t offset = (length + 1) % (kMaxOffset + 1);
    const std::vector<std::uint64_t> dst_buffer =
        random_buffer(rng, length, offset);
    const std::vector<std::uint64_t> src_buffer =
        random_buffer(rng, length, offset);
    const std::uint64_t* dst = dst_buffer.data() + offset;
    const std::span<const std::uint64_t> src =
        std::span(src_buffer).subspan(offset, length);

    // Runs `verb` in place on the unaligned span of a copy of dst_buffer and
    // returns the whole buffer: the words before the span must not move.
    const auto applied = [&](auto&& verb) {
      std::vector<std::uint64_t> got = dst_buffer;
      verb(std::span(got).subspan(offset, length));
      return got;
    };
    const auto expected = [&](auto&& pred) {
      std::vector<std::uint64_t> want = dst_buffer;
      want.resize(offset);
      const std::vector<std::uint64_t> tail = model_words(length, pred);
      want.insert(want.end(), tail.begin(), tail.end());
      return want;
    };

    const auto or_model = [&](std::int64_t bit) {
      return test_bit(dst, bit) || test_bit(src.data(), bit);
    };
    EXPECT_EQ(applied([&](std::span<std::uint64_t> d) { or_into(d, src); }),
              expected(or_model))
        << "or_into length " << length;

    const std::uint64_t value = random_word(rng);
    const auto fill_model = [&](std::int64_t bit) {
      return test_bit(&value, bit % kBitsPerWord);
    };
    EXPECT_EQ(applied([&](std::span<std::uint64_t> d) { fill(d, value); }),
              expected(fill_model))
        << "fill length " << length;
  }
}

TEST(SimdTest, SumBytesMatchesScalarOnFlagsAndRandomBytes) {
  std::mt19937_64 rng(99);
  for (std::size_t length = 0; length <= kMaxLength; ++length) {
    // Byte offsets 0..7 exercise every misalignment of the span base.
    const std::size_t offset = length % 8;
    std::vector<std::uint8_t> buffer(length + offset);
    for (auto& byte : buffer) {
      // Half the rounds use compact-style 0/1 flags, half arbitrary bytes
      // (sum_bytes must not assume flag semantics).
      byte = static_cast<std::uint8_t>((length & 1) ? (rng() & 1)
                                                    : (rng() & 0xFF));
    }
    const std::span<const std::uint8_t> bytes =
        std::span(buffer).subspan(offset, length);
    // Per-bit model: each set bit b of a byte contributes 2^b.
    std::int64_t want = 0;
    for (const std::uint8_t byte : bytes) {
      const std::uint64_t word = byte;
      for (std::int64_t bit = 0; bit < 8; ++bit) {
        if (test_bit(&word, bit)) want += std::int64_t{1} << bit;
      }
    }
    EXPECT_EQ(sum_bytes(bytes), want) << "length " << length;
  }
}

TEST(SimdTest, SumSpanMatchesSequentialAccumulationFor64BitIntegers) {
  std::mt19937_64 rng(3);
  for (std::size_t length = 0; length <= kMaxLength; length += 7) {
    std::vector<std::int64_t> values(length);
    for (auto& value : values) {
      value = static_cast<std::int64_t>(rng());  // full range, incl. negative
    }
    std::int64_t want = 0;
    for (const std::int64_t value : values) {
      want = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(want) + static_cast<std::uint64_t>(value));
    }
    EXPECT_EQ(sum_span<std::int64_t>(values), want) << "length " << length;
  }
}

TEST(SimdTest, MinUnsetBitSpanDispatchKeepsItsSemantics) {
  // bitops::min_unset_bit(span) routes through first_zero_bit and must keep
  // the documented span semantics (palette_test.cpp depends on them): -1
  // for empty and all-full spans, global minimum otherwise — and it must
  // still be usable in constant expressions.
  static_assert(min_unset_bit(std::span<const std::uint64_t>{}) == -1);
  EXPECT_EQ(min_unset_bit(std::span<const std::uint64_t>{}), -1);
  const std::vector<std::uint64_t> full(3, kFullWord);
  EXPECT_EQ(min_unset_bit(std::span<const std::uint64_t>(full)), -1);
  const std::vector<std::uint64_t> holey{kFullWord, kFullWord,
                                         ~(std::uint64_t{1} << 5)};
  EXPECT_EQ(min_unset_bit(std::span<const std::uint64_t>(holey)), 2 * 64 + 5);
}

TEST(SimdTest, VisitSetBitsSpanMatchesPerWordVisit) {
  std::mt19937_64 rng(11);
  for (std::size_t length = 0; length <= 65; ++length) {
    std::vector<std::uint64_t> words(length);
    for (auto& word : words) word = random_word(rng);
    std::vector<std::int64_t> got, want;
    visit_set_bits_span(words, 1000,
                        [&](std::int64_t bit) { got.push_back(bit); });
    for (std::size_t w = 0; w < length; ++w) {
      visit_set_bits(words[w], 1000 + static_cast<std::int64_t>(w) * 64,
                     [&](std::int64_t bit) { want.push_back(bit); });
    }
    EXPECT_EQ(got, want) << "length " << length;
  }
}

TEST(SimdTest, ArchShimsAreCallable) {
  // prefetch and cpu_relax are hints: nothing observable to assert beyond
  // "does not crash", including on a null-adjacent address prefetch never
  // dereferences.
  const std::uint64_t word = 0;
  prefetch(&word);
  cpu_relax();
  SUCCEED();
}

}  // namespace
}  // namespace gcol::sim::simd
