#pragma once
// Word-loop verbs of the virtual GPU — the handful of span operations the
// substrate's hot loops share (bit-packed forbidden-color palettes, bitmap
// frontiers, the scan/reduce/compact primitives): fill, wordwise OR,
// first-zero-bit search, first-nonzero-word skip, popcount-accumulate and
// wrapping sums. Each is a plain one-word-per-step loop; the compiler is free
// to vectorize it. Every verb is exact, so how it is compiled changes wall
// time and nothing else.
//
// The speed of the paper's algorithms comes from launches, passes over edges
// and atomics, not from vector width: hand-written SSE2/AVX2/NEON bodies of
// these verbs measured no better end to end than these loops (DESIGN.md §3f,
// EXPERIMENTS.md), so there is one implementation and no backend option.
//
// The header also hosts the two architecture shims the substrate needs:
// sim::prefetch (software prefetch ahead of scattered CSR gathers —
// __builtin_prefetch where available, no-op otherwise) and sim::cpu_relax
// (the spin-wait pause: _mm_pause on x86, yield on ARM, a compiler fence
// elsewhere).

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || \
    defined(_M_IX86)
#include <immintrin.h>
#define GCOL_ARCH_X86 1
#endif

namespace gcol::sim {

/// Software prefetch of the cache line holding `address` (read intent,
/// keep in all cache levels). The shim behind the prefetched CSR gathers:
/// adjacency walks issue this kGatherPrefetchDistance elements ahead of the
/// scattered load (colors[col_idx[k + D]] and row_ptr[frontier[i + D]]),
/// so the miss overlaps the work on the current element. No-op where the
/// builtin is unavailable.
inline void prefetch(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

/// How many elements ahead the CSR gather loops prefetch. Chosen from the
/// bench_micro_primitives prefetch-distance sweep (see EXPERIMENTS.md): far
/// enough to cover a memory load under the per-edge work of a mask OR or a
/// color read, near enough that the line is still resident when the loop
/// arrives.
inline constexpr std::int64_t kGatherPrefetchDistance = 16;

/// One spin-wait backoff step: tells the core a peer owns the line we are
/// polling. _mm_pause on x86, `yield` on ARM (32- and 64-bit), a compiler
/// fence elsewhere — the portable spelling of the pause instruction
/// thread_pool.cpp's spin phases sit in.
inline void cpu_relax() noexcept {
#if defined(GCOL_ARCH_X86)
  _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

namespace simd {

/// dst[i] = value for every word of dst.
constexpr void fill(std::span<std::uint64_t> dst,
                    std::uint64_t value) noexcept {
  for (std::uint64_t& word : dst) word = value;
}

/// dst[i] |= src[i]. Spans must be equally sized (and must not partially
/// overlap; dst == src is fine).
constexpr void or_into(std::span<std::uint64_t> dst,
                       std::span<const std::uint64_t> src) noexcept {
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] |= src[i];
}

/// Global index of the lowest ZERO bit across the span (the "minimum unset
/// color" search), or -1 when every bit is set. Words are scanned in
/// ascending order, so the result is the global minimum.
[[nodiscard]] constexpr std::int64_t first_zero_bit(
    std::span<const std::uint64_t> words) noexcept {
  for (std::size_t w = 0; w < words.size(); ++w) {
    if (words[w] != ~std::uint64_t{0}) {
      return static_cast<std::int64_t>(w) * 64 + std::countr_one(words[w]);
    }
  }
  return -1;
}

/// Index of the first word != 0 (the zero-run skip of a sparse bitmap
/// traversal), or -1 when the span is all zero.
[[nodiscard]] constexpr std::int64_t first_nonzero_word(
    std::span<const std::uint64_t> words) noexcept {
  for (std::size_t w = 0; w < words.size(); ++w) {
    if (words[w] != 0) return static_cast<std::int64_t>(w);
  }
  return -1;
}

/// Total set bits across the span (popcount-accumulate).
[[nodiscard]] constexpr std::int64_t popcount(
    std::span<const std::uint64_t> words) noexcept {
  std::int64_t total = 0;
  for (const std::uint64_t word : words) total += std::popcount(word);
  return total;
}

/// Wrapping sum of the words (unsigned overflow is defined, and matches
/// two's-complement signed accumulation bit-for-bit — which is why the
/// int64 scan/reduce partials can run through this verb).
[[nodiscard]] constexpr std::uint64_t sum(
    std::span<const std::uint64_t> values) noexcept {
  std::uint64_t acc = 0;
  for (const std::uint64_t value : values) acc += value;
  return acc;
}

/// Sum of a byte span — the flag-count of a compaction pass (flags are
/// 0/1 bytes, so the sum is the kept count).
[[nodiscard]] constexpr std::int64_t sum_bytes(
    std::span<const std::uint8_t> bytes) noexcept {
  std::int64_t acc = 0;
  for (const std::uint8_t byte : bytes) acc += byte;
  return acc;
}

/// Wrapping sum over a span of any element type, routed through the 64-bit
/// sum when the element is a 64-bit integer (signed accumulation is
/// bit-identical under two's complement — signed/unsigned pairs may alias).
/// The scan/reduce partials phases stream through this.
template <typename T>
[[nodiscard]] T sum_span(std::span<const T> values) noexcept {
  if constexpr (std::is_integral_v<T> && sizeof(T) == sizeof(std::uint64_t)) {
    return static_cast<T>(
        sum(std::span<const std::uint64_t>(
            reinterpret_cast<const std::uint64_t*>(values.data()),
            values.size())));
  } else {
    T acc{0};
    for (const T& value : values) acc = static_cast<T>(acc + value);
    return acc;
  }
}

}  // namespace simd
}  // namespace gcol::sim
