#pragma once
// Counter-based random numbers, the CPU analogue of cuRAND's Philox usage in
// the paper's implementations: every vertex derives its random weight purely
// from (seed, counter, vertex id), so results are reproducible regardless of
// how work is scheduled across workers — a property ordinary sequential RNGs
// lose under parallel execution.

#include <cstdint>

namespace gcol::sim {

/// SplitMix64 finalizer — a strong 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stateless counter-based generator: hash(seed, stream, counter).
/// Used wherever the paper calls `set_random()` / generateRandomNumbers.
class CounterRng {
 public:
  constexpr explicit CounterRng(std::uint64_t seed,
                                std::uint64_t stream = 0) noexcept
      : seed_(mix64(seed ^ (stream * 0xda942042e4dd58b5ULL))) {}

  /// 64 uniform bits for counter value `i` (typically a vertex id).
  [[nodiscard]] constexpr std::uint64_t bits(std::uint64_t i) const noexcept {
    return mix64(seed_ ^ mix64(i));
  }

  /// Uniform 31-bit non-negative int — matches the paper's use of random
  /// *integer* vertex weights compared with >/<.
  [[nodiscard]] constexpr std::int32_t uniform_int31(
      std::uint64_t i) const noexcept {
    return static_cast<std::int32_t>(bits(i) >> 33);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] constexpr double uniform_double(std::uint64_t i) const noexcept {
    return static_cast<double>(bits(i) >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) for bound > 0 (bias negligible for the
  /// bounds used here; the generators are not cryptographic).
  [[nodiscard]] constexpr std::uint64_t uniform_below(
      std::uint64_t i, std::uint64_t bound) const noexcept {
    return bits(i) % bound;
  }

 private:
  std::uint64_t seed_;
};

/// The per-(iteration, vertex) hash the Naumov JPL/CC baselines use instead
/// of a fixed random weight: each coloring iteration re-randomizes
/// priorities.
[[nodiscard]] constexpr std::uint32_t iteration_hash(
    std::uint64_t seed, std::uint32_t iteration, std::int64_t vertex) noexcept {
  return static_cast<std::uint32_t>(
      mix64(seed ^ (static_cast<std::uint64_t>(iteration) << 32) ^
            static_cast<std::uint64_t>(vertex)) >>
      32);
}

}  // namespace gcol::sim
