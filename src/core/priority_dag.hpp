#pragma once
// Work-efficient Jones-Plassmann rounds: the coloring runs as a priority DAG
// with one dependency count per vertex (Hasenplaugh et al., "Ordering
// Heuristics for Parallel Graph Coloring", SPAA 2014; the data-driven
// worklist of Chen et al., arXiv 1606.06025) instead of rescanning every
// uncolored vertex's neighborhood each round.
//
// cnt[v] holds how many of v's neighbors outrank it and are still
// uncolored. One count launch fills cnt and the first ready bitmap (the
// cnt == 0 vertices). Each round is then one launch over the ready bitmap:
// a ready vertex colors itself and decrements the count of every neighbor
// it outranks, and a neighbor whose count reaches 0 joins the next bitmap.
// A vertex still colors in the round after its last outranking neighbor,
// so colors and round counts equal the rescanning formulation's, while the
// edge work drops from O(m x rounds) to O(m) and each round costs one
// launch instead of a compute plus a filter.
//
// A round is race-free: ready vertices are pairwise non-adjacent (of two
// adjacent vertices, the outranked one waits for the other), so no vertex
// reads a color another writes in the same launch, and the decrements and
// bit ORs on shared counts and words are atomic and commute.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/result.hpp"
#include "gunrock/enactor.hpp"
#include "sim/bitops.hpp"
#include "sim/bitscan.hpp"
#include "sim/device.hpp"
#include "sim/scratch.hpp"
#include "sim/simd.hpp"
#include "sim/slot_range.hpp"

namespace gcol::color {

/// A round with at most this many ready vertices runs as a one-item launch,
/// which the device executes on the launching thread (kInlineLaunchItems):
/// such a round's work is too small to pay for the worker barrier.
inline constexpr std::int64_t kSerialRoundReady = 64;

namespace detail {
inline constexpr std::int64_t kWordBytes = sizeof(std::uint64_t);
inline constexpr std::int64_t kTallyBytes = sizeof(std::int64_t);
}  // namespace detail

/// Kernel and phase names of one priority-DAG colorer (static strings).
struct PriorityDagNames {
  const char* round;  ///< the enactor's per-round phase span
  const char* count;  ///< the dependency-count launch
  const char* color;  ///< the per-round color-and-release launch
};

/// Colors result.colors (all kUncolored, n > 0) on the enactor.
/// `count_of(v)` returns how many times v's neighborhood walk visits a
/// vertex that outranks v. `color_one(v, release)` colors v from its
/// colored (higher-priority) neighborhood and calls release(u) once per
/// visit of each uncolored (lower-priority) u; its walk must visit u from v
/// as many times as u's walk visits v, so every count reaches 0 exactly
/// once. Launches: one count pass plus one per round.
template <typename CountOf, typename ColorOne>
void color_priority_dag(sim::Device& device, Coloring& result,
                        std::int32_t max_iterations,
                        const PriorityDagNames& names, CountOf count_of,
                        ColorOne color_one) {
  const auto n = static_cast<std::int64_t>(result.colors.size());
  const auto num_words = static_cast<std::int64_t>(sim::words_for_bits(n));
  const auto cnt = std::make_unique_for_overwrite<std::int32_t[]>(
      static_cast<std::size_t>(n));
  std::vector<std::uint64_t> ready(static_cast<std::size_t>(num_words));
  std::vector<std::uint64_t> next(static_cast<std::size_t>(num_words));
  const unsigned workers = device.num_workers();
  const std::span<std::int64_t> tallies = device.scratch().get<std::int64_t>(
      sim::ScratchLane::kSlotCounts, workers);
  const auto sum_tallies = [&] {
    std::int64_t total = 0;
    for (unsigned slot = 0; slot < workers; ++slot) total += tallies[slot];
    return total;
  };

  gr::Enactor enactor(device, result, max_iterations);
  // Word-owner count pass: each slot writes its own ready words and counts.
  device.launch_slots(
      names.count,
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, num_words);
        std::int64_t local = 0;
        for (std::int64_t w = begin; w < end; ++w) {
          const std::int64_t base = w * sim::kBitsPerWord;
          const std::int64_t limit =
              std::min<std::int64_t>(sim::kBitsPerWord, n - base);
          std::uint64_t word = 0;
          for (std::int64_t b = 0; b < limit; ++b) {
            const std::int32_t c = count_of(static_cast<vid_t>(base + b));
            cnt[static_cast<std::size_t>(base + b)] = c;
            if (c == 0) word |= std::uint64_t{1} << b;
          }
          ready[static_cast<std::size_t>(w)] = word;
          local += std::popcount(word);
        }
        tallies[slot] = local;
      },
      nullptr, [n, num_words](unsigned slot, unsigned num_slots) {
        // Row offsets in, one count per vertex and the ready words out; the
        // neighbor priority gathers are data-dependent and excluded.
        const auto [begin, end] = sim::slot_range(slot, num_slots, num_words);
        const std::int64_t vertices =
            std::min(end * sim::kBitsPerWord, n) -
            std::min(begin * sim::kBitsPerWord, n);
        return sim::Traffic{
            vertices * 2 * static_cast<std::int64_t>(sizeof(eid_t)),
            vertices * static_cast<std::int64_t>(sizeof(std::int32_t)) +
                (end - begin) * detail::kWordBytes + detail::kTallyBytes};
      });
  std::int64_t frontier = sum_tallies();

  // Colors the ready vertices of words [begin, end), clears those words
  // for reuse as a later round's next bitmap, and returns how many
  // vertices its releases made ready. A shared sweep runs beside other
  // slots, so its decrements and bit ORs are atomic; the one-item launch
  // runs alone on the launching thread and needs neither.
  const auto sweep = [&](std::int64_t begin, std::int64_t end, auto shared) {
    std::int64_t released = 0;
    const auto release = [&](vid_t u) {
      std::int32_t& count = cnt[static_cast<std::size_t>(u)];
      std::uint64_t& word = next[sim::word_index(u)];
      if constexpr (decltype(shared)::value) {
        if (std::atomic_ref<std::int32_t>(count).fetch_sub(
                1, std::memory_order_relaxed) != 1) {
          return;
        }
        std::atomic_ref<std::uint64_t>(word).fetch_or(
            sim::bit_mask(u), std::memory_order_relaxed);
      } else {
        if (--count != 0) return;
        word |= sim::bit_mask(u);
      }
      ++released;
    };
    const std::span<const std::uint64_t> words(ready);
    for (std::int64_t w = begin; w < end; ++w) {
      const std::int64_t skip = sim::simd::first_nonzero_word(
          words.subspan(static_cast<std::size_t>(w),
                        static_cast<std::size_t>(end - w)));
      if (skip < 0) break;
      w += skip;
      const std::uint64_t word = ready[static_cast<std::size_t>(w)];
      ready[static_cast<std::size_t>(w)] = 0;
      sim::visit_set_bits(word, w * sim::kBitsPerWord, [&](std::int64_t v) {
        color_one(static_cast<vid_t>(v), release);
      });
    }
    return released;
  };

  std::int64_t colored = 0;
  enactor.run(names.round, [&](std::int32_t) {
    std::int64_t released = 0;
    if (frontier <= kSerialRoundReady || workers == 1) {
      device.launch(
          names.color, 1,
          [&](std::int64_t) {
            released = sweep(0, num_words, std::false_type{});
          },
          sim::Schedule::kStatic, 0, nullptr,
          sim::Traffic{num_words * detail::kWordBytes, 0});
    } else {
      device.launch_slots(
          names.color,
          [&](unsigned slot, unsigned num_slots) {
            const auto [begin, end] =
                sim::slot_range(slot, num_slots, num_words);
            tallies[slot] = sweep(begin, end, std::true_type{});
          },
          nullptr, [num_words](unsigned slot, unsigned num_slots) {
            // The slot's ready words in and its tally out; the colors,
            // counts and next words it touches are data-dependent.
            const auto [begin, end] =
                sim::slot_range(slot, num_slots, num_words);
            return sim::Traffic{(end - begin) * detail::kWordBytes,
                                detail::kTallyBytes};
          });
      released = sum_tallies();
    }
    colored += frontier;
    frontier = released;
    ready.swap(next);
    return colored;
  });
}

}  // namespace gcol::color
