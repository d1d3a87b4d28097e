#pragma once
// Parallel reduction over a span — the CPU analogue of cub::DeviceReduce,
// which backs GrB_reduce and Gunrock's "are we done" checks in the paper's
// implementations. Two-phase: per-worker partial reduction inside one kernel
// launch, then a serial combine of one partial per worker. Partials live in
// the device scratch arena — no allocation per call.
//
// Traffic model (observed launches): each slot reads its block of values and
// writes one partial.

#include <cstdint>
#include <span>
#include <type_traits>

#include "sim/device.hpp"
#include "sim/scratch.hpp"
#include "sim/simd.hpp"
#include "sim/slot_range.hpp"

namespace gcol::sim {

namespace detail {
/// Per-slot modeled traffic of a block reduction over n elements of T.
template <typename T>
[[nodiscard]] inline auto reduce_traffic(std::int64_t n) {
  return [n](unsigned slot, unsigned num_slots) {
    const auto [begin, end] = slot_range(slot, num_slots, n);
    return Traffic{(end - begin) * static_cast<std::int64_t>(sizeof(T)),
                   static_cast<std::int64_t>(sizeof(T))};
  };
}
}  // namespace detail

/// Reduces `values` with `combine` starting from `identity`.
/// `combine` must be associative and commutative.
template <typename T, typename Combine>
[[nodiscard]] T reduce(Device& device, std::span<const T> values, T identity,
                       Combine combine) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0) return identity;
  const unsigned workers = device.num_workers();
  const std::span<T> partials =
      device.scratch().template get<T>(ScratchLane::kPartials, workers);
  device.launch_slots(
      "sim::reduce",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = slot_range(slot, num_slots, n);
        T acc = identity;
        for (std::int64_t i = begin; i < end; ++i) {
          acc = combine(acc, values[static_cast<std::size_t>(i)]);
        }
        partials[slot] = acc;
      },
      nullptr, detail::reduce_traffic<T>(n));
  T result = identity;
  for (const T& partial : partials) result = combine(result, partial);
  return result;
}

/// Sum reduction. 64-bit integer spans run each slot's partial through the
/// wrapping simd::sum_span; the kernel keeps the "sim::reduce" launch name
/// either way, so per-kernel stats stay comparable across element types.
template <typename T>
[[nodiscard]] T reduce_sum(Device& device, std::span<const T> values) {
  if constexpr (std::is_integral_v<T> && sizeof(T) == sizeof(std::uint64_t)) {
    const auto n = static_cast<std::int64_t>(values.size());
    if (n == 0) return T{0};
    const unsigned workers = device.num_workers();
    const std::span<T> partials =
        device.scratch().template get<T>(ScratchLane::kPartials, workers);
    device.launch_slots(
        "sim::reduce",
        [&](unsigned slot, unsigned num_slots) {
          const auto [begin, end] = slot_range(slot, num_slots, n);
          partials[slot] = simd::sum_span<T>(
              values.subspan(static_cast<std::size_t>(begin),
                             static_cast<std::size_t>(end - begin)));
        },
        nullptr, detail::reduce_traffic<T>(n));
    T result{0};
    for (const T& partial : partials) result = static_cast<T>(result + partial);
    return result;
  } else {
    return reduce<T>(device, values, T{0},
                     [](T a, T b) { return static_cast<T>(a + b); });
  }
}

template <typename T>
[[nodiscard]] T reduce_max(Device& device, std::span<const T> values,
                           T identity) {
  return reduce<T>(device, values, identity,
                   [](T a, T b) { return b > a ? b : a; });
}

template <typename T>
[[nodiscard]] T reduce_min(Device& device, std::span<const T> values,
                           T identity) {
  return reduce<T>(device, values, identity,
                   [](T a, T b) { return b < a ? b : a; });
}

/// Counts elements satisfying `pred` — e.g. "how many vertices are colored",
/// the loop-termination test in Gunrock's enactor.
template <typename T, typename Pred>
[[nodiscard]] std::int64_t count_if(Device& device, std::span<const T> values,
                                    Pred pred) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0) return 0;
  const std::span<std::int64_t> partials =
      device.scratch().template get<std::int64_t>(ScratchLane::kPartials,
                                                  device.num_workers());
  device.launch_slots(
      "sim::count_if",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = slot_range(slot, num_slots, n);
        std::int64_t local = 0;
        for (std::int64_t i = begin; i < end; ++i) {
          if (pred(values[static_cast<std::size_t>(i)])) ++local;
        }
        partials[slot] = local;
      },
      nullptr, detail::reduce_traffic<T>(n));
  std::int64_t total = 0;
  for (const std::int64_t partial : partials) total += partial;
  return total;
}

}  // namespace gcol::sim
