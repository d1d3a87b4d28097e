#pragma once
// Parallel prefix sums — the CPU analogue of cub::DeviceScan. Scans back
// frontier compaction and CSR construction, just as they do in Gunrock and
// GraphBLAST on the GPU.
//
// Three-phase scheme (the classic GPU decomposition):
//   1. one launch ("sim::scan_partials"): each worker sums its block,
//   2. serial exclusive scan over the per-worker sums,
//   3. one launch ("sim::scan_apply"): each worker scans its block seeded
//      with its offset.
// The per-worker block sums live in the device scratch arena, so a scan in a
// hot loop performs no allocation.
//
// Traffic model (observed launches): scan_partials reads its block and
// writes one block sum; scan_apply reads its block plus its seed and writes
// the block back out. The serial small-n/1-worker fallback issues no launch
// and therefore models nothing.

#include <cstdint>
#include <span>

#include "sim/device.hpp"
#include "sim/scratch.hpp"
#include "sim/simd.hpp"
#include "sim/slot_range.hpp"

namespace gcol::sim {

namespace detail {
/// Per-slot modeled traffic of the two scan phases over n elements of T.
template <typename T>
[[nodiscard]] inline auto scan_partials_traffic(std::int64_t n) {
  return [n](unsigned slot, unsigned num_slots) {
    const auto [begin, end] = slot_range(slot, num_slots, n);
    constexpr auto kElem = static_cast<std::int64_t>(sizeof(T));
    return Traffic{(end - begin) * kElem, kElem};
  };
}
template <typename T>
[[nodiscard]] inline auto scan_apply_traffic(std::int64_t n) {
  return [n](unsigned slot, unsigned num_slots) {
    const auto [begin, end] = slot_range(slot, num_slots, n);
    constexpr auto kElem = static_cast<std::int64_t>(sizeof(T));
    return Traffic{(end - begin) * kElem + kElem, (end - begin) * kElem};
  };
}
}  // namespace detail

/// Exclusive prefix sum: out[i] = sum of in[0..i). `out` may alias `in`.
/// Returns the total sum of `in`.
template <typename T>
T exclusive_scan(Device& device, std::span<const T> in, std::span<T> out) {
  const auto n = static_cast<std::int64_t>(in.size());
  if (n == 0) return T{0};
  const unsigned workers = device.num_workers();
  if (workers == 1 || n < 1024) {
    T acc{0};
    for (std::int64_t i = 0; i < n; ++i) {
      const T value = in[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i)] = acc;
      acc = static_cast<T>(acc + value);
    }
    return acc;
  }

  // The partials phase is order-free (one total per block), so it runs
  // through the wrapping simd::sum_span; only the apply phase needs the
  // serial element order.
  const std::span<T> block_sums =
      device.scratch().template get<T>(ScratchLane::kBlockSums, workers);
  device.launch_slots("sim::scan_partials",
                      [&](unsigned slot, unsigned num_slots) {
                        const auto [begin, end] = slot_range(slot, num_slots, n);
                        block_sums[slot] = simd::sum_span<T>(in.subspan(
                            static_cast<std::size_t>(begin),
                            static_cast<std::size_t>(end - begin)));
                      },
                      nullptr, detail::scan_partials_traffic<T>(n));

  T total{0};
  for (unsigned slot = 0; slot < workers; ++slot) {
    const T sum = block_sums[slot];
    block_sums[slot] = total;
    total = static_cast<T>(total + sum);
  }

  device.launch_slots("sim::scan_apply",
                      [&](unsigned slot, unsigned num_slots) {
                        const auto [begin, end] = slot_range(slot, num_slots, n);
                        T acc = block_sums[slot];
                        for (std::int64_t i = begin; i < end; ++i) {
                          const T value = in[static_cast<std::size_t>(i)];
                          out[static_cast<std::size_t>(i)] = acc;
                          acc = static_cast<T>(acc + value);
                        }
                      },
                      nullptr, detail::scan_apply_traffic<T>(n));
  return total;
}

/// Inclusive prefix sum: out[i] = sum of in[0..i]. `out` may alias `in`.
/// Same three-phase scheme as exclusive_scan.
template <typename T>
T inclusive_scan(Device& device, std::span<const T> in, std::span<T> out) {
  const auto n = static_cast<std::int64_t>(in.size());
  if (n == 0) return T{0};
  const unsigned workers = device.num_workers();
  if (workers == 1 || n < 1024) {
    T acc{0};
    for (std::int64_t i = 0; i < n; ++i) {
      acc = static_cast<T>(acc + in[static_cast<std::size_t>(i)]);
      out[static_cast<std::size_t>(i)] = acc;
    }
    return acc;
  }

  const std::span<T> block_sums =
      device.scratch().template get<T>(ScratchLane::kBlockSums, workers);
  device.launch_slots("sim::scan_partials",
                      [&](unsigned slot, unsigned num_slots) {
                        const auto [begin, end] = slot_range(slot, num_slots, n);
                        block_sums[slot] = simd::sum_span<T>(in.subspan(
                            static_cast<std::size_t>(begin),
                            static_cast<std::size_t>(end - begin)));
                      },
                      nullptr, detail::scan_partials_traffic<T>(n));

  T total{0};
  for (unsigned slot = 0; slot < workers; ++slot) {
    const T sum = block_sums[slot];
    block_sums[slot] = total;
    total = static_cast<T>(total + sum);
  }

  device.launch_slots("sim::scan_apply",
                      [&](unsigned slot, unsigned num_slots) {
                        const auto [begin, end] = slot_range(slot, num_slots, n);
                        T acc = block_sums[slot];
                        for (std::int64_t i = begin; i < end; ++i) {
                          acc = static_cast<T>(
                              acc + in[static_cast<std::size_t>(i)]);
                          out[static_cast<std::size_t>(i)] = acc;
                        }
                      },
                      nullptr, detail::scan_apply_traffic<T>(n));
  return total;
}

}  // namespace gcol::sim
