#pragma once
// Stream compaction (filter) — the CPU analogue of cub::DeviceSelect, which
// backs Gunrock's frontier filtering and GraphBLAST's sparse-vector
// extraction.
//
// Fused two-launch scheme (was flag + full scan + scatter, up to four
// launches): launch 1 evaluates the predicate over each worker's contiguous
// block, caching the flags and counting slot-local keeps; the host then
// exclusive-scans the per-slot counts (one tiny serial pass — the "single
// block" of the classic GPU decomposition); launch 2 re-walks the cached
// flags and scatters each slot's keeps at its precomputed offset. Slot
// blocks are contiguous and ascending, so the output stays stable exactly as
// the full-scan version was. Flags and slot counts live in the device
// scratch arena — no allocation besides the result itself.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.hpp"
#include "sim/scratch.hpp"
#include "sim/simd.hpp"
#include "sim/slot_range.hpp"

namespace gcol::sim {

namespace detail {

/// Shared engine: flag+count launch, serial slot-offset scan, scatter
/// launch. `emit(i, pos)` writes element i to output position pos.
///
/// Traffic model: the flag pass writes one flag byte per item (plus
/// `pred_per_item`, the bytes the caller's predicate moves per item); the
/// scatter pass re-reads one flag byte per item and moves `emit_per_kept`
/// per element it keeps. Per-slot kept counts are recovered from the offset
/// scan (next slot's offset minus this slot's), so per-slot scatter bytes
/// sum to the launch total exactly.
template <typename Pred, typename Resize, typename Emit>
void fused_compact(Device& device, std::int64_t n, Pred pred, Resize resize,
                   Emit emit, Traffic pred_per_item = {},
                   Traffic emit_per_kept = {}) {
  const unsigned workers = device.num_workers();
  const std::span<std::uint8_t> flags =
      device.scratch().get<std::uint8_t>(ScratchLane::kFlags,
                                         static_cast<std::size_t>(n));
  const std::span<std::int64_t> slot_counts =
      device.scratch().get<std::int64_t>(ScratchLane::kSlotCounts, workers);

  // The flag pass stores 0/1 bytes; the slot count is then one byte sum
  // over the block (simd::sum_bytes) instead of an in-loop counter carried
  // through the predicate.
  device.launch_slots(
      "sim::compact_flag_count",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = slot_range(slot, num_slots, n);
        for (std::int64_t i = begin; i < end; ++i) {
          flags[static_cast<std::size_t>(i)] = pred(i) ? 1 : 0;
        }
        slot_counts[slot] = simd::sum_bytes(
            flags.subspan(static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end - begin)));
      },
      nullptr, [n, pred_per_item](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = slot_range(slot, num_slots, n);
        return Traffic{pred_per_item.bytes_read * (end - begin),
                       (pred_per_item.bytes_written + 1) * (end - begin)};
      });

  std::int64_t total = 0;
  for (unsigned slot = 0; slot < workers; ++slot) {
    const std::int64_t count = slot_counts[slot];
    slot_counts[slot] = total;
    total += count;
  }
  resize(total);

  device.launch_slots(
      "sim::compact_scatter",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = slot_range(slot, num_slots, n);
        std::int64_t pos = slot_counts[slot];
        for (std::int64_t i = begin; i < end; ++i) {
          if (flags[static_cast<std::size_t>(i)] != 0) {
            emit(i, pos++);
          }
        }
      },
      nullptr,
      [n, total, slot_counts, emit_per_kept](unsigned slot,
                                             unsigned num_slots) {
        const auto [begin, end] = slot_range(slot, num_slots, n);
        const std::int64_t kept =
            (slot + 1 < num_slots ? slot_counts[slot + 1] : total) -
            slot_counts[slot];
        return Traffic{(end - begin) + emit_per_kept.bytes_read * kept,
                       emit_per_kept.bytes_written * kept};
      });
}

}  // namespace detail

/// Returns the indices i in [0, n) for which pred(i) is true, in ascending
/// order (contiguous slot blocks keep the scatter stable, as on the GPU).
/// `pred_per_item` declares the bytes the caller's predicate moves per item
/// (the indices themselves are loop counters, not memory traffic).
template <typename Pred>
[[nodiscard]] std::vector<std::int64_t> compact_indices(
    Device& device, std::int64_t n, Pred pred, Traffic pred_per_item = {}) {
  if (n <= 0) return {};
  std::vector<std::int64_t> out;
  detail::fused_compact(
      device, n, [&](std::int64_t i) { return static_cast<bool>(pred(i)); },
      [&](std::int64_t total) { out.resize(static_cast<std::size_t>(total)); },
      [&](std::int64_t i, std::int64_t pos) {
        out[static_cast<std::size_t>(pos)] = i;
      },
      pred_per_item,
      Traffic{0, static_cast<std::int64_t>(sizeof(std::int64_t))});
  return out;
}

/// Compacts `values[i]` for which pred(values[i], i) holds into a new vector,
/// preserving order.
template <typename T, typename Pred>
[[nodiscard]] std::vector<T> compact_values(Device& device,
                                            std::span<const T> values,
                                            Pred pred) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0) return {};
  std::vector<T> out;
  detail::fused_compact(
      device, n,
      [&](std::int64_t i) {
        return static_cast<bool>(pred(values[static_cast<std::size_t>(i)], i));
      },
      [&](std::int64_t total) { out.resize(static_cast<std::size_t>(total)); },
      [&](std::int64_t i, std::int64_t pos) {
        out[static_cast<std::size_t>(pos)] =
            values[static_cast<std::size_t>(i)];
      },
      Traffic{static_cast<std::int64_t>(sizeof(T)), 0},
      Traffic{static_cast<std::int64_t>(sizeof(T)),
              static_cast<std::int64_t>(sizeof(T))});
  return out;
}

}  // namespace gcol::sim
