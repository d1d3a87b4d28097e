#pragma once
// Shared pieces of the GraphBLAS coloring implementations (Algorithms 2-4).

#include <cstdint>
#include <span>

#include "core/result.hpp"
#include "graphblas/grb.hpp"
#include "sim/device.hpp"
#include "sim/rng.hpp"
#include "sim/scratch.hpp"
#include "sim/slot_range.hpp"

namespace gcol::color::detail {

/// Weight type for the random-priority vectors. The paper uses GrB_INT32
/// weights; we widen to 64 bits and append the vertex id in the low bits so
/// weights are pairwise distinct — Luby-style selection then provably
/// terminates (equal int32 draws would leave tied vertices uncolorable
/// forever). The high 31 bits stay uniformly random, so selection
/// probabilities are unchanged except on ties.
using Weight = std::int64_t;

/// The paper's `set_random()`: a counter-RNG draw keyed by *original* vertex
/// id (Options::original_id), made unique by packing that id into the low
/// bits. Always > 0, so weight 0 can mean "colored / not a candidate".
/// Because the max/min reductions the GraphBLAS algorithms run over these
/// weights are order-free and the weights attach to logical vertices, the
/// resulting colorings are invariant to the registry's reorder strategies.
inline grb::Info set_random_weights(grb::Vector<Weight>& weight,
                                    const Options& options) {
  // Stream 0xB1A5 keeps GraphBLAST draws independent of the Gunrock
  // family's (stream 0) for the same user seed, as distinct cuRAND streams
  // would be on the GPU.
  const sim::CounterRng rng(options.seed, 0xB1A5);
  weight.fill(Weight{0});
  return grb::apply_indexed(
      weight, nullptr,
      [&rng, &options](grb::Index i, Weight) {
        const auto orig = static_cast<std::uint64_t>(
            options.original_id(static_cast<vid_t>(i)));
        const auto draw = static_cast<Weight>(rng.uniform_int31(orig));
        return (((draw + 1) << 31) |
                static_cast<Weight>(orig & 0x7fffffff)) &
               0x7fffffffffffffff;
      },
      weight);
}

/// Collapses a vector to exact 0/1 values in place. The GT comparisons of
/// Algorithms 2-3 can leave raw weights at union-only positions; the paper's
/// subsequent Plus-reduce "succ" test only needs emptiness, but booleanizing
/// keeps the reduction overflow-free and the masks crisp.
template <typename T>
grb::Info booleanize(grb::Vector<T>& v) {
  return grb::apply(
      v, nullptr, [](T x) { return static_cast<T>(x != T{0} ? 1 : 0); }, v);
}

/// Mirrors a dense or bitmap mask vector into `active` bytes (value
/// semantics: byte set where an entry exists and is nonzero) and returns the
/// set-byte count — the round's "succ" test. This one launch stands in for
/// a grb::reduce and feeds assign_active, which reads `active` as its value
/// mask. The count equals the Plus-reduce of a booleanized mask exactly.
/// `v` must not be sparse; the round masks never are, since every GraphBLAS
/// op leaves dense or bitmap storage (dense_values() asserts it in debug
/// builds).
inline std::int64_t mirror_count(sim::Device& device, const char* name,
                                 const grb::Vector<Weight>& v,
                                 std::span<std::uint8_t> active) {
  const std::span<const Weight> values = v.dense_values();
  const std::span<const std::uint8_t> present =
      v.is_bitmap() ? v.bitmap_present() : std::span<const std::uint8_t>{};
  const auto n = static_cast<std::int64_t>(values.size());
  const std::span<std::int64_t> partials =
      device.scratch().get<std::int64_t>(sim::ScratchLane::kPartials,
                                         device.num_workers());
  device.launch_slots(
      name,
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, n);
        std::int64_t local = 0;
        for (std::int64_t i = begin; i < end; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          const bool set = (present.empty() || present[ui] != 0) &&
                           values[ui] != Weight{0};
          active[ui] = set ? 1 : 0;
          local += set ? 1 : 0;
        }
        partials[slot] = local;
      },
      nullptr,
      [n, bitmap = !present.empty()](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, n);
        // Per position: the value gather (plus the present byte for bitmap
        // storage) and the mirrored byte store; one partial per slot.
        return sim::Traffic{
            (end - begin) * (static_cast<std::int64_t>(sizeof(Weight)) +
                             (bitmap ? 1 : 0)),
            (end - begin) + static_cast<std::int64_t>(sizeof(std::int64_t))};
      });
  std::int64_t total = 0;
  for (const std::int64_t partial : partials) total += partial;
  return total;
}

/// The fused round tail: runs `store(i)` at every position mirror_count set
/// in `active`, in one in-place launch. It stands in for a masked-assign
/// pair such as `c<frontier> = color; weight<frontier> = 0`, which
/// grb::assign would run as two stores that also rewrite presence bytes.
/// The vectors `store` writes must be dense; callers re-read their
/// dense_values() each round.
template <typename Store>
void assign_active(sim::Device& device, const char* name,
                   std::span<const std::uint8_t> active, Store&& store) {
  device.launch(
      name, static_cast<std::int64_t>(active.size()),
      [&](std::int64_t i) {
        const auto ui = static_cast<std::size_t>(i);
        if (active[ui] != 0) store(ui);
      },
      sim::Schedule::kStatic, 0, nullptr,
      // Per position: the mask byte; the masked stores are data-dependent
      // and excluded (structural floor, like grb::detail::store).
      sim::Traffic{1, 0});
}

}  // namespace gcol::color::detail
