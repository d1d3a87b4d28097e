#pragma once
// Shared pieces of the GraphBLAS coloring implementations (Algorithms 2-4).

#include <cstdint>
#include <span>
#include <utility>

#include "core/result.hpp"
#include "graphblas/grb.hpp"
#include "sim/device.hpp"
#include "sim/rng.hpp"

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

/// Mirrors a frontier (a Vector or a deferred chain, run whole in this one
/// launch) into dense `active` bytes, set where an entry is nonzero, and
/// returns their count: the round's "succ", equal to the Plus-reduce of the
/// booleanized frontier. `active` is the round's only materialized vector.
/// The chain's evaluator is held by value in the launch body, where the
/// byte stores cannot alias it.
template <typename Frontier>
std::int64_t mirror_count(sim::Device& device, const char* name,
                          Frontier&& frontier,
                          grb::Vector<std::uint8_t>& active) {
  if (!active.is_dense()) active.fill(0);
  const grb::detail::operand_t<Frontier> expr(std::forward<Frontier>(frontier));
  std::uint8_t* const out = active.dense_values().data();
  return grb::detail::count_positions(
      device, name, active.size(),
      [out, eval = expr.evaluator()](grb::Index i) {
        grb::detail::value_of<decltype(eval)> value{};
        const bool set = eval.at(i, value) && value != 0;
        out[i] = set ? 1 : 0;
        return set;
      },
      // Per position: the frontier's own reads and the mirrored byte.
      expr.traffic() + sim::Traffic{0, 1});
}

/// The fused round tail: runs `store(i)` at every position mirror_count set
/// in `active`, in one in-place launch. It stands in for a masked-assign
/// pair such as `c<frontier> = color; weight<frontier> = 0`, which
/// grb::assign would run as two stores that also rewrite presence bytes.
/// The vectors `store` writes must be dense; callers re-read their
/// dense_values() each round.
template <typename Store>
void assign_active(sim::Device& device, const char* name,
                   const grb::Vector<std::uint8_t>& active, Store&& store) {
  const std::span<const std::uint8_t> mask = active.dense_values();
  device.launch(
      name, active.size(),
      [&](std::int64_t i) {
        const auto ui = static_cast<std::size_t>(i);
        if (mask[ui] != 0) store(ui);
      },
      sim::Schedule::kStatic, 0, nullptr,
      // Per position: the mask byte; the masked stores are data-dependent
      // and excluded (structural floor, like grb::detail::store).
      sim::Traffic{1, 0});
}

/// Exports the paper's 1-based colors (0 = uncolored) into result.colors,
/// 0-based with kUncolored, in one launch named `name`. The launch sits
/// outside the timed window, after the round driver has returned.
inline void export_colors(sim::Device& device, const char* name,
                          const grb::Vector<std::int32_t>& c,
                          Coloring& result) {
  const std::span<const std::int32_t> cv = c.dense_values();
  device.launch(name, static_cast<std::int64_t>(c.size()),
                [&](std::int64_t i) {
                  const std::int32_t paper_color =
                      cv[static_cast<std::size_t>(i)];
                  result.colors[static_cast<std::size_t>(i)] =
                      paper_color == 0 ? kUncolored : paper_color - 1;
                });
}

}  // namespace gcol::color::detail
