#pragma once
// Gunrock's high-performance operators (paper §III-B), expressed over the
// virtual-GPU device:
//
//   compute        — ComputeOp: a parallel forall over frontier items; the
//                    workhorse of the IS and Hash coloring kernels. NOT load
//                    balanced: one work item per vertex regardless of degree,
//                    exactly the property the paper analyzes ("simply
//                    assigning each active thread to a vertex").
//   filter         — compacts a frontier by predicate (scan + scatter).
//   advance        — generates the neighbor frontier of the input frontier
//                    with load balancing: degrees are scanned so neighbor
//                    slots are evenly divided among workers. Two schedules:
//                    edge-balanced (merge-path over the scanned offsets, the
//                    default — Gunrock's TWC/merge-path analogue) and
//                    vertex-chunked (dynamic chunks of sources, kept
//                    selectable for the Table II schedule ablation).
//   neighbor_reduce— AdvanceOp + segmented ReduceOp: per-source reduction
//                    over the advanced neighborhood (paper §III-B3).
//
// Each operator issues a fixed small number of kernel launches; the implied
// global barriers are what the paper counts as "global synchronizations".
//
// Direction optimization: every operator additionally accepts *bitmap*
// frontiers (see FrontierMode in frontier.hpp) and then runs one of two
// schedules, mirroring Gunrock's direction-optimized advance and the
// VxmMode::kAuto heuristic in grb::vxm:
//   push — iterate the set bits (word-skipping via countr_zero), the sparse
//          schedule; edge-balanced via merge-path once the frontier's edge
//          work crosses kPushEdgeBalanceMinEntries;
//   pull — a full dense pass testing membership per vertex, the schedule
//          that wins when the frontier is occupied enough that skipping
//          buys nothing (and, on real hardware, when coalesced dense reads
//          beat scattered sparse ones).
// kAuto picks per launch from occupancy: pull when the frontier's estimated
// edge work (|frontier| * (avg_degree + 1)) reaches the full-pass cost n.
// The chosen direction is stamped into LaunchInfo so per-kernel tables and
// traces attribute time per direction. Bitmap kernels count one work item
// per 64-bit word — that is what the launch iterates.
//
// Traffic model: every operator declares the structural bytes its launches
// move — frontier vertex gathers (sizeof(vid_t)), frontier words (8), CSR
// row-offset pairs (2 x sizeof(eid_t)), adjacency column gathers
// (sizeof(vid_t)) and its own outputs. User op/pred/map payloads are opaque
// and excluded, so modeled bytes are a lower bound; data-dependent
// traversals (push adjacency walks, pull early-exit probes) document what
// they leave out at the launch site.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "gunrock/frontier.hpp"
#include "sim/advance.hpp"
#include "sim/bitops.hpp"
#include "sim/bitscan.hpp"
#include "sim/compact.hpp"
#include "sim/device.hpp"
#include "sim/scan.hpp"
#include "sim/scratch.hpp"
#include "sim/segmented_reduce.hpp"
#include "sim/simd.hpp"
#include "sim/slot_range.hpp"

namespace gcol::gr {

/// Structural element sizes the operators' traffic models are phrased in.
inline constexpr std::int64_t kVidBytes =
    static_cast<std::int64_t>(sizeof(vid_t));
inline constexpr std::int64_t kEidBytes =
    static_cast<std::int64_t>(sizeof(eid_t));
inline constexpr std::int64_t kWordBytes =
    static_cast<std::int64_t>(sizeof(std::uint64_t));
/// Slot-local tallies (popcounts, survivor counts) are int64 scratch cells.
inline constexpr std::int64_t kSlotCountBytes =
    static_cast<std::int64_t>(sizeof(std::int64_t));

/// How advance (and neighbor_reduce) spread neighbor work over workers.
enum class AdvancePolicy {
  kEdgeBalanced,   ///< merge-path over scanned degrees: equal edges per worker
  kVertexChunked,  ///< dynamic chunks of source vertices (degree-oblivious)
};

/// Traversal direction chosen for one bitmap-frontier launch.
enum class Direction {
  kPush,  ///< iterate set bits (sparse schedule)
  kPull,  ///< dense pass, test membership (dense schedule)
};

[[nodiscard]] constexpr const char* to_cstr(Direction d) noexcept {
  return d == Direction::kPush ? "push" : "pull";
}

/// Below this much frontier edge work a bitmap push stays word-granular;
/// above it (and with >1 worker) the push materializes the set bits and
/// runs the merge-path edge-balanced walk. Mirrors
/// grb::kPushEdgeBalanceMinEntries: the same diagonal-search overhead
/// amortization threshold applies.
inline constexpr std::int64_t kPushEdgeBalanceMinEntries = 4096;

/// Resolves the direction for one launch over `frontier`. Forced modes map
/// directly; kAuto compares the frontier's estimated edge work against the
/// dense full-pass cost, exactly the occupancy heuristic grb::vxm's
/// VxmMode::kAuto uses (push while nvals * avg_degree < n). `avg_degree` is
/// the per-member neighbor work of the operator about to run — 0 for purely
/// per-vertex ops, csr.average_degree() for neighbor-traversing ones.
[[nodiscard]] inline Direction resolve_direction(FrontierMode mode,
                                                 std::int64_t size,
                                                 vid_t num_vertices,
                                                 double avg_degree = 0.0) {
  switch (mode) {
    case FrontierMode::kBitmapPush: return Direction::kPush;
    case FrontierMode::kBitmapPull: return Direction::kPull;
    default: break;
  }
  const double full_pass = static_cast<double>(num_vertices);
  const double edge_work = static_cast<double>(size) * (avg_degree + 1.0);
  return edge_work >= full_pass ? Direction::kPull : Direction::kPush;
}

[[nodiscard]] inline Direction resolve_direction(const Frontier& frontier,
                                                 double avg_degree = 0.0) {
  return resolve_direction(frontier.mode(), frontier.size(),
                           frontier.num_vertices(), avg_degree);
}

/// ComputeOp: op(v) for every vertex v in the frontier, in parallel with no
/// ordering guarantees (paper: "Gunrock performs that operation in parallel
/// across all elements without regard to order"). Bitmap frontiers run
/// direction-optimized: gr::compute_push skips to set bits, gr::compute_pull
/// makes one dense membership pass; both are word-granular launches.
/// `avg_degree` weighs the kAuto heuristic (see resolve_direction).
template <typename Op>
void compute(sim::Device& device, const Frontier& frontier, Op op,
             double avg_degree = 0.0) {
  if (!frontier.is_bitmap()) {
    device.launch(
        "gr::compute", frontier.size(),
        [&](std::int64_t i) { op(frontier.vertex(i)); },
        sim::Schedule::kStatic, 0, nullptr, sim::Traffic{kVidBytes, 0});
    return;
  }
  if (frontier.is_empty()) return;
  const Direction dir = resolve_direction(frontier, avg_degree);
  if (dir == Direction::kPush) {
    sim::for_each_set_bit(
        device, "gr::compute_push", frontier.words(),
        [&](std::int64_t bit) { op(static_cast<vid_t>(bit)); },
        sim::Schedule::kStatic, "push");
    return;
  }
  const std::span<const std::uint64_t> words = frontier.words();
  device.launch(
      "gr::compute_pull", static_cast<std::int64_t>(words.size()),
      [&](std::int64_t w) {
        // Dense linear probe of every bit; tail bits beyond n are zero by
        // the bitmap invariant, so no bounds check is needed.
        const std::uint64_t word = words[static_cast<std::size_t>(w)];
        const std::int64_t base = w * sim::kBitsPerWord;
        for (std::int64_t b = 0; b < sim::kBitsPerWord; ++b) {
          if ((word >> b) & 1u) op(static_cast<vid_t>(base + b));
        }
      },
      sim::Schedule::kStatic, 0, "pull", sim::Traffic{kWordBytes, 0});
}

/// ComputeOp fused with the enactor's "are we done" reduction: runs op over
/// every frontier vertex and returns how many vertices satisfy `count`
/// AFTER their op ran — one launch instead of compute + count_if. Exact
/// when the counted state of vertex v is written only by v's own work item
/// (the owner-writes discipline all the IS/Hash kernels follow): the
/// per-slot tallies then combine serially like any reduce.
template <typename Op, typename Count>
[[nodiscard]] std::int64_t compute_count(sim::Device& device,
                                         const Frontier& frontier, Op op,
                                         Count count, double avg_degree = 0.0) {
  const std::int64_t n = frontier.size();
  if (n == 0) return 0;
  const unsigned workers = device.num_workers();
  const std::span<std::int64_t> partials =
      device.scratch().get<std::int64_t>(sim::ScratchLane::kPartials,
                                         workers);
  if (frontier.is_bitmap()) {
    // Word-owner slot kernel: each slot tallies its own contiguous word
    // range, so the count needs no atomics either way. Push skips zero
    // words; pull probes every bit linearly.
    const Direction dir = resolve_direction(frontier, avg_degree);
    const std::span<const std::uint64_t> words = frontier.words();
    const auto num_words = static_cast<std::int64_t>(words.size());
    device.launch_slots(
        "gr::compute_count",
        [&](unsigned slot, unsigned num_slots) {
          const auto [begin, end] =
              sim::slot_range(slot, num_slots, num_words);
          std::int64_t local = 0;
          const auto apply = [&](std::int64_t bit) {
            const auto v = static_cast<vid_t>(bit);
            op(v);
            if (count(v)) ++local;
          };
          if (dir == Direction::kPush) {
            sim::visit_set_bits_span(
                words.subspan(static_cast<std::size_t>(begin),
                              static_cast<std::size_t>(end - begin)),
                begin * sim::kBitsPerWord, apply);
          } else {
            for (std::int64_t w = begin; w < end; ++w) {
              const std::uint64_t word = words[static_cast<std::size_t>(w)];
              const std::int64_t base = w * sim::kBitsPerWord;
              for (std::int64_t b = 0; b < sim::kBitsPerWord; ++b) {
                if ((word >> b) & 1u) apply(base + b);
              }
            }
          }
          partials[slot] = local;
        },
        to_cstr(dir), [num_words](unsigned slot, unsigned num_slots) {
          const auto [begin, end] =
              sim::slot_range(slot, num_slots, num_words);
          return sim::Traffic{(end - begin) * kWordBytes, kSlotCountBytes};
        });
  } else {
    device.launch_slots("gr::compute_count",
                        [&](unsigned slot, unsigned num_slots) {
                          const auto [begin, end] =
                              sim::slot_range(slot, num_slots, n);
                          std::int64_t local = 0;
                          for (std::int64_t i = begin; i < end; ++i) {
                            const vid_t v = frontier.vertex(i);
                            op(v);
                            if (count(v)) ++local;
                          }
                          partials[slot] = local;
                        },
                        nullptr,
                        [n](unsigned slot, unsigned num_slots) {
                          const auto [begin, end] =
                              sim::slot_range(slot, num_slots, n);
                          return sim::Traffic{(end - begin) * kVidBytes,
                                              kSlotCountBytes};
                        });
  }
  std::int64_t total = 0;
  for (unsigned slot = 0; slot < workers; ++slot) total += partials[slot];
  return total;
}

/// Bitmap FilterOp: rebuilds a bitmap frontier in ONE word-owner slot
/// kernel — each slot rewrites its contiguous word range (new word = pred
/// survivors of the old word) and tallies the popcount locally, so there is
/// no scan, no scatter, and no atomics; the per-round "compaction" the
/// sparse representation pays 2 launches for collapses to word-wise bit
/// writes. `pred(v)` may carry side effects; it runs exactly once per
/// member, ascending within a word (globally ascending at one worker,
/// matching the sparse filter's stable order). `buffer` (typically the
/// previous frontier's release_words()) is recycled as the output.
template <typename Pred>
[[nodiscard]] Frontier filter_bits(sim::Device& device,
                                   const Frontier& frontier,
                                   std::vector<std::uint64_t>&& buffer,
                                   Pred pred, double avg_degree = 0.0) {
  const Direction dir = resolve_direction(frontier, avg_degree);
  const std::span<const std::uint64_t> words = frontier.words();
  const auto num_words = static_cast<std::int64_t>(words.size());
  std::vector<std::uint64_t> out = std::move(buffer);
  out.resize(words.size());
  const unsigned workers = device.num_workers();
  const std::span<std::int64_t> counts = device.scratch().get<std::int64_t>(
      sim::ScratchLane::kSlotCounts, workers);
  device.launch_slots(
      "gr::filter_bits",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, num_words);
        std::int64_t local = 0;
        // Empty input words filter to empty output words, so the SIMD
        // first-nonzero-word search skips zero runs wholesale (4 words per
        // compare on AVX2) and bulk-zeroes the matching output range; pred
        // still runs exactly once per member, in the same order.
        std::int64_t w = begin;
        while (w < end) {
          const std::int64_t skip = sim::simd::first_nonzero_word(
              words.subspan(static_cast<std::size_t>(w),
                            static_cast<std::size_t>(end - w)));
          const std::int64_t stop = skip < 0 ? end : w + skip;
          if (stop > w) {
            sim::simd::fill(
                std::span(out).subspan(static_cast<std::size_t>(w),
                                       static_cast<std::size_t>(stop - w)),
                0);
            w = stop;
          }
          if (w == end) break;
          const std::uint64_t word = words[static_cast<std::size_t>(w)];
          const std::int64_t base = w * sim::kBitsPerWord;
          std::uint64_t next = 0;
          const auto apply = [&](std::int64_t bit) {
            if (pred(static_cast<vid_t>(bit))) {
              next |= std::uint64_t{1} << (bit - base);
            }
          };
          if (dir == Direction::kPush) {
            sim::visit_set_bits(word, base, apply);
          } else {
            for (std::int64_t b = 0; b < sim::kBitsPerWord; ++b) {
              if ((word >> b) & 1u) apply(base + b);
            }
          }
          out[static_cast<std::size_t>(w)] = next;
          local += std::popcount(next);
          ++w;
        }
        counts[slot] = local;
      },
      to_cstr(dir), [num_words](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, num_words);
        return sim::Traffic{(end - begin) * kWordBytes,
                            (end - begin) * kWordBytes + kSlotCountBytes};
      });
  std::int64_t total = 0;
  for (unsigned slot = 0; slot < workers; ++slot) total += counts[slot];
  return Frontier::bits(std::move(out), total, frontier.num_vertices(),
                        frontier.mode());
}

/// FilterOp: new frontier containing the input vertices where pred(v) holds.
/// Bitmap frontiers rebuild word-wise (see filter_bits); others compact to
/// a vertex list.
template <typename Pred>
[[nodiscard]] Frontier filter(sim::Device& device, const Frontier& frontier,
                              Pred pred) {
  if (frontier.is_bitmap()) {
    return filter_bits(device, frontier, {}, std::move(pred));
  }
  const std::vector<std::int64_t> kept = sim::compact_indices(
      device, frontier.size(),
      [&](std::int64_t i) { return pred(frontier.vertex(i)); },
      sim::Traffic{kVidBytes, 0});
  std::vector<vid_t> vertices(kept.size());
  device.launch(
      "gr::filter_gather", static_cast<std::int64_t>(kept.size()),
      [&](std::int64_t k) {
        vertices[static_cast<std::size_t>(k)] =
            frontier.vertex(kept[static_cast<std::size_t>(k)]);
      },
      sim::Schedule::kStatic, 0, nullptr,
      sim::Traffic{static_cast<std::int64_t>(sizeof(std::int64_t)) + kVidBytes,
                   kVidBytes});
  return Frontier::of(std::move(vertices), frontier.num_vertices());
}

/// Double-buffered FilterOp: compacts surviving VERTEX IDS straight into
/// `buffer` (typically the previous frontier's released allocation), so the
/// per-iteration compaction is two launches — flag+count and scatter — with
/// no separate gather launch and no allocation once the buffers are warm.
/// `pred(v)` may carry side effects (e.g. publishing a color snapshot); it
/// runs exactly once per frontier vertex, in the flag pass.
template <typename Pred>
[[nodiscard]] Frontier filter_into(sim::Device& device,
                                   const Frontier& frontier,
                                   std::vector<vid_t>&& buffer, Pred pred) {
  std::vector<vid_t> out = std::move(buffer);
  if (frontier.is_empty()) {
    out.clear();
    return Frontier::of(std::move(out), frontier.num_vertices());
  }
  sim::detail::fused_compact(
      device, frontier.size(),
      [&](std::int64_t i) {
        return static_cast<bool>(pred(frontier.vertex(i)));
      },
      [&](std::int64_t total) {
        out.resize(static_cast<std::size_t>(total));
      },
      [&](std::int64_t i, std::int64_t pos) {
        out[static_cast<std::size_t>(pos)] = frontier.vertex(i);
      },
      sim::Traffic{kVidBytes, 0}, sim::Traffic{kVidBytes, kVidBytes});
  return Frontier::of(std::move(out), frontier.num_vertices());
}

namespace detail {

/// Materializes a bitmap frontier's set bits into the kFrontier scratch
/// lane as one slot kernel: each slot popcounts its word range, claims a
/// contiguous output block with one fetch_add, and writes its vertices
/// ascending within the block. Block order across slots follows claim
/// order, so the list is a permutation of the set bits — callers must be
/// order-insensitive (the edge-balanced walks are: results are keyed by
/// vertex, not list position). Returns the count-sized span.
inline std::span<const vid_t> frontier_gather(sim::Device& device,
                                              const Frontier& frontier) {
  const std::span<const std::uint64_t> words = frontier.words();
  const auto num_words = static_cast<std::int64_t>(words.size());
  const std::span<vid_t> list = device.scratch().get<vid_t>(
      sim::ScratchLane::kFrontier, static_cast<std::size_t>(frontier.size()));
  std::atomic<std::int64_t> cursor{0};
  device.launch_slots(
      "gr::frontier_gather",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, num_words);
        const auto block =
            words.subspan(static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end - begin));
        const std::int64_t local = sim::simd::popcount(block);
        std::int64_t pos = cursor.fetch_add(local, std::memory_order_relaxed);
        sim::visit_set_bits_span(block, begin * sim::kBitsPerWord,
                                 [&](std::int64_t bit) {
                                   list[static_cast<std::size_t>(pos++)] =
                                       static_cast<vid_t>(bit);
                                 });
      },
      "push", [words, num_words](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, num_words);
        // Per-slot writes are the block's popcount — recomputed here on the
        // host, once per observed launch.
        const std::int64_t members = sim::simd::popcount(
            words.subspan(static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end - begin)));
        return sim::Traffic{(end - begin) * kWordBytes, members * kVidBytes};
      });
  return list;
}

/// Shared engine behind neighbor_reduce_fused and the edge-balanced bitmap
/// push: degrees launch (finalizing degree-0 sources inline) + in-place
/// scan + one merge-path walk with boundary carries combined on the host.
/// Sources are `vertex_of(i)` for i in [0, fsize); finalize(i, total) is
/// index-keyed — callers translate to vertices as needed.
template <typename T, typename VertexOf, typename Map, typename ReduceOp,
          typename Finalize>
void nr_fused_impl(sim::Device& device, const graph::Csr& csr,
                   std::int64_t fsize, VertexOf vertex_of, Map map,
                   ReduceOp reduce_op, T identity, Finalize finalize,
                   const char* direction) {
  if (fsize == 0) return;

  // Launch 1: per-source degrees, sized +1 so the scan can run in place and
  // the offsets stay in the same scratch lane. Degree-0 sources have no
  // edge positions (the walk never visits them) — finalize them here, fused.
  const std::span<eid_t> offsets = device.scratch().get<eid_t>(
      sim::ScratchLane::kDegrees, static_cast<std::size_t>(fsize) + 1);
  device.launch(
      "gr::nr_degrees", fsize,
      [&](std::int64_t i) {
        // The degree read is a gather through the source list into
        // row_offsets; prefetch the row of the source D slots ahead so the
        // scattered load overlaps this item's work.
        if (i + sim::kGatherPrefetchDistance < fsize) {
          sim::prefetch(&csr.row_offsets[static_cast<std::size_t>(
              vertex_of(i + sim::kGatherPrefetchDistance))]);
        }
        const eid_t degree = csr.degree(vertex_of(i));
        offsets[static_cast<std::size_t>(i)] = degree;
        if (degree == 0) finalize(i, identity);
      },
      sim::Schedule::kStatic, 0, direction,
      sim::Traffic{kVidBytes + 2 * kEidBytes, kEidBytes});
  // Launches 2-3 (elided for small frontiers): offsets, in place.
  const std::span<eid_t> degrees_in =
      offsets.first(static_cast<std::size_t>(fsize));
  const eid_t total =
      sim::exclusive_scan<eid_t>(device, degrees_in, degrees_in);
  offsets[static_cast<std::size_t>(fsize)] = total;
  if (total == 0) return;

  // Boundary carries: a worker's position range touches at most two
  // partial segments (its first and its last), so 2 records per worker.
  struct Carry {
    std::int64_t segment;
    T value;
  };
  const unsigned workers = device.num_workers();
  const std::span<Carry> carries = device.scratch().get<Carry>(
      sim::ScratchLane::kCarries, 2 * static_cast<std::size_t>(workers));
  for (auto& carry : carries) carry.segment = -1;

  // Launch 4: merge-path walk; map and reduce fuse into the visit, and a
  // worker covering local ranks [0, degree) finalizes its source inline —
  // exclusive ownership, since position ranges partition the edge space.
  sim::for_each_segment_range_slotted<eid_t>(
      device, "gr::nr_reduce", offsets,
      [&](unsigned slot, std::int64_t s, std::int64_t local_begin,
          std::int64_t local_end, std::int64_t /*global_begin*/) {
        const vid_t v = vertex_of(s);
        const auto adj = csr.neighbors(v);
        T acc = identity;
        for (std::int64_t k = local_begin; k < local_end; ++k) {
          acc = reduce_op(acc, map(v, adj[static_cast<std::size_t>(k)]));
        }
        if (local_begin == 0 &&
            local_end == static_cast<std::int64_t>(adj.size())) {
          finalize(s, acc);
          return;
        }
        Carry& carry = carries[2 * slot +
                               (carries[2 * slot].segment == -1 ? 0 : 1)];
        carry.segment = s;
        carry.value = acc;
      },
      direction, sim::Traffic{kVidBytes, 0});

  // Serial combine of the boundary partials (ascending segment order after
  // the sort; reduce_op commutes, so grouping order is immaterial).
  Carry* const begin = carries.data();
  Carry* const end = begin + carries.size();
  std::sort(begin, end, [](const Carry& a, const Carry& b) {
    return a.segment < b.segment;
  });
  for (Carry* it = begin; it != end;) {
    const std::int64_t s = it->segment;
    if (s == -1) {  // unused records sort first
      ++it;
      continue;
    }
    T acc = identity;
    for (; it != end && it->segment == s; ++it) {
      acc = reduce_op(acc, it->value);
    }
    finalize(s, acc);
  }
}

}  // namespace detail

/// The materialized output of an advance: a flat neighbor array partitioned
/// by source via CSR-style segment offsets (ready for segmented reduction).
struct AdvanceResult {
  std::vector<eid_t> segment_offsets;  ///< size frontier.size() + 1
  std::vector<vid_t> neighbors;        ///< advanced (destination) vertices

  [[nodiscard]] std::int64_t num_segments() const noexcept {
    return static_cast<std::int64_t>(segment_offsets.size()) - 1;
  }
};

/// AdvanceOp: visits the full neighbor list of every frontier vertex and
/// materializes it (paper: "each input item maps to multiple output items
/// from the input item's neighbor list"). Load-balanced in the Gunrock
/// sense: slot counts come from a degree scan, and the fill launch is
/// edge-balanced by default (merge-path over the scanned offsets), so
/// high-degree vertices split across every worker instead of serializing on
/// one. The degree-oblivious vertex-chunked fill remains selectable for the
/// schedule ablation.
[[nodiscard]] inline AdvanceResult advance(
    sim::Device& device, const graph::Csr& csr, const Frontier& frontier,
    AdvancePolicy policy = AdvancePolicy::kEdgeBalanced) {
  const std::int64_t fsize = frontier.size();
  AdvanceResult result;
  result.segment_offsets.resize(static_cast<std::size_t>(fsize) + 1);

  // Launch 1: per-source degree (scratch arena — no allocation per call).
  const std::span<eid_t> degrees = device.scratch().get<eid_t>(
      sim::ScratchLane::kDegrees, static_cast<std::size_t>(fsize));
  device.launch(
      "gr::advance_degrees", fsize,
      [&](std::int64_t i) {
        if (i + sim::kGatherPrefetchDistance < fsize) {
          sim::prefetch(&csr.row_offsets[static_cast<std::size_t>(
              frontier.vertex(i + sim::kGatherPrefetchDistance))]);
        }
        degrees[static_cast<std::size_t>(i)] = csr.degree(frontier.vertex(i));
      },
      sim::Schedule::kStatic, 0, nullptr,
      sim::Traffic{kVidBytes + 2 * kEidBytes, kEidBytes});
  // Launches 2-3: scan to segment offsets.
  const eid_t total = sim::exclusive_scan<eid_t>(
      device, degrees, std::span(result.segment_offsets).first(
                           static_cast<std::size_t>(fsize)));
  result.segment_offsets[static_cast<std::size_t>(fsize)] = total;

  // Launch 4: balanced neighbor fill.
  result.neighbors.resize(static_cast<std::size_t>(total));
  if (policy == AdvancePolicy::kEdgeBalanced) {
    sim::for_each_segment_range<eid_t>(
        device, "gr::advance_fill", result.segment_offsets,
        [&](std::int64_t s, std::int64_t local_begin, std::int64_t local_end,
            std::int64_t global_begin) {
          const auto adj = csr.neighbors(frontier.vertex(s));
          for (std::int64_t k = local_begin; k < local_end; ++k) {
            result.neighbors[static_cast<std::size_t>(
                global_begin + (k - local_begin))] =
                adj[static_cast<std::size_t>(k)];
          }
        },
        nullptr, sim::Traffic{kVidBytes, kVidBytes});
  } else {
    device.launch(
        "gr::advance_fill", fsize,
        [&](std::int64_t i) {
          const vid_t v = frontier.vertex(i);
          const auto out = static_cast<std::size_t>(
              result.segment_offsets[static_cast<std::size_t>(i)]);
          const auto adj = csr.neighbors(v);
          for (std::size_t k = 0; k < adj.size(); ++k) {
            result.neighbors[out + k] = adj[k];
          }
        },
        sim::Schedule::kDynamic);
  }
  return result;
}

/// Direction-optimized AdvanceOp over a bitmap frontier: returns the
/// *neighbor bitmap* (the union of all members' adjacencies) instead of a
/// materialized per-source neighbor array. Push iterates the source set
/// bits and ORs destination bits (idempotent, so the scattered atomic
/// writes commute — the result is deterministic at any worker count);
/// above kPushEdgeBalanceMinEntries of edge work with >1 worker it
/// materializes the sources and runs the merge-path edge-balanced fill.
/// Pull flips the loop: one word-owner pass over the OUTPUT bitmap, each
/// candidate scanning its adjacency until it finds a frontier member —
/// race-free without atomics, with the early-exit that makes pull win on
/// occupied frontiers. `buffer` is recycled as the output words.
[[nodiscard]] inline Frontier advance_bits(
    sim::Device& device, const graph::Csr& csr, const Frontier& frontier,
    std::vector<std::uint64_t>&& buffer = {}) {
  const vid_t n = frontier.num_vertices();
  const std::size_t num_words = sim::words_for_bits(n);
  std::vector<std::uint64_t> out = std::move(buffer);
  const Direction dir = resolve_direction(frontier, csr.average_degree());
  std::int64_t total = 0;

  if (dir == Direction::kPull) {
    out.resize(num_words);
    const unsigned workers = device.num_workers();
    const std::span<std::int64_t> counts = device.scratch().get<std::int64_t>(
        sim::ScratchLane::kSlotCounts, workers);
    device.launch_slots(
        "gr::advance_pull",
        [&](unsigned slot, unsigned num_slots) {
          const auto [begin, end] = sim::slot_range(
              slot, num_slots, static_cast<std::int64_t>(num_words));
          std::int64_t local = 0;
          for (std::int64_t w = begin; w < end; ++w) {
            const std::int64_t base = w * sim::kBitsPerWord;
            const std::int64_t limit =
                std::min<std::int64_t>(sim::kBitsPerWord, n - base);
            std::uint64_t next = 0;
            for (std::int64_t b = 0; b < limit; ++b) {
              const auto u = static_cast<vid_t>(base + b);
              for (const vid_t src : csr.neighbors(u)) {
                if (frontier.contains(src)) {
                  next |= std::uint64_t{1} << b;
                  break;
                }
              }
            }
            out[static_cast<std::size_t>(w)] = next;
            local += std::popcount(next);
          }
          counts[slot] = local;
        },
        "pull", [num_words](unsigned slot, unsigned num_slots) {
          // Candidate adjacency probes early-exit on the first frontier
          // member — data-dependent reads, excluded; the dense output
          // rewrite is the structural cost.
          const auto [begin, end] = sim::slot_range(
              slot, num_slots, static_cast<std::int64_t>(num_words));
          return sim::Traffic{0, (end - begin) * kWordBytes + kSlotCountBytes};
        });
    for (unsigned slot = 0; slot < workers; ++slot) total += counts[slot];
    return Frontier::bits(std::move(out), total, n, frontier.mode());
  }

  out.assign(num_words, 0);  // host-side zero; push scatters into it
  const auto set_neighbor = [&](vid_t u) {
    std::atomic_ref<std::uint64_t> word(out[sim::word_index(u)]);
    word.fetch_or(sim::bit_mask(u), std::memory_order_relaxed);
  };
  const double edge_work =
      static_cast<double>(frontier.size()) * csr.average_degree();
  if (device.num_workers() > 1 &&
      edge_work >= static_cast<double>(kPushEdgeBalanceMinEntries)) {
    const std::span<const vid_t> list = detail::frontier_gather(device,
                                                                frontier);
    const auto fsize = static_cast<std::int64_t>(list.size());
    const std::span<eid_t> offsets = device.scratch().get<eid_t>(
        sim::ScratchLane::kDegrees, static_cast<std::size_t>(fsize) + 1);
    device.launch(
        "gr::advance_degrees", fsize,
        [&](std::int64_t i) {
          if (i + sim::kGatherPrefetchDistance < fsize) {
            sim::prefetch(&csr.row_offsets[static_cast<std::size_t>(
                list[static_cast<std::size_t>(
                    i + sim::kGatherPrefetchDistance)])]);
          }
          offsets[static_cast<std::size_t>(i)] =
              csr.degree(list[static_cast<std::size_t>(i)]);
        },
        sim::Schedule::kStatic, 0, "push",
        sim::Traffic{kVidBytes + 2 * kEidBytes, kEidBytes});
    const std::span<eid_t> degrees_in =
        offsets.first(static_cast<std::size_t>(fsize));
    const eid_t edges =
        sim::exclusive_scan<eid_t>(device, degrees_in, degrees_in);
    offsets[static_cast<std::size_t>(fsize)] = edges;
    sim::for_each_segment_range<eid_t>(
        device, "gr::advance_fill_bits", offsets,
        [&](std::int64_t s, std::int64_t local_begin, std::int64_t local_end,
            std::int64_t /*global_begin*/) {
          const auto adj = csr.neighbors(list[static_cast<std::size_t>(s)]);
          for (std::int64_t k = local_begin; k < local_end; ++k) {
            // Scatter prefetch: the destination word of the neighbor D
            // edges ahead, so the scattered RMW's line is already inbound.
            if (k + sim::kGatherPrefetchDistance < local_end) {
              sim::prefetch(&out[sim::word_index(adj[static_cast<std::size_t>(
                  k + sim::kGatherPrefetchDistance)])]);
            }
            set_neighbor(adj[static_cast<std::size_t>(k)]);
          }
        },
        "push", sim::Traffic{kVidBytes + kWordBytes, kWordBytes});
  } else {
    sim::for_each_set_bit(
        device, "gr::advance_push", frontier.words(),
        [&](std::int64_t bit) {
          for (const vid_t u : csr.neighbors(static_cast<vid_t>(bit))) {
            set_neighbor(u);
          }
        },
        sim::Schedule::kDynamic, "push");
  }
  total = sim::simd::popcount(out);
  return Frontier::bits(std::move(out), total, n, frontier.mode());
}

/// NeighborReduceOp: advance + segmented reduction. For each frontier vertex
/// v, reduces map(v, u) over all neighbors u with `reduce_op` starting from
/// `identity`; writes one result per frontier slot into `out`.
///
/// As in Gunrock, the reduce consumes the advanced frontier: a second
/// reduction (e.g. min after max) requires another full neighbor-reduce —
/// the structural reason Algorithm 7 cannot do the min-max trick (paper
/// §IV-B3).
template <typename T, typename Map, typename ReduceOp>
void neighbor_reduce(sim::Device& device, const graph::Csr& csr,
                     const Frontier& frontier, Map map, ReduceOp reduce_op,
                     T identity, std::span<T> out,
                     AdvancePolicy policy = AdvancePolicy::kEdgeBalanced) {
  const AdvanceResult advanced = advance(device, csr, frontier, policy);
  // Map the advanced neighbors to reduction inputs (one launch)...
  std::vector<T> values(advanced.neighbors.size());
  if (policy == AdvancePolicy::kEdgeBalanced) {
    sim::for_each_segment_range<eid_t>(
        device, "gr::neighbor_map", advanced.segment_offsets,
        [&](std::int64_t s, std::int64_t local_begin, std::int64_t local_end,
            std::int64_t global_begin) {
          const vid_t v = frontier.vertex(s);
          for (std::int64_t k = local_begin; k < local_end; ++k) {
            const auto p =
                static_cast<std::size_t>(global_begin + (k - local_begin));
            values[p] = map(v, advanced.neighbors[p]);
          }
        },
        nullptr, sim::Traffic{kVidBytes, static_cast<std::int64_t>(sizeof(T))});
  } else {
    device.launch(
        "gr::neighbor_map", frontier.size(),
        [&](std::int64_t i) {
          const vid_t v = frontier.vertex(i);
          const auto begin = static_cast<std::size_t>(
              advanced.segment_offsets[static_cast<std::size_t>(i)]);
          const auto end = static_cast<std::size_t>(
              advanced.segment_offsets[static_cast<std::size_t>(i) + 1]);
          for (std::size_t k = begin; k < end; ++k) {
            values[k] = map(v, advanced.neighbors[k]);
          }
        },
        sim::Schedule::kDynamic);
  }
  // ...then segmented-reduce per source (one launch).
  sim::segmented_reduce<T, eid_t>(device, advanced.segment_offsets, values,
                                  out, identity, reduce_op);
}

/// Fused NeighborReduceOp: the advance, map, segmented reduction AND the
/// per-source consumer collapse into one edge-balanced pass. For each
/// frontier slot i with vertex v, reduces map(v, u) over v's neighbors u
/// with `reduce_op` (associative AND commutative) from `identity`, then
/// calls finalize(i, total) exactly once — inline in the kernel when one
/// worker covers the whole neighborhood (the overwhelmingly common case),
/// otherwise on the host after combining the <= 2-per-worker boundary
/// carries, the same serial-combine discipline every reduce uses.
///
/// Neighbor lists are never materialized: no advance_fill, no values array.
/// Launches: degrees (which also finalizes degree-0 sources) + in-place
/// scan (0 or 2) + one fused walk — 2-4 per call instead of 7 for
/// neighbor_reduce + a separate consumer launch. This is what lifts the
/// §IV-B3 restriction that "a second reduction requires another full
/// neighbor-reduce": a pair-valued reduce_op (e.g. min-max) plus an inline
/// finalize does the compare-and-color in the same pass.
template <typename T, typename Map, typename ReduceOp, typename Finalize>
void neighbor_reduce_fused(sim::Device& device, const graph::Csr& csr,
                           const Frontier& frontier, Map map,
                           ReduceOp reduce_op, T identity, Finalize finalize) {
  detail::nr_fused_impl<T>(
      device, csr, frontier.size(),
      [&](std::int64_t i) { return frontier.vertex(i); }, map, reduce_op,
      identity, finalize, nullptr);
}

/// Direction-optimized fused NeighborReduceOp over a bitmap frontier: for
/// each member v, reduces map(v, u) over v's neighbors with `reduce_op`
/// (associative and commutative) from `identity` and calls
/// finalize(v, total) exactly once — keyed by VERTEX, since a bitmap has no
/// stable slot order. Three schedules:
///   pull — one dense word-owner pass ("gr::nr_pull"), each member reduced
///          and finalized inline by its word's owner;
///   push — set-bit walk ("gr::nr_push"), each member's neighborhood
///          reduced serially by the worker that finds its bit;
///   edge-balanced push — above kPushEdgeBalanceMinEntries of edge work
///          with >1 worker: materialize the members (gr::frontier_gather)
///          and run the merge-path fused engine, so a hub's adjacency
///          splits across workers.
/// All three finalize each vertex exactly once with the exact reduction
/// over its full neighborhood, so results are schedule-independent.
template <typename T, typename Map, typename ReduceOp, typename Finalize>
void neighbor_reduce_bits(sim::Device& device, const graph::Csr& csr,
                          const Frontier& frontier, Map map,
                          ReduceOp reduce_op, T identity, Finalize finalize) {
  if (frontier.is_empty()) return;
  const double avg_degree = csr.average_degree();
  const Direction dir = resolve_direction(frontier, avg_degree);

  const auto reduce_vertex = [&](vid_t v) {
    T acc = identity;
    for (const vid_t u : csr.neighbors(v)) {
      acc = reduce_op(acc, map(v, u));
    }
    finalize(v, acc);
  };

  if (dir == Direction::kPull) {
    const std::span<const std::uint64_t> words = frontier.words();
    device.launch(
        "gr::nr_pull", static_cast<std::int64_t>(words.size()),
        [&](std::int64_t w) {
          const std::uint64_t word = words[static_cast<std::size_t>(w)];
          const std::int64_t base = w * sim::kBitsPerWord;
          for (std::int64_t b = 0; b < sim::kBitsPerWord; ++b) {
            if ((word >> b) & 1u) reduce_vertex(static_cast<vid_t>(base + b));
          }
        },
        sim::Schedule::kDynamic, 0, "pull");
    return;
  }

  const double edge_work = static_cast<double>(frontier.size()) * avg_degree;
  if (device.num_workers() > 1 &&
      edge_work >= static_cast<double>(kPushEdgeBalanceMinEntries)) {
    const std::span<const vid_t> list = detail::frontier_gather(device,
                                                                frontier);
    detail::nr_fused_impl<T>(
        device, csr, static_cast<std::int64_t>(list.size()),
        [&](std::int64_t i) { return list[static_cast<std::size_t>(i)]; },
        map, reduce_op, identity,
        [&](std::int64_t i, T total) {
          finalize(list[static_cast<std::size_t>(i)], total);
        },
        "push");
    return;
  }

  sim::for_each_set_bit(
      device, "gr::nr_push", frontier.words(),
      [&](std::int64_t bit) { reduce_vertex(static_cast<vid_t>(bit)); },
      sim::Schedule::kDynamic, "push");
}

}  // namespace gcol::gr
