#pragma once
// The GraphBLAS operations used by the paper's Algorithms 2–4, plus the
// GxB_scatter extension the paper introduces for Jones-Plassmann (§IV-A3).
//
// Execution model: every operation that writes a vector stores through
// detail::store — ONE slotted virtual-GPU launch that, at each position i,
// computes the operation's entry, merges it under mask/replace semantics,
// and writes the value and presence byte straight into the output's own
// (reused) buffers while counting the entries:
//
//   writes(i) = mask allows i && the operation produces an entry at i
//   final(i)  = writes(i) ? produced value : (replace ? none : old w[i])
//
// which is the library's masked-assignment rule. The entry is only computed
// where the mask allows it, so masking "avoids many memory accesses" (paper
// §III-A1). Position i is read before it is written, so an element-wise
// output may alias its inputs and its mask. vxm implements both the push
// (iterate sparse input, scatter with atomics into a scratch accumulator,
// then store) and pull (store gathers each allowed row) traversals with
// GraphBLAST's direction-optimizing heuristic [Yang et al., ICPP 2018].

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "graphblas/descriptor.hpp"
#include "graphblas/matrix.hpp"
#include "graphblas/operators.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"
#include "sim/advance.hpp"
#include "sim/atomics.hpp"
#include "sim/device.hpp"
#include "sim/scan.hpp"
#include "sim/scratch.hpp"
#include "sim/slot_range.hpp"

namespace gcol::grb {

/// Below this many frontier edges-worth of entries, push vxm's one-row-per-
/// entry launch beats paying a degree scan for edge balance (the extra
/// launches dominate exactly where imbalance cannot: tiny frontiers).
inline constexpr std::int64_t kPushEdgeBalanceMinEntries = 4096;

namespace detail {

/// O(1)-lookup view of a vector: dense vectors are viewed in place; sparse
/// vectors are scattered once into scratch (values + presence) so element
/// probes inside O(n)/O(m) loops never pay a binary search. This mirrors
/// GraphBLAST's densify-before-dense-op strategy.
template <typename T>
class DenseView {
 public:
  DenseView(const Vector<T>& v, sim::Device& device) {
    switch (v.storage()) {
      case Storage::kDense:
        values_ = v.dense_values();
        return;
      case Storage::kBitmap:
        values_ = v.dense_values();
        present_ = v.bitmap_present();
        return;
      case Storage::kSparse: break;
    }
    const auto n = static_cast<std::size_t>(v.size());
    scratch_values_.resize(n);
    scratch_present_.assign(n, 0);
    const auto indices = v.sparse_indices();
    const auto values = v.sparse_values();
    device.launch(
        "grb::densify", static_cast<std::int64_t>(indices.size()),
        [&](std::int64_t k) {
          const auto i =
              static_cast<std::size_t>(indices[static_cast<std::size_t>(k)]);
          scratch_values_[i] = values[static_cast<std::size_t>(k)];
          scratch_present_[i] = 1;
        },
        sim::Schedule::kStatic, 0, nullptr,
        // Per entry: the index and value gathers, then the scattered value
        // store and its present byte.
        sim::Traffic{static_cast<std::int64_t>(sizeof(Index) + sizeof(T)),
                     static_cast<std::int64_t>(sizeof(T)) + 1});
    values_ = scratch_values_;
    present_ = scratch_present_;
  }

  [[nodiscard]] bool has(Index i) const noexcept {
    return present_.empty() || present_[static_cast<std::size_t>(i)] != 0;
  }

  /// Value at i; meaningful only when has(i).
  [[nodiscard]] T operator[](Index i) const noexcept {
    return values_[static_cast<std::size_t>(i)];
  }

 private:
  std::span<const T> values_;
  std::span<const std::uint8_t> present_;
  std::vector<T> scratch_values_;
  std::vector<std::uint8_t> scratch_present_;
};

/// Applies f(index, value) to every stored entry of `u`, in parallel.
/// Sparse storage iterates its entry list; dense/bitmap iterate positions.
/// `name` labels the kernel launch for the observability layer.
template <typename T, typename F>
void for_each_entry(sim::Device& device, const Vector<T>& u, F f,
                    const char* name = "grb::for_each_entry") {
  switch (u.storage()) {
    case Storage::kDense: {
      const auto values = u.dense_values();
      device.launch(name, u.size(), [&](std::int64_t i) {
        f(i, values[static_cast<std::size_t>(i)]);
      });
      return;
    }
    case Storage::kBitmap: {
      const auto values = u.dense_values();
      const auto present = u.bitmap_present();
      device.launch(name, u.size(), [&](std::int64_t i) {
        if (present[static_cast<std::size_t>(i)] != 0) {
          f(i, values[static_cast<std::size_t>(i)]);
        }
      });
      return;
    }
    case Storage::kSparse: {
      const auto indices = u.sparse_indices();
      const auto values = u.sparse_values();
      device.launch(
          name, static_cast<std::int64_t>(indices.size()),
          [&](std::int64_t k) {
            f(indices[static_cast<std::size_t>(k)],
              values[static_cast<std::size_t>(k)]);
          });
      return;
    }
  }
}

/// Mask + descriptor resolved over a DenseView (value or structure
/// semantics, with complement), so every masked probe is O(1).
template <typename M>
class FastMaskView {
 public:
  FastMaskView(const Vector<M>* mask, const Descriptor& desc,
               sim::Device& device)
      : structure_(desc.mask_structure), complement_(desc.mask_complement) {
    if (mask != nullptr) view_.emplace(*mask, device);
  }

  /// True when no mask constrains writes at all.
  [[nodiscard]] bool trivial() const noexcept {
    return !view_.has_value() && !complement_;
  }

  [[nodiscard]] bool allows(Index i) const noexcept {
    // No mask: everything writable; complementing "all" blocks everything.
    if (!view_.has_value()) return !complement_;
    const bool set =
        view_->has(i) && (structure_ || (*view_)[i] != M{0});
    return complement_ ? !set : set;
  }

 private:
  std::optional<DenseView<M>> view_;
  bool structure_;
  bool complement_;
};

/// The one store of every vector-writing op: a single slotted launch in
/// which each position runs `produce(i, value)` (returns whether the op has
/// an entry at i) only where the mask allows, applies the replace/keep-old
/// rule, and writes value and presence byte into w's own buffers. Per-slot
/// entry counts sum to nvals; dense storage is installed when it is n.
/// Chunks are claimed dynamically, since pull rows differ in cost.
/// `per_entry` is produce's modeled traffic, counted only without a mask
/// (a masked position may skip it); the presence byte is the floor.
template <typename W, typename M, typename Produce>
void store(sim::Device& device, const char* name, Vector<W>& w,
           const FastMaskView<M>& mask, bool replace, Produce&& produce,
           sim::Traffic per_entry) {
  const Index n = w.size();
  const auto out = w.store_slots(/*keep=*/!replace);
  const unsigned workers = device.num_workers();
  // Per slot: its entry count, then the number of positions it claimed.
  const std::span<std::int64_t> tallies = device.scratch().get<std::int64_t>(
      sim::ScratchLane::kPartials, 2 * static_cast<std::size_t>(workers));
  const std::int64_t chunk =
      std::max<std::int64_t>(1, n / (8 * static_cast<std::int64_t>(workers)));
  std::atomic<std::int64_t> next{0};
  constexpr auto kRelaxed = std::memory_order_relaxed;
  device.launch_slots(
      name,
      [&](unsigned slot, unsigned) {
        // Locals, so the presence-byte stores cannot alias them.
        W* const values = out.values.data();
        std::uint8_t* const present = out.present.data();
        const bool unmasked = mask.trivial();
        const bool keep_dense = !replace && out.dense;
        const bool keep_bitmap = !replace && !out.dense;
        std::int64_t kept = 0;
        std::int64_t claimed = 0;
        for (std::int64_t begin = next.fetch_add(chunk, kRelaxed); begin < n;
             begin = next.fetch_add(chunk, kRelaxed)) {
          const std::int64_t end = std::min(begin + chunk, n);
          for (std::int64_t i = begin; i < end; ++i) {
            W value{};
            const bool writes =
                (unmasked || mask.allows(i)) && produce(i, value);
            if (writes) values[i] = value;
            const bool has =
                writes || keep_dense || (keep_bitmap && present[i] != 0);
            present[i] = has ? 1 : 0;
            kept += has ? 1 : 0;
          }
          claimed += end - begin;
        }
        tallies[slot] = kept;
        tallies[workers + slot] = claimed;
      },
      nullptr,
      [&](unsigned slot, unsigned) {
        const sim::Traffic entry =
            sim::Traffic{0, 1} + (mask.trivial() ? per_entry : sim::Traffic{});
        return entry * tallies[workers + slot] +
               sim::Traffic{0, 2 * static_cast<std::int64_t>(sizeof(Index))};
      });
  Index nvals = 0;
  for (unsigned slot = 0; slot < workers; ++slot) nvals += tallies[slot];
  w.commit_store(nvals);
}

}  // namespace detail

// ---- GrB_assign (scalar to all positions) --------------------------------

/// w<mask> = value over GrB_ALL. With no mask the vector becomes dense.
/// Mirrors the paper's `GrB_assign(C, frontier, GrB_NULL, color, GrB_ALL,
/// nrows(A), desc)`.
template <typename W, typename M, typename T>
Info assign(Vector<W>& w, const Vector<M>* mask, T value,
            const Descriptor& desc = kDefaultDesc) {
  if (mask != nullptr && mask->size() != w.size()) {
    return Info::kDimensionMismatch;
  }
  auto& device = sim::Device::instance();
  const detail::FastMaskView<M> view(mask, desc, device);
  const auto v = static_cast<W>(value);
  if (view.trivial()) {
    w.fill(v);
    return Info::kSuccess;
  }
  detail::store(
      device, "grb::assign", w, view, desc.replace,
      [v](Index, W& out) {
        out = v;
        return true;
      },
      sim::Traffic{0, static_cast<std::int64_t>(sizeof(W))});
  return Info::kSuccess;
}

/// Unmasked overload (mask type cannot be deduced from nullptr).
template <typename W, typename T>
Info assign(Vector<W>& w, std::nullptr_t, T value,
            const Descriptor& desc = kDefaultDesc) {
  return assign(w, static_cast<const Vector<W>*>(nullptr), value, desc);
}

// ---- GrB_apply -----------------------------------------------------------

/// Extension: f receives (index, value) — needed by the paper's
/// `set_random()`, which must derive a per-vertex random weight
/// reproducibly (counter RNG keyed by vertex id).
template <typename W, typename M, typename U, typename F>
Info apply_indexed(Vector<W>& w, const Vector<M>* mask, F f,
                   const Vector<U>& u, const Descriptor& desc = kDefaultDesc) {
  if (u.size() != w.size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w.size()) {
    return Info::kDimensionMismatch;
  }
  auto& device = sim::Device::instance();
  const detail::FastMaskView<M> view(mask, desc, device);
  const detail::DenseView<U> uview(u, device);
  detail::store(
      device, "grb::apply", w, view, desc.replace,
      [&](Index i, W& out) {
        if (!uview.has(i)) return false;
        out = static_cast<W>(f(i, uview[i]));
        return true;
      },
      // Per position: one input gather and the output store.
      sim::Traffic{static_cast<std::int64_t>(sizeof(U)),
                   static_cast<std::int64_t>(sizeof(W))});
  return Info::kSuccess;
}

/// w<mask> = f(u), entry-wise over u's stored entries.
template <typename W, typename M, typename U, typename F>
Info apply(Vector<W>& w, const Vector<M>* mask, F f, const Vector<U>& u,
           const Descriptor& desc = kDefaultDesc) {
  return apply_indexed(
      w, mask, [&f](Index, U value) { return f(value); }, u, desc);
}

/// Unmasked overloads (mask type cannot be deduced from a bare nullptr).
template <typename W, typename U, typename F>
Info apply_indexed(Vector<W>& w, std::nullptr_t, F f, const Vector<U>& u,
                   const Descriptor& desc = kDefaultDesc) {
  return apply_indexed(w, static_cast<const Vector<W>*>(nullptr), f, u, desc);
}

template <typename W, typename U, typename F>
Info apply(Vector<W>& w, std::nullptr_t, F f, const Vector<U>& u,
           const Descriptor& desc = kDefaultDesc) {
  return apply(w, static_cast<const Vector<W>*>(nullptr), f, u, desc);
}

// ---- GrB_eWiseAdd / GrB_eWiseMult -----------------------------------------

namespace detail {

/// Shared body of the element-wise ops: `union_structure` selects eWiseAdd
/// (entry where u or v has one, op only where both do) over eWiseMult
/// (entry only where both do).
template <typename W, typename M, typename U, typename V, typename Op>
Info ewise(const char* name, bool union_structure, Vector<W>& w,
           const Vector<M>* mask, Op op, const Vector<U>& u,
           const Vector<V>& v, const Descriptor& desc) {
  if (u.size() != w.size() || v.size() != w.size()) {
    return Info::kDimensionMismatch;
  }
  if (mask != nullptr && mask->size() != w.size()) {
    return Info::kDimensionMismatch;
  }
  auto& device = sim::Device::instance();
  const FastMaskView<M> view(mask, desc, device);
  const DenseView<U> uview(u, device);
  const DenseView<V> vview(v, device);
  store(
      device, name, w, view, desc.replace,
      [&](Index i, W& out) {
        const bool has_u = uview.has(i);
        const bool has_v = vview.has(i);
        if (has_u && has_v) {
          out = static_cast<W>(
              op(static_cast<W>(uview[i]), static_cast<W>(vview[i])));
          return true;
        }
        if (!union_structure) return false;
        if (has_u) out = static_cast<W>(uview[i]);
        if (has_v) out = static_cast<W>(vview[i]);
        return has_u || has_v;
      },
      // Per position, modeling the both-present path: both value gathers
      // and the output store.
      sim::Traffic{static_cast<std::int64_t>(sizeof(U) + sizeof(V)),
                   static_cast<std::int64_t>(sizeof(W))});
  return Info::kSuccess;
}

}  // namespace detail

/// w<mask> = u op v with UNION structure: entry where u or v has one;
/// op applied only where both do.
template <typename W, typename M, typename U, typename V, typename Op>
Info eWiseAdd(Vector<W>& w, const Vector<M>* mask, Op op, const Vector<U>& u,
              const Vector<V>& v, const Descriptor& desc = kDefaultDesc) {
  return detail::ewise("grb::eWiseAdd", true, w, mask, op, u, v, desc);
}

/// Unmasked eWiseAdd.
template <typename W, typename U, typename V, typename Op>
Info eWiseAdd(Vector<W>& w, std::nullptr_t, Op op, const Vector<U>& u,
              const Vector<V>& v, const Descriptor& desc = kDefaultDesc) {
  return eWiseAdd(w, static_cast<const Vector<W>*>(nullptr), op, u, v, desc);
}

/// w<mask> = u op v with INTERSECTION structure: entry only where both have.
template <typename W, typename M, typename U, typename V, typename Op>
Info eWiseMult(Vector<W>& w, const Vector<M>* mask, Op op, const Vector<U>& u,
               const Vector<V>& v, const Descriptor& desc = kDefaultDesc) {
  return detail::ewise("grb::eWiseMult", false, w, mask, op, u, v, desc);
}

/// Unmasked eWiseMult.
template <typename W, typename U, typename V, typename Op>
Info eWiseMult(Vector<W>& w, std::nullptr_t, Op op, const Vector<U>& u,
               const Vector<V>& v, const Descriptor& desc = kDefaultDesc) {
  return eWiseMult(w, static_cast<const Vector<W>*>(nullptr), op, u, v, desc);
}

// ---- GrB_vxm ----------------------------------------------------------------

/// w<mask> = u ⊕.⊗ A over the given semiring. The Matrix wraps an undirected
/// graph's CSR (A = Aᵀ), so row j doubles as column j.
///
/// Pull: the store gathers row j only where the mask allows it — this is
/// where masking "avoids many memory accesses" (paper §III-A1). Push: one
/// launch over u's stored entries, scattering with CAS-loop atomics into a
/// scratch accumulator (integral W only; other types always pull) that the
/// store then merges.
template <typename W, typename M, typename U, typename A, typename AddMonoid,
          typename MulOp>
Info vxm(Vector<W>& w, const Vector<M>* mask,
         Semiring<AddMonoid, MulOp> semiring, const Vector<U>& u,
         const Matrix<A>& a, const Descriptor& desc = kDefaultDesc) {
  if (u.size() != a.nrows() || w.size() != a.ncols()) {
    return Info::kDimensionMismatch;
  }
  if (mask != nullptr && mask->size() != w.size()) {
    return Info::kDimensionMismatch;
  }
  auto& device = sim::Device::instance();
  const detail::FastMaskView<M> view(mask, desc, device);
  const Index n = w.size();
  const auto un = static_cast<std::size_t>(n);
  const graph::Csr& csr = a.csr();

  bool push;
  switch (desc.vxm_mode) {
    case VxmMode::kPush: push = true; break;
    case VxmMode::kPull: push = false; break;
    case VxmMode::kAuto:
    default: {
      // Direction-optimizing heuristic: push while the frontier's edge work
      // is smaller than a full pull pass over the masked outputs.
      const double avg_degree = csr.average_degree();
      push = !u.is_dense() &&
             static_cast<double>(u.nvals()) * avg_degree <
                 static_cast<double>(n);
      break;
    }
  }
  if constexpr (!(std::is_integral_v<W> &&
                  (sizeof(W) == 4 || sizeof(W) == 8))) {
    push = false;  // atomic CAS-combine requires a lock-free integral type
  }

  const W identity = static_cast<W>(semiring.add.identity);

  if (!push) {
    // The store writes w while rows gather u at neighbour positions, so a
    // u that IS w is read from a snapshot.
    std::optional<Vector<U>> snapshot;
    if (static_cast<const void*>(&u) == static_cast<const void*>(&w)) {
      snapshot.emplace(u);
    }
    const detail::DenseView<U> uview(snapshot ? *snapshot : u, device);
    detail::store(
        device, "grb::vxm_pull", w, view, desc.replace,
        [&](Index j, W& out) {
          const auto row = static_cast<std::size_t>(j);
          W acc = identity;
          bool hit = false;
          for (eid_t e = csr.row_offsets[row]; e < csr.row_offsets[row + 1];
               ++e) {
            const auto i = static_cast<Index>(
                csr.col_indices[static_cast<std::size_t>(e)]);
            if (!uview.has(i)) continue;
            acc = static_cast<W>(semiring.add(
                acc, static_cast<W>(semiring.mul(
                         static_cast<W>(uview[i]),
                         static_cast<W>(a.value_at(e))))));
            hit = true;
          }
          out = acc;
          return hit;
        },
        // Per position: the row-offset pair; the row's gathers are
        // data-dependent and excluded (structural floor).
        sim::Traffic{static_cast<std::int64_t>(2 * sizeof(eid_t)), 0});
    return Info::kSuccess;
  }

  const std::span<W> acc =
      device.scratch().get<W>(sim::ScratchLane::kAccumulator, un);
  const std::span<std::uint8_t> hit =
      device.scratch().get<std::uint8_t>(sim::ScratchLane::kFlags, un);
  std::fill(acc.begin(), acc.end(), identity);
  std::fill(hit.begin(), hit.end(), std::uint8_t{0});

  // Per-edge combine shared by both push schedules: CAS under the add
  // monoid (integral W only — non-integral W was forced to pull above).
  const auto combine_edge = [&](Index j, U ui_value, eid_t e) {
    if (!view.allows(j)) return;
    const W product = static_cast<W>(semiring.mul(
        static_cast<W>(ui_value), static_cast<W>(a.value_at(e))));
    if constexpr (std::is_integral_v<W>) {
      std::atomic_ref<W> slot(acc[static_cast<std::size_t>(j)]);
      W observed = slot.load(std::memory_order_relaxed);
      W desired = static_cast<W>(semiring.add(observed, product));
      while (desired != observed &&
             !slot.compare_exchange_weak(observed, desired,
                                         std::memory_order_relaxed)) {
        desired = static_cast<W>(semiring.add(observed, product));
      }
      sim::atomic_store(hit[static_cast<std::size_t>(j)], std::uint8_t{1});
    } else {
      (void)product;
    }
  };

  // Edge-balanced push (merge-path over a frontier degree scan): a hub
  // row's scatter splits across workers instead of serializing on the one
  // that drew the entry — the Gunrock-advance treatment applied to the
  // GraphBLAST push traversal. Only once the frontier is large enough to
  // amortize the scan's extra launches; small frontiers keep the
  // single-launch row walk.
  const bool balanced =
      desc.push_edge_balanced && u.is_sparse() &&
      static_cast<std::int64_t>(u.nvals()) >= kPushEdgeBalanceMinEntries;
  if (balanced) {
    const auto indices = u.sparse_indices();
    const auto uvals = u.sparse_values();
    const auto nvals = static_cast<std::int64_t>(indices.size());
    const std::span<eid_t> offsets = device.scratch().get<eid_t>(
        sim::ScratchLane::kDegrees, static_cast<std::size_t>(nvals) + 1);
    device.launch(
        "grb::vxm_degrees", nvals,
        [&](std::int64_t k) {
          const auto row =
              static_cast<std::size_t>(indices[static_cast<std::size_t>(k)]);
          offsets[static_cast<std::size_t>(k)] =
              csr.row_offsets[row + 1] - csr.row_offsets[row];
        },
        sim::Schedule::kStatic, 0, nullptr,
        // Per frontier entry: the index gather, the row-offset pair, and
        // the degree store.
        sim::Traffic{
            static_cast<std::int64_t>(sizeof(Index) + 2 * sizeof(eid_t)),
            static_cast<std::int64_t>(sizeof(eid_t))});
    const eid_t total = sim::exclusive_scan<eid_t>(
        device, offsets.first(static_cast<std::size_t>(nvals)),
        offsets.first(static_cast<std::size_t>(nvals)));
    offsets[static_cast<std::size_t>(nvals)] = total;
    sim::for_each_segment_range<eid_t>(
        device, "grb::vxm_push", offsets,
        [&](std::int64_t s, std::int64_t local_begin, std::int64_t local_end,
            std::int64_t /*global_begin*/) {
          const auto su = static_cast<std::size_t>(s);
          const auto row = static_cast<std::size_t>(indices[su]);
          const U ui_value = uvals[su];
          const eid_t row_begin = csr.row_offsets[row];
          for (std::int64_t k = local_begin; k < local_end; ++k) {
            const auto e =
                static_cast<eid_t>(row_begin + static_cast<eid_t>(k));
            combine_edge(static_cast<Index>(
                             csr.col_indices[static_cast<std::size_t>(e)]),
                         ui_value, e);
          }
        },
        nullptr,
        // Per edge: one column gather plus the CAS read-modify-write of
        // the accumulator and the present-byte store. Mask early-outs and
        // CAS retries are data-dependent and excluded (structural floor).
        sim::Traffic{static_cast<std::int64_t>(sizeof(vid_t) + sizeof(W)),
                     static_cast<std::int64_t>(sizeof(W)) + 1});
  } else {
    detail::for_each_entry(
        device, u,
        [&](Index i, U ui_value) {
          const auto row = static_cast<std::size_t>(i);
          for (eid_t e = csr.row_offsets[row]; e < csr.row_offsets[row + 1];
               ++e) {
            combine_edge(static_cast<Index>(
                             csr.col_indices[static_cast<std::size_t>(e)]),
                         ui_value, e);
          }
        },
        "grb::vxm_push");
  }

  detail::store(
      device, "grb::vxm_merge", w, view, desc.replace,
      [&](Index j, W& out) {
        const auto uj = static_cast<std::size_t>(j);
        out = acc[uj];
        return hit[uj] != 0;
      },
      // Per position: the accumulator's hit byte and value, then the store.
      sim::Traffic{1 + static_cast<std::int64_t>(sizeof(W)),
                   static_cast<std::int64_t>(sizeof(W))});
  return Info::kSuccess;
}

/// Unmasked vxm.
template <typename W, typename U, typename A, typename AddMonoid,
          typename MulOp>
Info vxm(Vector<W>& w, std::nullptr_t, Semiring<AddMonoid, MulOp> semiring,
         const Vector<U>& u, const Matrix<A>& a,
         const Descriptor& desc = kDefaultDesc) {
  return vxm(w, static_cast<const Vector<W>*>(nullptr), semiring, u, a, desc);
}

/// GrB_mxv: w<mask> = A (+.x) u. The library's matrices wrap undirected
/// graphs (A = A^T), so this is vxm with the operands' roles renamed; both
/// spellings are provided because the two APIs read differently at call
/// sites transcribed from papers.
template <typename W, typename M, typename U, typename A, typename AddMonoid,
          typename MulOp>
Info mxv(Vector<W>& w, const Vector<M>* mask,
         Semiring<AddMonoid, MulOp> semiring, const Matrix<A>& a,
         const Vector<U>& u, const Descriptor& desc = kDefaultDesc) {
  return vxm(w, mask, semiring, u, a, desc);
}

template <typename W, typename U, typename A, typename AddMonoid,
          typename MulOp>
Info mxv(Vector<W>& w, std::nullptr_t, Semiring<AddMonoid, MulOp> semiring,
         const Matrix<A>& a, const Vector<U>& u,
         const Descriptor& desc = kDefaultDesc) {
  return vxm(w, static_cast<const Vector<W>*>(nullptr), semiring, u, a, desc);
}

// ---- GrB_reduce ---------------------------------------------------------------

/// *out = monoid-reduction over u's stored entries: one slotted launch with
/// per-slot partials, folded serially. Sparse storage reduces its entry
/// list; dense and bitmap storage reduce positions, skipping absent ones.
template <typename T, typename U, typename Op>
Info reduce(T* out, Monoid<Op, T> monoid, const Vector<U>& u,
            const Descriptor& = kDefaultDesc) {
  if (out == nullptr) return Info::kInvalidValue;
  auto& device = sim::Device::instance();
  const std::span<const U> values =
      u.is_sparse() ? u.sparse_values() : u.dense_values();
  const std::span<const std::uint8_t> present =
      u.is_bitmap() ? u.bitmap_present() : std::span<const std::uint8_t>{};
  const auto n = static_cast<std::int64_t>(values.size());
  const std::span<T> partials =
      device.scratch().get<T>(sim::ScratchLane::kPartials,
                              device.num_workers());
  device.launch_slots(
      "grb::reduce",
      [&](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, n);
        T local = monoid.identity;
        for (std::int64_t i = begin; i < end; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          if (present.empty() || present[ui] != 0) {
            local = monoid(local, static_cast<T>(values[ui]));
          }
        }
        partials[slot] = local;
      },
      nullptr,
      [n, bitmap = !present.empty()](unsigned slot, unsigned num_slots) {
        const auto [begin, end] = sim::slot_range(slot, num_slots, n);
        // Per position: the value gather (plus the present byte for bitmap
        // storage); one partial per slot.
        return sim::Traffic{
            (end - begin) *
                (static_cast<std::int64_t>(sizeof(U)) + (bitmap ? 1 : 0)),
            static_cast<std::int64_t>(sizeof(T))};
      });
  T total = monoid.identity;
  for (const T partial : partials) total = monoid(total, partial);
  *out = total;
  return Info::kSuccess;
}

// ---- GxB_scatter (paper extension, §IV-A3) ----------------------------------

/// For every stored entry (i, c) of u with mask allowing position i:
///   w[static_cast<Index>(c)] = value, when 0 <= c < w.size().
/// Out-of-range targets are skipped (the paper clamps neighbor colors into
/// the possible-colors array the same way). w must be dense — the paper
/// fills `colors` with GrB_assign first. Duplicate targets are benign (all
/// writers store the same value) but must still be relaxed atomic stores,
/// as on the GPU, or concurrent workers race on the shared slot.
template <typename W, typename M, typename U, typename T>
Info scatter(Vector<W>& w, const Vector<M>* mask, const Vector<U>& u, T value,
             const Descriptor& desc = kDefaultDesc) {
  if (!w.is_dense()) return Info::kInvalidValue;
  if (mask != nullptr && mask->size() != u.size()) {
    return Info::kDimensionMismatch;
  }
  auto& device = sim::Device::instance();
  const detail::FastMaskView<M> view(mask, desc, device);
  auto wv = w.dense_values();
  const Index bound = w.size();
  detail::for_each_entry(
      device, u,
      [&](Index i, U c) {
        if (!view.allows(i)) return;
        const auto target = static_cast<Index>(c);
        if (target < 0 || target >= bound) return;
        sim::atomic_store(wv[static_cast<std::size_t>(target)],
                          static_cast<W>(value));
      },
      "grb::scatter");
  return Info::kSuccess;
}

/// Unmasked scatter overload.
template <typename W, typename U, typename T>
Info scatter(Vector<W>& w, std::nullptr_t, const Vector<U>& u, T value,
             const Descriptor& desc = kDefaultDesc) {
  return scatter(w, static_cast<const Vector<W>*>(nullptr), u, value, desc);
}

}  // namespace gcol::grb
