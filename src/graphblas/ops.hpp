#pragma once
// The GraphBLAS operations used by the paper's Algorithms 2–4, plus the
// GxB_scatter extension the paper introduces for Jones-Plassmann (§IV-A3).
//
// Execution model: every operation is an *expression* — its evaluator's
// `at(i, out)` gives its presence and value at position i — and every
// operation that writes a vector stores its expression through
// detail::store: ONE slotted virtual-GPU launch that, at each position i,
// evaluates the entry, merges it under mask/replace semantics, and writes
// the value and presence byte straight into the output's own (reused)
// buffers while counting entries:
//
//   writes(i) = mask allows i && the expression has an entry at i
//   final(i)  = writes(i) ? its value : (replace ? none : old w[i])
//
// which is the library's masked-assignment rule. The entry is only computed
// where the mask allows it, so masking "avoids many memory accesses" (paper
// §III-A1). Position i is read before it is written, so an element-wise
// output may alias its inputs and its mask. vxm implements both the push
// (iterate sparse input, scatter with atomics into a scratch accumulator,
// then store) and pull (store gathers each allowed row) traversals with
// GraphBLAST's direction-optimizing heuristic [Yang et al., ICPP 2018].
// A deferred op (namespace deferred) hands its expression to a consumer
// instead, as the C API's nonblocking mode permits: a chain of them runs in
// the consumer's one launch and materializes nothing in between.
//
// A launch never evaluates an expression object itself (it may own scratch):
// it evaluates the expression's *evaluator*, a small trivially copyable
// struct of raw pointers that the launch body holds by value, so the body's
// byte stores cannot alias it and it stays in registers across rows.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
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

/// The evaluator of a vector leaf: its values and presence bytes.
template <typename T>
struct LeafEval {
  using value_type = T;
  const T* values;
  const std::uint8_t* present;  // null when every position holds an entry
  bool at(Index i, T& out) const noexcept {
    const auto ui = static_cast<std::size_t>(i);
    if (present != nullptr && present[ui] == 0) return false;
    out = values[ui];
    return true;
  }
};

/// O(1)-lookup view of a vector: dense vectors are viewed in place; sparse
/// vectors are scattered once into scratch (values + presence) so element
/// probes inside O(n)/O(m) loops never pay a binary search. This mirrors
/// GraphBLAST's densify-before-dense-op strategy. It is also the leaf of
/// every expression (see "expressions" below).
template <typename T>
class DenseView {
 public:
  using value_type = T;

  explicit DenseView(const Vector<T>& v)
      : DenseView(v, sim::Device::instance()) {}
  /// Values and presence bytes held elsewhere (push vxm's accumulator).
  DenseView(std::span<const T> values, std::span<const std::uint8_t> present)
      : values_(values), present_(present) {}
  // Move-only: a sparse vector's view spans its own scratch.
  DenseView(DenseView&&) noexcept = default;

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

  [[nodiscard]] LeafEval<T> evaluator() const noexcept {
    return {values_.data(), present_.empty() ? nullptr : present_.data()};
  }
  [[nodiscard]] sim::Traffic traffic() const noexcept {
    return {static_cast<std::int64_t>(sizeof(T)) + (present_.empty() ? 0 : 1),
            0};
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

/// Mask evaluator: value or structure semantics, with complement.
template <typename M>
struct MaskEval {
  LeafEval<M> view;
  bool has_mask;
  bool structure;
  bool complement;
  bool allows(Index i) const noexcept {
    // No mask: everything writable; complementing "all" blocks everything.
    if (!has_mask) return !complement;
    M value{};
    const bool set = view.at(i, value) && (structure || value != M{0});
    return complement ? !set : set;
  }
};

/// Mask + descriptor resolved over a DenseView (value or structure
/// semantics, with complement), so every masked probe is O(1).
template <typename M>
class FastMaskView {
 public:
  FastMaskView(const Vector<M>* mask, const Descriptor& desc,
               sim::Device& device)
      : eval_{{nullptr, nullptr},
              false,
              desc.mask_structure,
              desc.mask_complement} {
    if (mask != nullptr) {
      view_.emplace(*mask, device);
      eval_.view = view_->evaluator();
      eval_.has_mask = true;
    }
  }

  /// True when no mask constrains writes at all.
  [[nodiscard]] bool trivial() const noexcept {
    return !eval_.has_mask && !eval_.complement;
  }

  [[nodiscard]] MaskEval<M> evaluator() const noexcept { return eval_; }

 private:
  std::optional<DenseView<M>> view_;  // owns a sparse mask's scratch
  MaskEval<M> eval_;
};

/// One slotted launch over positions [0, n), claimed in dynamic chunks of
/// n / (8 · workers) since rows differ in cost: `body(slot, begin, end)` runs
/// once per claimed chunk, and `traffic_of(slot)` models the slot's whole
/// share once the launch is done (the body keeps its own per-slot tallies).
template <typename Body, typename TrafficOf>
void claim_chunks(sim::Device& device, const char* name, std::int64_t n,
                  const Body& body, const TrafficOf& traffic_of) {
  const std::int64_t chunk = std::max<std::int64_t>(
      1, n / (8 * static_cast<std::int64_t>(device.num_workers())));
  std::atomic<std::int64_t> next{0};
  constexpr auto kRelaxed = std::memory_order_relaxed;
  device.launch_slots(
      name,
      [&](unsigned slot, unsigned) {
        for (std::int64_t begin = next.fetch_add(chunk, kRelaxed); begin < n;
             begin = next.fetch_add(chunk, kRelaxed)) {
          body(slot, begin, std::min(begin + chunk, n));
        }
      },
      nullptr, [&](unsigned slot, unsigned) { return traffic_of(slot); });
}

/// claim_chunks over positions [0, n): `visit(i)` returns whether i counts,
/// and the per-slot counts sum to the result. `per_position` is one visit's
/// modeled traffic; each slot also writes its two tallies.
template <typename Visit>
std::int64_t count_positions(sim::Device& device, const char* name,
                             std::int64_t n, const Visit& visit,
                             sim::Traffic per_position) {
  const unsigned workers = device.num_workers();
  // Per slot: its count, then the number of positions it claimed.
  const std::span<std::int64_t> tallies = device.scratch().get<std::int64_t>(
      sim::ScratchLane::kPartials, 2 * static_cast<std::size_t>(workers));
  std::fill(tallies.begin(), tallies.end(), 0);
  claim_chunks(
      device, name, n,
      [&](unsigned slot, std::int64_t begin, std::int64_t end) {
        // A local copy, so the visit's byte stores cannot alias its state.
        const Visit local = visit;
        std::int64_t counted = 0;
        for (std::int64_t i = begin; i < end; ++i) {
          counted += local(i) ? 1 : 0;
        }
        tallies[slot] += counted;
        tallies[workers + slot] += end - begin;
      },
      [&](unsigned slot) {
        return per_position * tallies[workers + slot] +
               sim::Traffic{0, 2 * static_cast<std::int64_t>(sizeof(Index))};
      });
  std::int64_t total = 0;
  for (unsigned slot = 0; slot < workers; ++slot) total += tallies[slot];
  return total;
}

/// The one store of every vector-writing op: a single count_positions
/// launch in which each position evaluates `expr` only where the mask
/// allows, applies the replace/keep-old rule, and writes value and presence
/// byte into w's own buffers. The entry count is nvals; dense storage is
/// installed when it is n. The expression's traffic and the value store
/// are counted only without a mask (a masked position may skip them); the
/// presence byte is the floor.
template <typename W, typename M, typename Expr>
void store(sim::Device& device, const char* name, Vector<W>& w,
           const FastMaskView<M>& mask, bool replace, const Expr& expr) {
  const auto out = w.store_slots(/*keep=*/!replace);
  W* const values = out.values.data();
  std::uint8_t* const present = out.present.data();
  const bool unmasked = mask.trivial();
  const bool keep_dense = !replace && out.dense;
  const bool keep_bitmap = !replace && !out.dense;
  const std::int64_t nvals = count_positions(
      device, name, w.size(),
      [=, allow = mask.evaluator(), eval = expr.evaluator()](Index i) {
        typename Expr::value_type value{};
        const bool writes = (unmasked || allow.allows(i)) && eval.at(i, value);
        if (writes) values[i] = static_cast<W>(value);
        const bool has =
            writes || keep_dense || (keep_bitmap && present[i] != 0);
        present[i] = has ? 1 : 0;
        return has;
      },
      sim::Traffic{0, 1} +
          (unmasked ? expr.traffic() +
                          sim::Traffic{0, static_cast<std::int64_t>(sizeof(W))}
                    : sim::Traffic{}));
  w.commit_store(nvals);
}

// ---- expressions ------------------------------------------------------------
// Each has a value_type T (the type it computes in), `traffic()` (one
// evaluation's modeled reads) and `evaluator()`, which has the same
// value_type and `at(i, out)`, returning whether the expression has an entry
// at i. Operands are DenseViews or other expressions.

template <typename E>
using value_of = typename std::remove_cvref_t<E>::value_type;

/// How a deferred op holds an operand: a vector by a DenseView, an lvalue
/// expression by reference, an rvalue expression by value.
template <typename E>
struct OperandOf {
  using type = std::conditional_t<std::is_lvalue_reference_v<E>,
                                  const std::remove_reference_t<E>&,
                                  std::remove_cvref_t<E>>;
};
template <typename T>
struct OperandOf<Vector<T>&> {
  using type = DenseView<T>;
};
template <typename T>
struct OperandOf<const Vector<T>&> {
  using type = DenseView<T>;
};
template <typename E>
using operand_t = typename OperandOf<E>::type;

/// GrB_assign's scalar, at every position (eager only). Its own evaluator.
template <typename T>
struct ScalarExpr {
  using value_type = T;
  T value;
  bool at(Index, T& out) const noexcept {
    out = value;
    return true;
  }
  [[nodiscard]] sim::Traffic traffic() const noexcept { return {}; }
  [[nodiscard]] ScalarExpr evaluator() const noexcept { return *this; }
};

/// f(i, u(i)) wherever u has an entry.
template <typename T, typename UE, typename F>
struct ApplyEval {
  using value_type = T;
  UE u;
  F f;
  bool at(Index i, T& out) const {
    value_of<UE> x{};
    if (!u.at(i, x)) return false;
    out = static_cast<T>(f(i, x));
    return true;
  }
};

template <typename T, typename U, typename F>
struct ApplyExpr {
  using value_type = T;
  U u;
  F f;
  [[nodiscard]] sim::Traffic traffic() const noexcept { return u.traffic(); }
  [[nodiscard]] auto evaluator() const {
    return ApplyEval<T, decltype(u.evaluator()), F>{u.evaluator(), f};
  }
};

/// Pull vxm at j: the add-monoid reduction of u(i) ⊗ A(i, j) over row j
/// (A = Aᵀ), stopping at the monoid's terminal value. A position the mask
/// blocks has no entry (replace semantics). `values` is null for a pattern
/// matrix (every A(i, j) = 1).
template <typename T, typename UE, typename ME, typename A, typename Add,
          typename Mul>
struct PullEval {
  using value_type = T;
  /// A max reduction never decreases, so "x > the row's max" is decided at
  /// the first neighbor reaching x (see EwiseEval).
  static constexpr bool kMax = std::is_same_v<decltype(Add::op), Max>;
  const eid_t* offsets;
  const vid_t* cols;
  const A* values;
  Semiring<Add, Mul> semiring;
  T identity;
  T terminal;
  bool has_terminal;
  UE u;
  ME mask;

  bool at(Index j, T& out) const {
    return reduce(j, out, [](T) { return false; });
  }
  /// As at(), but may stop once the running max reaches `bound`: `out` is
  /// then not the row's max, but bound > out is false, as for the max.
  bool at_below(Index j, T& out, T bound) const {
    return reduce(j, out, [bound](T acc) { return !(bound > acc); });
  }

 private:
  template <typename Stop>
  bool reduce(Index j, T& out, Stop stop) const {
    if (!mask.allows(j)) return false;
    // One row loop per case, so a monoid without a terminal value tests
    // none per edge and a pattern's A(i, j) = 1 folds into the multiply.
    if (has_terminal) {
      return values == nullptr ? row<true, true>(j, out, stop)
                               : row<true, false>(j, out, stop);
    }
    return values == nullptr ? row<false, true>(j, out, stop)
                             : row<false, false>(j, out, stop);
  }
  template <bool Terminal, bool Pattern, typename Stop>
  bool row(Index j, T& out, Stop stop) const {
    const auto r = static_cast<std::size_t>(j);
    T acc = identity;
    bool hit = false;
    for (eid_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      value_of<UE> x{};
      if (!u.at(static_cast<Index>(cols[e]), x)) continue;
      const A aij = Pattern ? A{1} : values[e];
      acc = static_cast<T>(semiring.add(
          acc, static_cast<T>(semiring.mul(static_cast<T>(x),
                                           static_cast<T>(aij)))));
      hit = true;
      if ((Terminal && acc == terminal) || stop(acc)) break;
    }
    out = acc;
    return hit;
  }
};

template <typename E>
inline constexpr bool kIsMaxPull = requires { requires E::kMax; };

/// u op v with eWiseAdd's UNION structure (an entry where u or v has one,
/// op only where both do) or eWiseMult's INTERSECTION (entry only where
/// both do; v is not evaluated where u has none).
///
/// Short circuit: GT(u, max-pull) wherever u has an entry x only asks
/// whether x exceeds the row's max, so the pull may stop at the first
/// neighbor reaching x (PullEval::at_below). GT is then 0, as for the full
/// max. Where u has no entry, the union takes the full max.
template <typename T, typename UE, typename VE, typename Op>
struct EwiseEval {
  using value_type = T;
  static constexpr bool kBounded = std::is_same_v<Op, Greater> &&
                                   kIsMaxPull<VE> &&
                                   std::is_same_v<T, value_of<VE>>;
  UE u;
  VE v;
  Op op;
  bool union_structure;
  bool at(Index i, T& out) const {
    value_of<UE> x{};
    value_of<VE> y{};
    const bool has_u = u.at(i, x);
    if (!has_u && !union_structure) return false;
    bool has_v;
    if constexpr (kBounded) {
      has_v = has_u ? v.at_below(i, y, static_cast<T>(x)) : v.at(i, y);
    } else {
      has_v = v.at(i, y);
    }
    if (has_u && has_v) {
      out = static_cast<T>(op(static_cast<T>(x), static_cast<T>(y)));
      return true;
    }
    if (has_u) out = static_cast<T>(x);
    if (has_v) out = static_cast<T>(y);
    return union_structure && (has_u || has_v);
  }
};

template <typename T, typename U, typename V, typename Op>
struct EwiseExpr {
  using value_type = T;
  U u;
  V v;
  Op op;
  bool union_structure;
  [[nodiscard]] sim::Traffic traffic() const noexcept {
    return u.traffic() + v.traffic();
  }
  [[nodiscard]] auto evaluator() const {
    return EwiseEval<T, decltype(u.evaluator()), decltype(v.evaluator()), Op>{
        u.evaluator(), v.evaluator(), op, union_structure};
  }
};

/// A deferred eWiseAdd (union) or eWiseMult, computed in the operands'
/// common type.
template <typename Op, typename U, typename V>
auto make_ewise(bool union_structure, Op op, U&& u, V&& v) {
  using UE = operand_t<U>;
  using VE = operand_t<V>;
  using T = std::common_type_t<value_of<UE>, value_of<VE>>;
  return EwiseExpr<T, UE, VE, Op>{UE(std::forward<U>(u)),
                                  VE(std::forward<V>(v)), op,
                                  union_structure};
}

/// Pull vxm (see PullEval).
template <typename T, typename U, typename A, typename Add, typename Mul,
          typename M>
struct PullExpr {
  using value_type = T;
  const Matrix<A>* a;
  Semiring<Add, Mul> semiring;
  U u;
  FastMaskView<M> mask;

  // Per position: the row-offset pair; the row's gathers are data-dependent
  // and excluded (structural floor).
  [[nodiscard]] sim::Traffic traffic() const noexcept {
    return {static_cast<std::int64_t>(2 * sizeof(eid_t)), 0};
  }
  [[nodiscard]] auto evaluator() const {
    const auto& csr = a->csr();
    return PullEval<T, decltype(u.evaluator()), MaskEval<M>, A, Add, Mul>{
        csr.row_offsets.data(),
        csr.col_indices.data(),
        a->values(),
        semiring,
        static_cast<T>(semiring.add.identity),
        static_cast<T>(semiring.add.terminal.value_or(semiring.add.identity)),
        semiring.add.terminal.has_value(),
        u.evaluator(),
        mask.evaluator()};
  }
};

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
  detail::store(device, "grb::assign", w, view, desc.replace,
                detail::ScalarExpr<W>{v});
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
  detail::store(device, "grb::apply", w, view, desc.replace,
                detail::ApplyExpr<W, detail::DenseView<U>, F>{
                    detail::DenseView<U>(u, device), f});
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
  store(device, name, w, view, desc.replace,
        EwiseExpr<W, DenseView<U>, DenseView<V>, Op>{
            DenseView<U>(u, device), DenseView<V>(v, device), op,
            union_structure});
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
    // The store applies the mask; the expression's own is empty.
    detail::store(device, "grb::vxm_pull", w, view, desc.replace,
                  detail::PullExpr<W, detail::DenseView<U>, A, AddMonoid,
                                   MulOp, M>{
                      &a, semiring,
                      detail::DenseView<U>(snapshot ? *snapshot : u, device),
                      detail::FastMaskView<M>(nullptr, kDefaultDesc, device)});
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
  const auto allow = view.evaluator();
  const auto combine_edge = [&](Index j, U ui_value, eid_t e) {
    if (!allow.allows(j)) return;
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
      u.is_sparse() &&
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

  detail::store(device, "grb::vxm_merge", w, view, desc.replace,
                detail::DenseView<W>(acc, hit));
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

// ---- Deferred ops ---------------------------------------------------------

/// w<mask> = expr: materializes a deferred expression under the mask and
/// replace rules every op stores by, in one launch for the whole chain. No
/// deferred vxm inside expr may read w (its rows would see new entries).
template <typename W, typename M, typename E>
Info store(Vector<W>& w, const Vector<M>* mask, const E& expr,
           const Descriptor& desc = kDefaultDesc) {
  if (mask != nullptr && mask->size() != w.size()) {
    return Info::kDimensionMismatch;
  }
  auto& device = sim::Device::instance();
  detail::store(device, "grb::store", w,
                detail::FastMaskView<M>(mask, desc, device), desc.replace,
                expr);
  return Info::kSuccess;
}

/// Ops that return their expression over vectors or other expressions, for a
/// consumer to evaluate per position. Operands must outlive it; sizes agree.
namespace deferred {

/// u ⊕.⊗ A, always pulled, with replace semantics: a position the mask
/// blocks has no entry. Computed in the add monoid's type.
template <typename M, typename Add, typename Mul, typename U, typename A>
auto vxm(const Vector<M>* mask, Semiring<Add, Mul> semiring, U&& u,
         const Matrix<A>& a, const Descriptor& desc = kDefaultDesc) {
  assert(desc.vxm_mode != VxmMode::kPush);
  using T = decltype(semiring.add.identity);
  using UE = detail::operand_t<U>;
  return detail::PullExpr<T, UE, A, Add, Mul, M>{
      &a, semiring, UE(std::forward<U>(u)),
      detail::FastMaskView<M>(mask, desc, sim::Device::instance())};
}

/// u op v with union structure (see grb::eWiseAdd).
template <typename Op, typename U, typename V>
auto eWiseAdd(Op op, U&& u, V&& v) {
  return detail::make_ewise(true, op, std::forward<U>(u), std::forward<V>(v));
}

/// u op v with intersection structure (see grb::eWiseMult).
template <typename Op, typename U, typename V>
auto eWiseMult(Op op, U&& u, V&& v) {
  return detail::make_ewise(false, op, std::forward<U>(u), std::forward<V>(v));
}

/// f(u) over u's entries.
template <typename F, typename U>
auto apply(F f, U&& u) {
  using UE = detail::operand_t<U>;
  using X = detail::value_of<UE>;
  const auto g = [f](Index, X x) { return f(x); };
  return detail::ApplyExpr<std::remove_cvref_t<std::invoke_result_t<F, X>>,
                           UE, decltype(g)>{UE(std::forward<U>(u)), g};
}

}  // namespace deferred

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
  const auto allow = view.evaluator();
  auto wv = w.dense_values();
  const Index bound = w.size();
  detail::for_each_entry(
      device, u,
      [&](Index i, U c) {
        if (!allow.allows(i)) return;
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
