#pragma once
// Binary operators, monoids and generalized semirings — the algebra layer of
// the GraphBLAS abstraction (§III-A3 of the paper). The coloring algorithms
// use two of the predefined semirings proposal [Mattson et al., HPEC 2017]:
// MaxTimes for "largest-weighted neighbor" and Boolean (LorLand) for
// reachability-style traversals.

#include <algorithm>
#include <limits>
#include <optional>

namespace gcol::grb {

// ---- binary operators -------------------------------------------------

struct Plus {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return static_cast<T>(a + b);
  }
};

struct Times {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return static_cast<T>(a * b);
  }
};

struct Min {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return b < a ? b : a;
  }
};

struct Max {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return b > a ? b : a;
  }
};

/// GrB_GT: the paper's GrB_INT32GT — 1 when a > b, else 0. Result is in the
/// operand domain so it composes with integer vectors.
struct Greater {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return static_cast<T>(a > b ? 1 : 0);
  }
};

struct LogicalOr {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return static_cast<T>((a != T{0}) || (b != T{0}) ? 1 : 0);
  }
};

struct LogicalAnd {
  template <typename T>
  constexpr T operator()(T a, T b) const noexcept {
    return static_cast<T>((a != T{0}) && (b != T{0}) ? 1 : 0);
  }
};

// ---- monoids ------------------------------------------------------------

/// A commutative monoid: associative binary op plus its identity in T and,
/// optionally, its terminal (absorbing) value, as SuiteSparse:GraphBLAS
/// declares one: a reduction that reaches it may stop.
template <typename Op, typename T>
struct Monoid {
  Op op{};
  T identity{};
  std::optional<T> terminal{};

  constexpr T operator()(T a, T b) const noexcept { return op(a, b); }
};

template <typename T>
constexpr Monoid<Plus, T> plus_monoid() noexcept {
  return {Plus{}, T{0}};
}

template <typename T>
constexpr Monoid<Max, T> max_monoid() noexcept {
  return {Max{}, std::numeric_limits<T>::lowest()};
}

template <typename T>
constexpr Monoid<Min, T> min_monoid() noexcept {
  return {Min{}, std::numeric_limits<T>::max()};
}

template <typename T>
constexpr Monoid<LogicalOr, T> lor_monoid() noexcept {
  return {LogicalOr{}, T{0}, T{1}};
}

// ---- semirings ------------------------------------------------------------

/// Generalized semiring (add-monoid, multiply-op). vxm computes
///   w[j] = add over i of mul(u[i], A(i, j)).
template <typename AddMonoid, typename MulOp>
struct Semiring {
  AddMonoid add{};
  MulOp mul{};
};

/// GrB_INT32MaxTimes of the paper: (max, x). With a pattern matrix (all
/// A(i,j) = 1), vxm yields each vertex's maximum neighbor value.
template <typename T>
constexpr Semiring<Monoid<Max, T>, Times> max_times_semiring() noexcept {
  return {max_monoid<T>(), Times{}};
}

/// GrB_Boolean of the paper: (or, and) — pure reachability.
template <typename T>
constexpr Semiring<Monoid<LogicalOr, T>, LogicalAnd>
boolean_semiring() noexcept {
  return {lor_monoid<T>(), LogicalAnd{}};
}

}  // namespace gcol::grb
