#pragma once
// grb::Matrix — a square sparse matrix in CSR, the storage the paper feeds
// both frameworks (§IV). Graph-coloring only needs the adjacency pattern, so
// the common constructor wraps a graph::Csr with implicit value 1; weighted
// construction is provided for generality (and for tests that exercise
// semiring multiply values).

#include <cassert>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graphblas/types.hpp"

namespace gcol::grb {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Adjacency-pattern matrix: A(i, j) = 1 for every edge (i, j) of `csr`.
  /// The Csr is referenced, not copied — it must outlive the Matrix.
  explicit Matrix(const graph::Csr& csr) : csr_(&csr) {}

  /// Weighted matrix over the same pattern. `values` is parallel to
  /// csr.col_indices.
  Matrix(const graph::Csr& csr, std::vector<T> values)
      : csr_(&csr), values_(std::move(values)) {
    assert(static_cast<eid_size>(csr.col_indices.size()) == values_.size());
  }

  [[nodiscard]] Index nrows() const noexcept {
    return csr_ ? csr_->num_vertices : 0;
  }
  [[nodiscard]] Index ncols() const noexcept { return nrows(); }
  [[nodiscard]] Index nvals() const noexcept {
    return csr_ ? csr_->num_edges() : 0;
  }

  [[nodiscard]] const graph::Csr& csr() const noexcept {
    assert(csr_ != nullptr);
    return *csr_;
  }

  [[nodiscard]] bool is_pattern() const noexcept { return values_.empty(); }

  /// Values parallel to csr().col_indices; null for a pattern matrix.
  [[nodiscard]] const T* values() const noexcept {
    return values_.empty() ? nullptr : values_.data();
  }

  /// Value of the k-th stored entry (flat CSR position).
  [[nodiscard]] T value_at(eid_t k) const noexcept {
    return values_.empty() ? T{1} : values_[static_cast<eid_size>(k)];
  }

 private:
  using eid_size = std::size_t;
  const graph::Csr* csr_ = nullptr;
  std::vector<T> values_;
};

}  // namespace gcol::grb
