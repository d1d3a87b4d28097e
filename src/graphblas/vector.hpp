#pragma once
// grb::Vector — a GraphBLAS vector with the multi-representation design
// GraphBLAST/SuiteSparse use. "The GraphBLAS API hides the distinction
// between sparse vs. dense vectors ... but allows the implementation to
// internally call different subroutines based on input sparsity" (paper
// §III-A3).
//
// Representations:
//   - Sparse: strictly-ascending indices_ + parallel values_; positions not
//     listed hold no entry. Produced by set_element/build.
//   - Dense: every position holds an entry; values_ has size() elements.
//   - Bitmap: values_ has size() elements, present_ marks which positions
//     hold entries, nvals_ counts them. Produced by operations that leave
//     some positions empty, so a store never pays an O(nvals) compaction.
// Conversions never change semantics (which positions hold entries and
// their values), except densify()'s documented fill.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graphblas/types.hpp"

namespace gcol::grb {

enum class Storage { kSparse, kDense, kBitmap };

template <typename T>
class Vector {
 public:
  Vector() = default;

  /// A vector of dimension `size` with no stored entries.
  explicit Vector(Index size) : size_(size < 0 ? 0 : size) {}

  [[nodiscard]] Index size() const noexcept { return size_; }

  [[nodiscard]] Storage storage() const noexcept { return storage_; }

  [[nodiscard]] bool is_dense() const noexcept {
    return storage_ == Storage::kDense;
  }
  [[nodiscard]] bool is_bitmap() const noexcept {
    return storage_ == Storage::kBitmap;
  }
  [[nodiscard]] bool is_sparse() const noexcept {
    return storage_ == Storage::kSparse;
  }

  /// Number of stored entries.
  [[nodiscard]] Index nvals() const noexcept {
    switch (storage_) {
      case Storage::kDense: return size_;
      case Storage::kBitmap: return nvals_;
      case Storage::kSparse: return static_cast<Index>(indices_.size());
    }
    return 0;
  }

  /// Removes all entries (result is an empty sparse vector).
  void clear() noexcept {
    storage_ = Storage::kSparse;
    values_.clear();
    indices_.clear();
    present_.clear();
    nvals_ = 0;
  }

  /// Makes every position hold `value` (dense).
  void fill(T value) {
    storage_ = Storage::kDense;
    indices_.clear();
    values_.assign(static_cast<std::size_t>(size_), value);
    nvals_ = size_;
  }

  /// Whether position `i` holds an entry. O(1) dense/bitmap, O(log) sparse.
  [[nodiscard]] bool has(Index i) const noexcept {
    switch (storage_) {
      case Storage::kDense: return true;
      case Storage::kBitmap:
        return present_[static_cast<std::size_t>(i)] != 0;
      case Storage::kSparse:
        return std::binary_search(indices_.begin(), indices_.end(), i);
    }
    return false;
  }

  /// Inserts or overwrites the entry at `i`.
  Info set_element(Index i, T value) {
    if (i < 0 || i >= size_) return Info::kIndexOutOfBounds;
    switch (storage_) {
      case Storage::kDense:
        values_[static_cast<std::size_t>(i)] = value;
        return Info::kSuccess;
      case Storage::kBitmap:
        if (present_[static_cast<std::size_t>(i)] == 0) {
          present_[static_cast<std::size_t>(i)] = 1;
          ++nvals_;
        }
        values_[static_cast<std::size_t>(i)] = value;
        return Info::kSuccess;
      case Storage::kSparse: break;
    }
    if (indices_.empty() || indices_.back() < i) {
      indices_.push_back(i);
      values_.push_back(value);
      return Info::kSuccess;
    }
    const auto pos = std::lower_bound(indices_.begin(), indices_.end(), i);
    const auto offset = pos - indices_.begin();
    if (pos != indices_.end() && *pos == i) {
      values_[static_cast<std::size_t>(offset)] = value;
    } else {
      indices_.insert(pos, i);
      values_.insert(values_.begin() + offset, value);
    }
    return Info::kSuccess;
  }

  /// Reads the entry at `i` into `*out`; kNoValue when no entry is stored.
  Info extract_element(T* out, Index i) const {
    if (i < 0 || i >= size_) return Info::kIndexOutOfBounds;
    switch (storage_) {
      case Storage::kDense:
        *out = values_[static_cast<std::size_t>(i)];
        return Info::kSuccess;
      case Storage::kBitmap:
        if (present_[static_cast<std::size_t>(i)] == 0) return Info::kNoValue;
        *out = values_[static_cast<std::size_t>(i)];
        return Info::kSuccess;
      case Storage::kSparse: break;
    }
    const auto pos = std::lower_bound(indices_.begin(), indices_.end(), i);
    if (pos == indices_.end() || *pos != i) return Info::kNoValue;
    *out = values_[static_cast<std::size_t>(pos - indices_.begin())];
    return Info::kSuccess;
  }

  /// Replaces contents with the given sparse entries (GrB_Vector_build).
  /// Indices need not be sorted; duplicates are an error.
  Info build(std::span<const Index> indices, std::span<const T> values) {
    if (indices.size() != values.size()) return Info::kDimensionMismatch;
    std::vector<std::size_t> order(indices.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return indices[a] < indices[b];
    });
    storage_ = Storage::kSparse;
    present_.clear();
    nvals_ = 0;
    indices_.resize(indices.size());
    values_.resize(values.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Index i = indices[order[k]];
      if (i < 0 || i >= size_) return Info::kIndexOutOfBounds;
      if (k > 0 && indices_[k - 1] == i) return Info::kInvalidValue;
      indices_[k] = i;
      values_[k] = values[order[k]];
    }
    return Info::kSuccess;
  }

  /// Converts to dense, giving previously-missing positions `missing_value`.
  void densify(T missing_value) {
    switch (storage_) {
      case Storage::kDense: return;
      case Storage::kBitmap: {
        for (std::size_t i = 0; i < present_.size(); ++i) {
          if (present_[i] == 0) values_[i] = missing_value;
        }
        present_.clear();
        storage_ = Storage::kDense;
        nvals_ = size_;
        return;
      }
      case Storage::kSparse: break;
    }
    std::vector<T> dense_values(static_cast<std::size_t>(size_),
                                missing_value);
    for (std::size_t k = 0; k < indices_.size(); ++k) {
      dense_values[static_cast<std::size_t>(indices_[k])] = values_[k];
    }
    values_ = std::move(dense_values);
    indices_.clear();
    storage_ = Storage::kDense;
    nvals_ = size_;
  }

  // -- raw representation access (for ops.hpp and tests) --------------------

  /// Dense values; valid for dense AND bitmap storage (bitmap values at
  /// non-present positions are unspecified).
  [[nodiscard]] std::span<T> dense_values() noexcept {
    assert(storage_ != Storage::kSparse);
    return values_;
  }
  [[nodiscard]] std::span<const T> dense_values() const noexcept {
    assert(storage_ != Storage::kSparse);
    return values_;
  }

  /// Bitmap presence flags; valid only for bitmap storage.
  [[nodiscard]] std::span<const std::uint8_t> bitmap_present() const noexcept {
    assert(storage_ == Storage::kBitmap);
    return present_;
  }

  /// Sparse indices/values; valid only for sparse storage.
  [[nodiscard]] std::span<const Index> sparse_indices() const noexcept {
    assert(storage_ == Storage::kSparse);
    return indices_;
  }
  [[nodiscard]] std::span<const T> sparse_values() const noexcept {
    assert(storage_ == Storage::kSparse);
    return values_;
  }

  /// Install representations wholesale (tests build fixtures this way).
  /// `indices` must be strictly ascending.
  void adopt_sparse(std::vector<Index>&& indices, std::vector<T>&& values) {
    assert(indices.size() == values.size());
    storage_ = Storage::kSparse;
    indices_ = std::move(indices);
    values_ = std::move(values);
    nvals_ = 0;
  }

  void adopt_dense(std::vector<T>&& values) {
    assert(static_cast<Index>(values.size()) == size_);
    storage_ = Storage::kDense;
    indices_.clear();
    values_ = std::move(values);
    nvals_ = size_;
  }

  void adopt_bitmap(std::vector<T>&& values,
                    std::vector<std::uint8_t>&& present, Index nvals) {
    assert(static_cast<Index>(values.size()) == size_);
    assert(static_cast<Index>(present.size()) == size_);
    storage_ = Storage::kBitmap;
    indices_.clear();
    values_ = std::move(values);
    present_ = std::move(present);
    nvals_ = nvals;
  }

  /// Output buffers of ops.hpp's in-place store: value and presence spans
  /// over size() positions that keep their old contents (reused, never
  /// re-initialized), so the store reads an old entry right before it
  /// overwrites it. `present` is stale when `dense`. Sparse entries are
  /// scattered in when `keep` is set, dropped otherwise. commit_store
  /// installs the result.
  struct StoreSlots {
    std::span<T> values;
    std::span<std::uint8_t> present;
    bool dense;
  };
  StoreSlots store_slots(bool keep) {
    const auto n = static_cast<std::size_t>(size_);
    const bool dense = storage_ == Storage::kDense;
    if (storage_ == Storage::kSparse) {
      values_.resize(n);
      present_.assign(n, 0);
      // Back to front: indices_[k] >= k, so no unread value is overwritten.
      for (std::size_t k = keep ? indices_.size() : 0; k-- > 0;) {
        const auto i = static_cast<std::size_t>(indices_[k]);
        values_[i] = values_[k];
        present_[i] = 1;
      }
      indices_.clear();
    }
    present_.resize(n);
    return {values_, present_, dense};
  }

  /// Installs a store's result: dense when every position holds an entry.
  void commit_store(Index nvals) noexcept {
    storage_ = nvals == size_ ? Storage::kDense : Storage::kBitmap;
    nvals_ = nvals;
  }

 private:
  Index size_ = 0;
  Storage storage_ = Storage::kSparse;
  std::vector<T> values_;
  std::vector<Index> indices_;         // sparse only
  std::vector<std::uint8_t> present_;  // bitmap; a reused buffer otherwise
  Index nvals_ = 0;                    // bitmap only
};

}  // namespace gcol::grb
