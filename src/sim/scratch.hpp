#pragma once
// Reusable per-context scratch memory for the substrate primitives — the CPU
// analogue of cub's pre-allocated d_temp_storage. Before this arena existed,
// every exclusive_scan / compaction / reduction call allocated (and freed)
// its flags / positions / block_sums vectors, so the per-iteration hot loop
// of every coloring algorithm paid malloc traffic per kernel launch. The
// arena keeps one growing byte block per *lane*; a primitive re-types its
// lane on each call and nested primitives use distinct lanes, so a scan
// running inside a compaction (or an advance) never aliases its caller's
// scratch.
//
// Pool backing: an arena constructed over a DevicePool draws its blocks from
// the pool's size buckets and returns them there on release()/destruction.
// Each stream's execution context owns one such arena, so a retired stream's
// lanes are recycled by the next stream instead of hitting the allocator —
// the "scratch lanes per stream" half of the zero-steady-state-allocation
// story (see device_pool.hpp). A default-constructed arena owns its blocks
// directly; the observable behavior (growth, retention, pointers) is
// identical either way.
//
// Thread-safety contract: same as a context's launch API — scratch is
// acquired on the launching thread between launches; workers may read/write
// the spans inside a launch (the launch barrier orders those accesses).
// Distinct streams use distinct arenas; concurrent use of ONE arena was
// never supported and still is not.

#include <bit>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>

#include "sim/device_pool.hpp"

namespace gcol::sim {

/// Fixed lane assignments. Two primitives may share a lane only if one can
/// never run while the other still needs its scratch.
enum class ScratchLane : unsigned {
  kBlockSums = 0,  ///< scan: per-slot block sums
  kPartials,       ///< reduce / count_if: per-slot partials
  kFlags,          ///< compaction predicate flags; push vxm hit bytes
  kSlotCounts,     ///< compaction: per-slot kept counts
  kDegrees,        ///< advance / push vxm: per-item degrees -> offsets
  kCarries,        ///< fused segmented reduce: per-slot boundary carries
  kPalette,        ///< bit-packed forbidden-color masks (per-slot words)
  kFrontier,       ///< bitmap push: materialized set-bit vertex list
  kHistogram,      ///< histogram / counting sort: per-slot per-bin counts
  kAccumulator,    ///< push vxm: per-position accumulator values
  kLaneCount,
};

class ScratchArena {
 public:
  /// Self-owned arena: blocks come straight from operator new.
  ScratchArena() = default;
  /// Pool-backed arena: blocks are drawn from (and returned to) `pool`,
  /// which must outlive the arena. nullptr behaves like the default ctor.
  explicit ScratchArena(DevicePool* pool) noexcept : pool_(pool) {}
  ~ScratchArena() { release(); }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// A span of `n` Ts backed by the lane's block, grown (never shrunk) as
  /// needed. Contents are uninitialized — lanes are freely re-typed between
  /// calls, so only trivial element types are allowed.
  template <typename T>
  [[nodiscard]] std::span<T> get(ScratchLane lane, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_default_constructible_v<T>,
                  "scratch lanes hold raw re-typeable storage");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types need a dedicated allocation");
    Block& block = blocks_[static_cast<unsigned>(lane)];
    const std::size_t bytes = n * sizeof(T);
    if (block.size < bytes) grow(block, std::bit_ceil(bytes));
    return {reinterpret_cast<T*>(block.data), n};
  }

  /// Bytes currently retained across all lanes (for tests / introspection).
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

  /// Releases every lane's block — to the backing pool when one is set
  /// (e.g. a stream retiring its context), upstream otherwise.
  void release() noexcept {
    for (Block& block : blocks_) {
      free_block(block);
      block = Block{};
    }
  }

 private:
  struct Block {
    std::byte* data = nullptr;
    std::size_t size = 0;
  };

  void grow(Block& block, std::size_t new_size) {
    free_block(block);
    block.data = static_cast<std::byte*>(
        pool_ != nullptr ? pool_->allocate(new_size)
                         : ::operator new(new_size));
    // A pool bucket may be larger than asked; the lane may use all of it.
    block.size = pool_ != nullptr ? DevicePool::bucket_bytes(new_size)
                                  : new_size;
  }

  void free_block(Block& block) noexcept {
    if (block.data == nullptr) return;
    if (pool_ != nullptr) {
      pool_->deallocate(block.data, block.size);
    } else {
      ::operator delete(block.data);
    }
  }

  Block blocks_[static_cast<unsigned>(ScratchLane::kLaneCount)];
  DevicePool* pool_ = nullptr;
};

}  // namespace gcol::sim
