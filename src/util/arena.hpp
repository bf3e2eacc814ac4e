// Bump arena for per-round scratch arrays.
//
// Phase I's consistency censuses and refinement-shape checks need a few
// label/count arrays EVERY round; allocating fresh vectors (or rehashing
// unordered_maps) per round is pure heap churn on the hot path. The arena
// hands out typed spans from one contiguous buffer instead.
//
// Lifetime rules (see DESIGN.md §5, "Arena-backed relabel scratch"):
//   1. reserve() the worst-case byte footprint ONCE, before the round
//      loop. take() never grows the buffer — growth would invalidate the
//      spans already handed out this round — so an undersized arena is a
//      programming error and trips SUBG_CHECK.
//   2. reset() at the top of each round; every span from the previous
//      round is dead after that.
//   3. Spans are uninitialized storage for trivial types; callers fill
//      them before reading.
//
// high_water_bytes() reports the peak live footprint for the obs layer
// ("csr.arena_bytes").
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace subg {

class Arena {
 public:
  Arena() = default;

  /// Fix the capacity for the coming take() calls. Only grows; safe to
  /// call repeatedly with different estimates (e.g. once per Phase I run).
  /// Must not be called while spans from the current round are live.
  void reserve(std::size_t bytes) {
    const std::size_t blocks = (bytes + sizeof(Block) - 1) / sizeof(Block);
    if (blocks > blocks_.size()) blocks_.resize(blocks);
  }

  /// Start a new round: all previously taken spans are dead.
  void reset() { used_ = 0; }

  /// Take `count` elements of trivial type T from the buffer. The storage
  /// is uninitialized; the span is valid until the next reset().
  template <typename T>
  [[nodiscard]] std::span<T> take(std::size_t count) {
    static_assert(std::is_trivial_v<T>,
                  "arena spans are raw storage; non-trivial types would "
                  "need construction/destruction");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    const std::size_t aligned =
        (used_ + alignof(T) - 1) / alignof(T) * alignof(T);
    const std::size_t end = aligned + count * sizeof(T);
    SUBG_CHECK_MSG(end <= capacity_bytes(),
                   "arena overflow: reserve() was not called with the "
                   "worst-case footprint");
    used_ = end;
    if (used_ > high_water_) high_water_ = used_;
    // blocks_ is max-aligned, so any block-granular base pointer plus a
    // T-aligned offset is correctly aligned for T.
    unsigned char* base = reinterpret_cast<unsigned char*>(blocks_.data());
    return {reinterpret_cast<T*>(base + aligned), count};
  }

  [[nodiscard]] std::size_t capacity_bytes() const {
    return blocks_.size() * sizeof(Block);
  }
  [[nodiscard]] std::size_t high_water_bytes() const { return high_water_; }

 private:
  struct alignas(alignof(std::max_align_t)) Block {
    unsigned char bytes[alignof(std::max_align_t)];
  };
  std::vector<Block> blocks_;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace subg
