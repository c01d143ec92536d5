// Bump-pointer workspace arena for the solver pipelines.
//
// Every hot path used to construct its temporaries as fresh heap
// Matrix<float> objects (18 construction sites in the SBR/EVD/SVD pipelines
// alone). A Workspace replaces those with O(1) pointer-bump checkouts from a
// preallocated block, so a steady-state solver performs zero allocations
// per call: the first solve sizes the arena (via the workspace_query APIs or
// by spilling), every following same-shape solve reuses it.
//
// Model:
//   * Allocation is a bump of the current block's offset, aligned to
//     kAlignment. Checkouts are only released through Scope objects.
//   * A Scope is an RAII mark/release pair: everything allocated after the
//     Scope was opened is freed (the bump pointers rewind) when it is
//     destroyed. Scopes nest arbitrarily; they must be destroyed in LIFO
//     order, which C++ block structure guarantees.
//   * When a request does not fit in any available block, the arena spills
//     to the heap: a fresh block large enough for the request is appended
//     and the allocation succeeds. Spills are counted — a steady-state
//     workload should show zero new blocks after its first iteration (see
//     tests/test_workspace.cpp).
//   * High-water-mark statistics record the peak number of bytes in use, so
//     callers can validate workspace_query estimates.
//
// Thread safety: none. A Workspace (like the Context that owns it) belongs
// to exactly one thread; concurrent solves use one Workspace each.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/matrix.hpp"

namespace tcevd {

class Workspace {
 public:
  /// Alignment of every checkout (cache line / SIMD friendly).
  static constexpr std::size_t kAlignment = 64;
  /// Minimum size of a spill block, so pathological call patterns do not
  /// degenerate into one block per allocation.
  static constexpr std::size_t kMinBlockBytes = std::size_t{1} << 20;  // 1 MiB

  Workspace() = default;
  explicit Workspace(std::size_t initial_bytes) { reserve(initial_bytes); }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Ensure a single block of at least `bytes` exists (LAPACK-lwork style:
  /// pair with sbr::workspace_query / evd::workspace_query). A no-op when
  /// the largest block is already big enough; never discards live data.
  /// When the arena is idle (nothing checked out) but fragmented across
  /// spill blocks none of which satisfies `bytes`, the empty blocks are
  /// replaced by one block of max(bytes, high_water_mark()), so a driver
  /// that re-reserves between iterations rewinds to one contiguous block
  /// covering its observed peak instead of re-spilling forever — the
  /// steady-state contract the EvdService context pool leans on.
  void reserve(std::size_t bytes);

  /// Raw aligned checkout, uninitialized. The returned memory is owned by
  /// the arena and lives until the innermost Scope open at the time of the
  /// call closes.
  void* alloc_bytes(std::size_t bytes, std::size_t align = kAlignment);

  template <typename T>
  T* alloc(std::size_t count) {
    return static_cast<T*>(alloc_bytes(count * sizeof(T),
                                       alignof(T) > kAlignment ? alignof(T) : kAlignment));
  }

  /// Zero-initialized column-major matrix checkout (ld == max(rows, 1)),
  /// mirroring Matrix<T> construction semantics.
  template <typename T>
  MatrixView<T> matrix(index_t rows, index_t cols) {
    TCEVD_CHECK(rows >= 0 && cols >= 0, "workspace matrix dimensions must be nonnegative");
    const index_t ld = rows > 0 ? rows : 1;
    const std::size_t count =
        static_cast<std::size_t>(ld) * static_cast<std::size_t>(cols > 0 ? cols : 1);
    T* p = alloc<T>(count);
    for (std::size_t i = 0; i < count; ++i) p[i] = T{};
    return MatrixView<T>(p, rows, cols, ld);
  }

  /// RAII checkout scope: rewinds the arena to its construction point.
  class Scope {
   public:
    explicit Scope(Workspace& ws) : ws_(&ws), mark_(ws.mark()) {}
    ~Scope() {
      if (ws_) ws_->release(mark_);
    }
    Scope(Scope&& other) noexcept : ws_(other.ws_), mark_(other.mark_) { other.ws_ = nullptr; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;

    template <typename T>
    T* alloc(std::size_t count) {
      return ws_->alloc<T>(count);
    }
    template <typename T>
    MatrixView<T> matrix(index_t rows, index_t cols) {
      return ws_->matrix<T>(rows, cols);
    }

   private:
    struct Mark {
      std::size_t block = 0;
      std::size_t used = 0;
    };
    friend class Workspace;

    Workspace* ws_;
    Mark mark_;
  };

  Scope scope() { return Scope(*this); }

  // --- statistics -----------------------------------------------------------

  /// Total bytes across all blocks.
  std::size_t capacity() const noexcept;
  /// Bytes currently checked out (alignment padding included).
  std::size_t bytes_in_use() const noexcept;
  /// Peak of bytes_in_use() over the arena's lifetime.
  std::size_t high_water_mark() const noexcept { return high_water_; }
  /// Number of heap blocks backing the arena. Stable across iterations ==
  /// steady-state reuse (the allocation-regression tests assert on this).
  std::size_t block_count() const noexcept { return blocks_.size(); }
  /// Number of allocations that did not fit the reserved arena and forced a
  /// new heap block (growth events, excluding explicit reserve() calls).
  long spill_count() const noexcept { return spills_; }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Scope::Mark mark() const noexcept {
    return Scope::Mark{active_, blocks_.empty() ? 0 : blocks_[active_].used};
  }
  void release(const Scope::Mark& m) noexcept;
  void add_block(std::size_t bytes);

  // Invariant: blocks_[active_+1 ..] are empty (used == 0); allocation bumps
  // blocks_[active_] and advances past blocks that cannot fit a request.
  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t high_water_ = 0;
  long spills_ = 0;
};

}  // namespace tcevd
