#include "src/common/workspace.hpp"

#include <cstdint>

namespace tcevd {

namespace {

std::size_t align_up(std::size_t v, std::size_t align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void Workspace::add_block(std::size_t bytes) {
  Block b;
  // Over-allocate by one alignment quantum so an aligned pointer of the full
  // requested size always fits regardless of where new[] lands. The bytes
  // are left uninitialized: every checkout is written before it is read
  // (matrix() zeroes its own), so untouched reserve stays unpaged.
  b.size = bytes + kAlignment;
  b.data = std::make_unique_for_overwrite<unsigned char[]>(b.size);
  blocks_.push_back(std::move(b));
}

void Workspace::reserve(std::size_t bytes) {
  if (bytes == 0) return;
  for (const Block& b : blocks_)
    if (b.size >= bytes) return;
  // Idle but fragmented (spills left several too-small blocks): coalesce to
  // one block covering both the request and the observed peak, so steady
  // state after a first spilled iteration is a single-block arena rather
  // than a fresh spill per iteration.
  if (bytes_in_use() == 0 && !blocks_.empty()) {
    blocks_.clear();
    active_ = 0;
    add_block(bytes > high_water_ ? bytes : high_water_);
    return;
  }
  add_block(bytes);
}

void* Workspace::alloc_bytes(std::size_t bytes, std::size_t align) {
  TCEVD_CHECK(align != 0 && (align & (align - 1)) == 0,
              "workspace alignment must be a power of two");
  if (bytes == 0) bytes = 1;

  // Try the active block, then any (empty) block after it.
  for (std::size_t i = active_; i < blocks_.size(); ++i) {
    Block& b = blocks_[i];
    const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
    const std::size_t offset = align_up(static_cast<std::size_t>(base) + b.used, align) -
                               static_cast<std::size_t>(base);
    if (offset + bytes <= b.size) {
      b.used = offset + bytes;
      active_ = i;
      const std::size_t in_use = bytes_in_use();
      if (in_use > high_water_) high_water_ = in_use;
      return b.data.get() + offset;
    }
  }

  // Spill to the heap: append a block large enough for this request.
  ++spills_;
  add_block(bytes > kMinBlockBytes ? bytes : kMinBlockBytes);
  active_ = blocks_.size() - 1;
  Block& b = blocks_.back();
  const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
  const std::size_t offset =
      align_up(static_cast<std::size_t>(base), align) - static_cast<std::size_t>(base);
  TCEVD_CHECK(offset + bytes <= b.size, "workspace spill block sized too small");
  b.used = offset + bytes;
  const std::size_t in_use = bytes_in_use();
  if (in_use > high_water_) high_water_ = in_use;
  return b.data.get() + offset;
}

void Workspace::release(const Scope::Mark& m) noexcept {
  if (blocks_.empty()) return;
  for (std::size_t i = m.block + 1; i < blocks_.size(); ++i) blocks_[i].used = 0;
  blocks_[m.block].used = m.used;
  active_ = m.block;
}

std::size_t Workspace::capacity() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

std::size_t Workspace::bytes_in_use() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.used;
  return total;
}

}  // namespace tcevd
