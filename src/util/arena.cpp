#include "src/util/arena.hpp"

#include <algorithm>
#include <new>

#include "src/util/assert.hpp"

namespace pdet::util {

BlockArena::BlockArena(std::size_t block_bytes, std::size_t blocks)
    : block_bytes_(block_bytes), capacity_(blocks) {
  PDET_REQUIRE(block_bytes >= 1);
  PDET_REQUIRE(blocks >= 1);
  // calloc: a large slab's pages stay untouched, not resident, until written.
  slab_.reset(
      static_cast<std::uint8_t*>(std::calloc(capacity_, block_bytes_)));
  if (!slab_) throw std::bad_alloc();
  free_.reserve(capacity_);
  // LIFO with descending indices so the first acquire() returns block 0 —
  // deterministic layout makes leak triage (which block is still out?) easy.
  for (std::size_t i = capacity_; i-- > 0;) {
    free_.push_back(static_cast<std::uint32_t>(i));
  }
  acquired_.assign(capacity_, 0);
}

std::span<std::uint8_t> BlockArena::acquire() {
  if (free_.empty()) return {};
  const std::uint32_t index = free_.back();
  free_.pop_back();
  acquired_[index] = 1;
  high_water_ = std::max(high_water_, in_use());
  return {slab_.get() + static_cast<std::size_t>(index) * block_bytes_,
          block_bytes_};
}

void BlockArena::release(std::span<std::uint8_t> block) {
  PDET_REQUIRE(block.size() == block_bytes_);
  PDET_REQUIRE(block.data() >= slab_.get());
  const std::size_t offset =
      static_cast<std::size_t>(block.data() - slab_.get());
  PDET_REQUIRE(offset % block_bytes_ == 0);
  const std::size_t index = offset / block_bytes_;
  PDET_REQUIRE(index < capacity_);
  PDET_REQUIRE(acquired_[index] != 0);  // double release
  acquired_[index] = 0;
  free_.push_back(static_cast<std::uint32_t>(index));
}

}  // namespace pdet::util
