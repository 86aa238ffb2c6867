// Fixed-pool block arena (pdet::util).
//
// One up-front slab carved into equal blocks, handed out and returned
// through a LIFO free list — the retroluxury2 rl2_heap discipline applied to
// per-connection I/O buffers: every allocation the router will ever make
// happens in the constructor, so the steady state performs none. Blocks are
// deliberately all one size (a connection's rx or tx buffer); there is no
// splitting, coalescing or growth — exhaustion is a visible, countable
// condition (acquire() returns an empty span) that callers turn into
// admission control, not a hidden malloc.
//
// The slab comes from calloc. A slab of the router's size is mmap-backed, so
// its zero pages are mapped in only when first written: a block costs
// resident memory for the bytes a connection has used, not for its size.
//
// Single-threaded by design: the shard router owns one arena per io thread.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

namespace pdet::util {

class BlockArena {
 public:
  /// Preallocates `blocks` zeroed blocks of `block_bytes` each. Both must be
  /// >= 1. Throws std::bad_alloc when the slab cannot be allocated.
  BlockArena(std::size_t block_bytes, std::size_t blocks);

  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;

  /// Hand out one block; empty span when the pool is exhausted (the caller
  /// sheds or refuses — the arena never grows).
  std::span<std::uint8_t> acquire();

  /// Return a block obtained from acquire(). Asserts on a span that is not
  /// block-aligned inside the slab or is already free.
  void release(std::span<std::uint8_t> block);

  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return capacity_ - free_.size(); }
  /// Most blocks ever simultaneously out — sizes the pool for the workload.
  std::size_t high_water() const { return high_water_; }

 private:
  struct FreeSlab {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  std::size_t block_bytes_;
  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[], FreeSlab> slab_;  ///< zeroed, from calloc
  std::vector<std::uint32_t> free_;      ///< LIFO free list of block indices
  std::vector<std::uint8_t> acquired_;   ///< per-block out/in flag
  std::size_t high_water_ = 0;
};

}  // namespace pdet::util
