// Grow-on-overflow FIFO (pdet::util).
//
// A ring of T that doubles when a push finds it full instead of asserting:
// the initial capacity sizes the common case so the steady state allocates
// nothing, and an outlier (a slow frame letting many successors finish and
// wait, a burst of in-flight frames toward one shard) costs one growth, not
// a lost entry. Growth unrolls the ring so order is kept across it.
//
// Single-threaded: callers serialize access.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/util/assert.hpp"

namespace pdet::util {

template <class T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity = 1) { reset(capacity); }

  /// Empty the FIFO and size it for `capacity` entries (at least one).
  void reset(std::size_t capacity) {
    ring_.assign(std::max<std::size_t>(capacity, 1), T{});
    head_ = count_ = 0;
  }

  void push(const T& value) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = value;
    ++count_;
  }

  const T& front() const {
    PDET_ASSERT(count_ > 0);
    return ring_[head_];
  }

  T pop() {
    PDET_ASSERT(count_ > 0);
    T value = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return value;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t capacity() const { return ring_.size(); }

 private:
  void grow() {
    std::vector<T> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pdet::util
