// Bounded FIFO channel between clocked modules.
//
// Semantics match a synchronous FIFO with registered occupancy: capacity and
// emptiness observed during eval() reflect the previous clock edge, and all
// pushes/pops staged during eval() take effect together at commit(). A
// producer and consumer may therefore both act in the same cycle without
// order dependence (the consumer sees the pre-edge head even if the producer
// pushes this cycle).
#pragma once

#include <deque>
#include <vector>

#include "src/util/assert.hpp"

namespace pdet::sim {

template <typename T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity) : capacity_(capacity) {
    PDET_REQUIRE(capacity >= 1);
  }

  // --- eval()-phase queries (pre-edge state) ---
  bool can_push() const { return items_.size() + staged_pushes_.size() < capacity_; }
  bool can_pop() const { return pop_count_ < items_.size(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Peek the element that the next pop() would return.
  const T& front() const {
    PDET_ASSERT(can_pop());
    return items_[pop_count_];
  }

  // --- eval()-phase staged operations ---
  void push(T value) {
    PDET_ASSERT(can_push());
    staged_pushes_.push_back(std::move(value));
  }

  T pop() {
    PDET_ASSERT(can_pop());
    return std::move(items_[pop_count_++]);
  }

  // --- clock edge ---
  void commit() {
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(pop_count_));
    pop_count_ = 0;
    for (auto& v : staged_pushes_) items_.push_back(std::move(v));
    staged_pushes_.clear();
  }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
  std::vector<T> staged_pushes_;
  std::size_t pop_count_ = 0;
};

}  // namespace pdet::sim
