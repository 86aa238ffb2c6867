#include "src/runtime/stream.hpp"

#include <utility>

#include "src/util/assert.hpp"

namespace pdet::runtime {

StreamContext::StreamContext(int id, std::string name, ResultCallback callback)
    : id_(id), name_(std::move(name)), callback_(std::move(callback)) {}

std::uint64_t StreamContext::next_sequence() {
  std::lock_guard<std::mutex> lock(submit_mutex_);
  return next_submit_++;
}

FrameDurations frame_durations(const obs::FrameTimeline& t) {
  using obs::Hop;
  const auto status = static_cast<FrameStatus>(t.status);
  const bool evicted =
      status == FrameStatus::kDroppedQueue && t.queue_admit_ns != 0;
  const bool ran = status == FrameStatus::kOk ||
                   status == FrameStatus::kDegraded ||
                   status == FrameStatus::kError;
  const Hop ran_to = t.engine_end_ns != 0 ? Hop::engine_end : Hop::complete;
  return {obs::ms_between(t, Hop::service_recv,
                          evicted ? Hop::complete : Hop::schedule),
          ran ? obs::ms_between(t, Hop::engine_start, ran_to) : 0.0,
          obs::ms_between(t, Hop::service_recv, Hop::complete)};
}

void StreamContext::deliver(StreamResult& result) {
  std::lock_guard<std::mutex> lock(deliver_mutex_);
  PDET_REQUIRE(result.sequence >= next_deliver_);
  if (result.sequence != next_deliver_) {
    // Out of order: park a copy in a free slot (copy-assign, so a warm
    // slot's detection vector is reused) until the gap closes.
    PendingSlot* free_slot = nullptr;
    for (PendingSlot& slot : pending_) {
      PDET_REQUIRE(!slot.used || slot.result.sequence != result.sequence);
      if (!slot.used && free_slot == nullptr) free_slot = &slot;
    }
    if (free_slot == nullptr) {
      pending_.emplace_back();
      free_slot = &pending_.back();
    }
    free_slot->used = true;
    free_slot->result = result;
    return;
  }
  // Fire it and each buffered successor it unblocks, stamping deliver.
  for (StreamResult* next = &result; next != nullptr;) {
    next->timing.deliver_ns = obs::timeline_now_ns();
    if (callback_) callback_(*next);
    ++next_deliver_;
    next = nullptr;
    for (PendingSlot& slot : pending_) {
      if (slot.used && slot.result.sequence == next_deliver_) {
        slot.used = false;
        next = &slot.result;
        break;
      }
    }
  }
}

std::uint64_t StreamContext::delivered() const {
  std::lock_guard<std::mutex> lock(deliver_mutex_);
  return next_deliver_;
}

}  // namespace pdet::runtime
