// Per-camera stream state: frame sequencing and in-order result delivery.
//
// A DAS consumer (tracker, brake planner) is stateful in frame order — the
// greedy-IoU tracker in detect/tracker.hpp is only correct if update() sees
// frames in capture order. The server's workers, however, finish frames in
// whatever order the engine pool happens to run them. StreamContext is the
// reorder point: every submitted frame of a stream receives exactly one
// delivery — completed, degraded or dropped — and deliveries fire strictly
// in submission (sequence) order, buffering out-of-order completions in
// reused slots until the gap closes.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/detect/detection.hpp"
#include "src/obs/timeline.hpp"

namespace pdet::runtime {

/// What happened to one submitted frame.
enum class FrameStatus {
  kOk,               ///< detected at full quality (degrade level 0)
  kDegraded,         ///< detected on a reduced configuration (level 1-2)
  kDroppedQueue,     ///< evicted (kDropOldest) or refused (kDropNewest)
  kDroppedDeadline,  ///< skipped by the scheduler (deadline / ladder rung 3)
  kError,            ///< processing faulted (engine threw / worker replaced)
  kDegradedInput,    ///< integrity gate ruled the pixels unusable; the
                     ///< detections are tracker coast predictions, not
                     ///< engine output (pdet::guard, wire protocol >= 5)
};

/// A frame's durations, read off its own stamps (ms; t.status as FrameStatus):
///   queue_wait  recv -> schedule; evicted: recv -> complete; 0 if unadmitted
///   service     engine_start -> engine_end (-> complete if the engine never
///               returned); 0 unless the frame ran (ok, degraded, error)
///   total       recv -> complete
struct FrameDurations {
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  double total_ms = 0.0;
};
FrameDurations frame_durations(const obs::FrameTimeline& t);

/// One delivery. `detections` is empty for dropped frames; the durations
/// are frame_durations(timing).
struct StreamResult {
  int stream = -1;
  std::uint64_t sequence = 0;
  FrameStatus status = FrameStatus::kOk;
  int degrade_level = 0;        ///< scheduler rung the frame ran at
  double queue_wait_ms = 0.0;   ///< receive -> scheduled
  double service_ms = 0.0;      ///< engine processing time
  double total_ms = 0.0;        ///< receive -> handed to the reorder buffer
  /// Input-integrity verdict (guard::FrameQuality / reason mask /
  /// guard::CameraState as raw ints so this header stays guard-free; 0s
  /// when the gate is disabled). kDegradedInput status always carries
  /// input_quality == 2.
  std::uint8_t input_quality = 0;
  std::uint32_t quality_reasons = 0;
  std::uint8_t camera_state = 0;
  /// The frame's hop-by-hop journey (server-side stamps; the net layer adds
  /// wire_send after encoding). Fixed-size POD — copying it into pending
  /// slots allocates nothing.
  obs::FrameTimeline timing;
  std::vector<detect::Detection> detections;
};

/// Invoked in sequence order, under the stream's delivery lock, from
/// whichever thread closed the sequence gap (a worker or the submitter).
/// The referenced result is only valid for the duration of the call.
using ResultCallback = std::function<void(const StreamResult&)>;

class StreamContext {
 public:
  StreamContext(int id, std::string name, ResultCallback callback);

  int id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Reserve the next sequence number. Frames of one stream must be
  /// submitted by a single producer (or externally ordered): the sequence
  /// defines the delivery order.
  std::uint64_t next_sequence();

  /// Hand one frame's outcome to the stream. If `result.sequence` is the
  /// next expected one, the callback fires immediately (plus any buffered
  /// successors it unblocks); otherwise the result is copied into a reused
  /// pending slot. Each result's timing.deliver_ns is stamped as its
  /// callback fires. Thread-safe across workers and the submitter.
  void deliver(StreamResult& result);

  /// Frames delivered so far (callback invocations).
  std::uint64_t delivered() const;

 private:
  struct PendingSlot {
    bool used = false;
    StreamResult result;
  };

  const int id_;
  const std::string name_;
  const ResultCallback callback_;

  std::mutex submit_mutex_;  ///< guards sequence assignment only
  std::uint64_t next_submit_ = 0;

  mutable std::mutex deliver_mutex_;
  std::uint64_t next_deliver_ = 0;  ///< = deliveries so far
  std::vector<PendingSlot> pending_;  ///< out-of-order buffer, slots reused
};

}  // namespace pdet::runtime
