// Frame timelines and the flight recorder (pdet::obs).
//
// Where spans (trace.hpp) answer "where does host time go per stage,
// aggregated", a FrameTimeline answers "what happened to THIS frame": one
// compact record of wall-clock stamps at every hop of the serving path,
// keyed by the client's frame tag so the journey is reconstructable end to
// end across the wire:
//
//   client_encode ─ client_send ─► service_recv ─ gate ─ queue_admit
//        ─ schedule ─ engine_start ─ [level 0..k] ─ engine_end ─ complete
//        ─ deliver ─ wire_send ─► client_recv ─ client_decode
//
// The hops and the segments between them are declared once, in the two
// tables below; every copy of a frame's journey (stamps, wire trace,
// telemetry, fleet merge, dumps, runtime durations) is generated from them.
//
// Stamps are nanoseconds on obs::timeline_clock — a process-local monotonic
// clock — so stamps from different processes must not be compared directly.
// The wire protocol therefore carries hop *offsets* relative to service
// receive (see net::wire FrameTrace), and the client grafts those onto its
// own clock domain. A stamp of 0 means "hop not reached / not recorded".
//
// The FlightRecorder is the black box for chaos runs: a fixed-size ring of
// the last N timelines per stream, preallocated at attach time so steady-
// state recording is a copy under a per-stream lock — no allocation, no
// global contention. The runtime server dumps it (Chrome trace JSON + text)
// when a poison frame fires, a worker is quarantined, or health leaves
// healthy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pdet::obs {

/// Nanoseconds on the process-local monotonic timeline clock (steady_clock
/// since an arbitrary process epoch). Comparable within one process only;
/// never 0 for a real stamp.
std::uint64_t timeline_now_ns();

/// Maximum pyramid levels recorded per frame (beyond that, the remainder is
/// folded into the last slot — the serving rungs use far fewer levels).
inline constexpr std::size_t kTimelineMaxLevels = 12;

// The hops, in journey order. HOP(name) stays in the process that stamped
// it; WIRE_HOP(name, member, slot) also rides the wire as
// net::wire::FrameTrace::<member> (µs after service_recv), the slot-th u32
// of a Result's trace block (the slots keep the v6 bytes).
// clang-format off
#define PDET_FRAME_HOPS(HOP, WIRE_HOP)                                         \
  HOP(client_encode)                           /* client encoded the frame */  \
  HOP(service_recv)                            /* server decoded the submit */ \
  WIRE_HOP(gate,         gate_us,         6)   /* integrity-gate verdict */    \
  WIRE_HOP(queue_admit,  admit_us,        0)   /* bounded queue accepted */    \
  WIRE_HOP(schedule,     schedule_us,     1)   /* worker asked scheduler */    \
  WIRE_HOP(engine_start, engine_start_us, 2)                                   \
  WIRE_HOP(engine_end,   engine_end_us,   3)                                   \
  HOP(complete)                                /* into the reorder buffer */   \
  WIRE_HOP(deliver,      deliver_us,      4)   /* in-order callback fired */   \
  WIRE_HOP(wire_send,    send_us,         5)   /* result encoded for wire */   \
  HOP(client_decode)                           /* client decoded the result */

// SEGMENT(name, from, to, row): the time from hop `from` to hop `to`, drawn
// on Chrome-dump row `row` (0 = not drawn). A REPORTED row is also the
// TelemetryReport member `name` (p50/p99; wire order = row order). `first`
// and `last` are the earliest and latest recorded stamps.
#define PDET_FRAME_SEGMENTS(SEGMENT, REPORTED)           \
  SEGMENT (ingress, client_encode, service_recv,  1)    \
  SEGMENT (gate,    service_recv,  gate,          9)    \
  REPORTED(admit,   service_recv,  queue_admit,   2)    \
  REPORTED(queue,   queue_admit,   schedule,      3)    \
  REPORTED(engine,  engine_start,  engine_end,    4)    \
  SEGMENT (deliver, engine_end,    deliver,       6)    \
  SEGMENT (egress,  deliver,       wire_send,     7)    \
  SEGMENT (return,  wire_send,     client_decode, 8)    \
  REPORTED(total,   first,         last,          0)
// clang-format on
#define PDET_TIMELINE_SKIP(...)  // for the rows a site does not use

/// The hop rows, then the first and last recorded stamp.
enum class Hop : std::uint8_t {
#define PDET_HOP_ENUM(name, ...) name,
  PDET_FRAME_HOPS(PDET_HOP_ENUM, PDET_HOP_ENUM)
#undef PDET_HOP_ENUM
  first,
  last,
};

/// One frame's journey. POD, fixed size, copyable with memcpy semantics.
struct FrameTimeline {
  std::uint64_t trace_id = 0;   ///< client frame tag (wire tag), 0 = local
  int stream = -1;              ///< server-side stream id
  std::uint64_t sequence = 0;   ///< per-stream submit sequence
  std::uint8_t status = 0;      ///< runtime::FrameStatus as int
  std::uint8_t degrade_level = 0;  ///< scheduler rung chosen (3 = skip)
  std::uint8_t level_count = 0;    ///< pyramid levels actually timed
  // Tiled-path hop (pdet::tile): how many tiles the scheduler planned for
  // this frame and how many were freshly detected (the rest served their
  // cached detections). 0/0 = frame took the untiled path. Local-only fields:
  // the v3 wire protocol does not carry them, so remotely grafted timelines
  // decode with both at 0.
  std::uint8_t tiles_planned = 0;
  std::uint8_t tiles_detected = 0;
  // Input-integrity verdict (pdet::guard): guard::FrameQuality and
  // guard::CameraState as ints (obs cannot depend on guard — same rule as
  // `status` above). 0/0 = healthy or gate disabled. Carried on the wire
  // from protocol v5.
  std::uint8_t input_quality = 0;
  std::uint8_t camera_state = 0;

  // One <hop>_ns per hop row, timeline_now_ns() domain; 0 = not reached.
#define PDET_HOP_STAMP(name, ...) std::uint64_t name##_ns = 0;
  PDET_FRAME_HOPS(PDET_HOP_STAMP, PDET_HOP_STAMP)
#undef PDET_HOP_STAMP

  /// Per-pyramid-level engine time, microseconds (level_count entries).
  std::array<std::uint32_t, kTimelineMaxLevels> level_us{};
};

/// ms from `from` to `to`; 0 when a stamp is missing or `to` precedes it.
double ms_between(const FrameTimeline& t, Hop from, Hop to);

/// One PDET_FRAME_SEGMENTS row.
struct Segment {
  const char* name;
  Hop from;
  Hop to;
  int trace_row;  ///< Chrome dump row (tid); 0 = not drawn
};

#define PDET_SEGMENT_ROW(name, from, to, row) \
  Segment{#name, Hop::from, Hop::to, row},
inline constexpr Segment kSegments[] = {
    PDET_FRAME_SEGMENTS(PDET_SEGMENT_ROW, PDET_SEGMENT_ROW)};
#undef PDET_SEGMENT_ROW

/// Fixed-capacity ring of the last N timelines for one stream.
class TimelineRing {
 public:
  explicit TimelineRing(std::size_t capacity);

  /// Copy one timeline in (overwrites the oldest once full). No allocation.
  void record(const FrameTimeline& t);

  std::size_t size() const;
  std::uint64_t total_recorded() const;

  /// Oldest-first snapshot of the retained timelines.
  std::vector<FrameTimeline> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<FrameTimeline> slots_;
  std::size_t head_ = 0;   ///< next write position
  std::size_t count_ = 0;  ///< retained (<= capacity)
  std::uint64_t total_ = 0;
};

/// Per-stream flight recorder: attach_stream() preallocates each ring, then
/// record() is lock-per-stream and allocation-free. Dumps merge every
/// stream's retained timelines.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t depth_per_stream = 64);

  /// Preallocate the ring for `stream` (idempotent; call before record()).
  void attach_stream(int stream, std::string name);

  /// Record a completed frame. Unknown streams are counted as dropped
  /// rather than attached mid-flight (attach allocates).
  void record(const FrameTimeline& t);

  std::size_t depth_per_stream() const { return depth_; }
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;

  /// All retained timelines, stream-major, oldest first within a stream.
  std::vector<FrameTimeline> snapshot() const;

  /// Chrome trace_event JSON: one pid per stream, hops as "X" slices on
  /// per-hop tid rows, so one frame reads as a cascade. Uses the timelines'
  /// own clock domain (microseconds).
  std::string to_chrome_json() const;

  /// Human-readable dump: one line per frame with per-hop durations in ms.
  std::string to_text() const;

 private:
  struct StreamRing {
    int stream = -1;
    std::string name;
    TimelineRing ring;
    StreamRing(int s, std::string n, std::size_t depth)
        : stream(s), name(std::move(n)), ring(depth) {}
  };

  StreamRing* find(int stream);

  std::size_t depth_;
  mutable std::mutex attach_mutex_;  ///< guards rings_ growth only
  std::vector<std::unique_ptr<StreamRing>> rings_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// One <segment>_ms per segment row (ms_between of its hops).
struct TimelineBreakdown {
#define PDET_SEGMENT_MS(name, ...) double name##_ms = 0.0;
  PDET_FRAME_SEGMENTS(PDET_SEGMENT_MS, PDET_SEGMENT_MS)
#undef PDET_SEGMENT_MS
};
TimelineBreakdown breakdown(const FrameTimeline& t);

/// One-line human rendering of a timeline ("tag=12 stream=0 seq=12 ok rung0
/// admit=0.010ms queue=0.520ms ..."), the segments whose stamps are both
/// recorded; used by dumps and clients.
std::string to_line(const FrameTimeline& t);

}  // namespace pdet::obs
