// Binary wire protocol for the remote detection service (pdet::net::wire).
//
// Every message on the wire is one length-prefixed frame:
//
//   offset  size  field
//        0     4  magic        0x5044_4E31 ("1NDP" on the wire, LE)
//        4     1  protocol     kProtocolVersion; bumped on breaking change
//        5     1  type         MsgType
//        6     2  reserved     0 (alignment / future flags)
//        8     4  payload_len  bytes following the header
//       12     4  crc32        over header bytes [0,12) ++ payload
//       16   len  payload      ByteWriter/ByteReader-encoded fields (LE)
//
// The CRC covers the header prefix as well as the payload, so flipping any
// single bit of a frame — type byte included — is detected: a corrupted
// frame can be rejected, never misparsed as a different message. Frames are
// self-delimiting (kNeedMore until payload_len bytes have arrived), which is
// all a TCP byte stream needs for reassembly.
//
// Encoding appends one complete frame to a caller-owned vector (reused
// buffers encode with no steady-state allocation — the *_into convention).
// Decoding reads into a reused Message whose vectors/images keep their
// high-water capacity, and never trusts a declared length without bounding
// it first (kMaxPayloadBytes, kMaxFrameDim, per-string caps).
//
// Version negotiation: the client opens with Hello{protocol_version}; the
// server answers HelloAck carrying its own protocol version plus the model
// fingerprint (dimension + CRC of the canonical model bytes) and the stream
// id it assigned. A server that cannot speak the client's version replies
// Error{kVersionMismatch} and closes. Within one protocol version, unknown
// message types are a decode error (kUnknownType). The one optional
// extension is the StatsReport's stat ids (v6): a reader skips ids it does
// not know, so adding a stat does not bump the version.
//
// v2 (breaking): Result grew the kError frame status and StatsReport grew
// the fault/health block so remote clients can observe the server's
// self-healing state machine.
//
// v3 (breaking): the telemetry plane. Result grew a trailing FrameTrace
// block (server-side hop offsets in microseconds relative to service
// receive, plus per-pyramid-level engine times) so a client can reconstruct
// the frame's end-to-end timeline without sharing a clock with the server.
// New messages kTelemetryQuery / kTelemetryReport return the full metrics
// registry in Prometheus text exposition format plus frame-timeline
// percentiles from the server's flight-recorder window.
//
// v4 (breaking): StatsReport grew the scoring-backend block (which
// ScoringBackend served — scalar/batch/hwsim — plus batch/window counts and
// mean batch fill) so remote clients can see which backend scored their
// frames and how full its batches ran (windows / batch capacity).
//
// v5 (breaking): input integrity (pdet::guard). Result grew the frame-
// quality block (input_quality / camera_state / quality_reasons) and the
// kDegradedInput frame status, FrameTrace grew the gate_us hop, and
// StatsReport grew the guard block (gate verdicts, quarantines, camera
// states) so a remote client can see per-frame integrity verdicts and
// per-camera health without scraping telemetry.
//
// v6 (breaking): StatsReport is generated from the one stats table
// (runtime/stats_table.hpp) and carries every runtime and net frontend row:
// a u16 count, then that many (u16 id, u64 value) pairs. Integers travel as
// two's-complement 64-bit values, doubles as their IEEE-754 bits, enums as
// their integer value; the derived (kRatio) rows are not sent but
// recomputed after decode. A reader skips ids it does not know,
// so a new stat needs no version bump, and rejects (kBadPayload) a
// duplicate id, a count above kMaxStatPairs, a payload that is not exactly
// `count` pairs, and an enum or int value out of range. The enum fields of
// Result and TelemetryReport are range-checked the same way.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/detect/detection.hpp"
#include "src/imgproc/image.hpp"
#include "src/obs/timeline.hpp"
#include "src/runtime/stats_table.hpp"
#include "src/runtime/stream.hpp"

namespace pdet::net::wire {

inline constexpr std::uint32_t kMagic = 0x50444E31u;  // "PDN1"
inline constexpr std::uint8_t kProtocolVersion = 6;
inline constexpr std::size_t kHeaderSize = 16;
/// Upper bound on a frame payload; a 4K-UHD float luminance plane is ~33 MiB,
/// anything larger is a corrupt or hostile length field.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
/// Per-axis bound on submitted frame dimensions.
inline constexpr std::uint32_t kMaxFrameDim = 8192;
inline constexpr std::size_t kMaxNameLen = 256;
inline constexpr std::size_t kMaxErrorLen = 1024;
inline constexpr std::uint32_t kMaxDetections = 1u << 16;
/// Cap on the Prometheus text payload of a TelemetryReport. A registry of a
/// few hundred series renders to tens of KiB; 1 MiB headroom is generous.
inline constexpr std::size_t kMaxTelemetryTextLen = 1u << 20;
/// Cap on a StatsReport's (id, value) pair count. It bounds the stats table
/// rather than equalling it, so a peer whose table has grown still decodes
/// here (its new ids are skipped).
inline constexpr std::size_t kMaxStatPairs = 256;
static_assert(runtime::kWireStatCount <= kMaxStatPairs);
/// The wire hops and the reported segments of the timeline tables.
#define PDET_COUNT_ROW(...) +1
inline constexpr std::size_t kTraceHops =
    0 PDET_FRAME_HOPS(PDET_TIMELINE_SKIP, PDET_COUNT_ROW);
inline constexpr std::size_t kTelemetrySegments =
    0 PDET_FRAME_SEGMENTS(PDET_TIMELINE_SKIP, PDET_COUNT_ROW);
#undef PDET_COUNT_ROW
/// The largest frames a server sends: a Result with kMaxDetections boxes
/// and every level time, and a TelemetryReport with the full text. Every
/// other reply is smaller than either.
inline constexpr std::size_t kMaxResultBytes =
    kHeaderSize + 44 + std::size_t{kMaxDetections} * 28 + 4 * kTraceHops + 1 +
    4 * obs::kTimelineMaxLevels;
inline constexpr std::size_t kMaxTelemetryReportBytes =
    kHeaderSize + 28 + 8 * kTelemetrySegments + kMaxTelemetryTextLen;
inline constexpr std::size_t kMaxReplyBytes =
    kMaxResultBytes > kMaxTelemetryReportBytes ? kMaxResultBytes
                                               : kMaxTelemetryReportBytes;

enum class MsgType : std::uint8_t {
  kHello = 1,        ///< client -> server, first message on a connection
  kHelloAck = 2,     ///< server -> client, handshake accept
  kSubmitFrame = 3,  ///< client -> server, one luminance frame
  kResult = 4,       ///< server -> client, one in-order frame outcome
  kStatsQuery = 5,   ///< client -> server, empty payload
  kStatsReport = 6,  ///< server -> client, runtime + net counters
  kError = 7,        ///< either direction; sender closes after a fatal one
  kShutdown = 8,     ///< client -> server: flush my results, then close
  kTelemetryQuery = 9,    ///< client -> server, empty payload (v3)
  kTelemetryReport = 10,  ///< server -> client, Prometheus text + timeline
};

enum class ErrorCode : std::uint32_t {
  kProtocol = 1,         ///< malformed frame / message out of order
  kVersionMismatch = 2,  ///< handshake protocol version not supported
  kBusy = 3,             ///< no free stream slot for a new connection
  kBadFrame = 4,         ///< frame dimensions rejected
  kShuttingDown = 5,     ///< server is draining; no new work accepted
  kInternal = 6,
};

struct Hello {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string client_name;
};

struct HelloAck {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t model_dim = 0;  ///< descriptor length the server classifies
  std::uint32_t model_crc = 0;  ///< crc32 of svm::model_to_bytes output
  std::uint32_t stream_id = 0;  ///< runtime stream slot serving this client
  std::string server_name;
};

struct SubmitFrame {
  std::uint64_t tag = 0;  ///< opaque client-side id, echoed in Result
  imgproc::ImageF image;  ///< reused on decode (reset, not reallocated)
};

/// Server-side hop offsets for one frame (v3), microseconds relative to the
/// service-receive stamp: one <member> per WIRE_HOP row of
/// obs::PDET_FRAME_HOPS. Clock domains do not cross the wire: the server
/// publishes durations, and the client grafts them onto its own
/// obs::timeline_now_ns() domain (see Client::last_timeline). 0 = hop not
/// reached (dropped/errored frames stop partway).
struct FrameTrace {
#define PDET_TRACE_MEMBER(hop, member, slot) std::uint32_t member = 0;
  PDET_FRAME_HOPS(PDET_TIMELINE_SKIP, PDET_TRACE_MEMBER)
#undef PDET_TRACE_MEMBER
  std::uint8_t level_count = 0;       ///< pyramid levels actually timed
  std::array<std::uint32_t, obs::kTimelineMaxLevels> level_us{};
};

/// Mirrors runtime::StreamResult; `tag` echoes the SubmitFrame that produced
/// it so a client can match results without trusting arrival order (though
/// per-stream delivery *is* in order: slot FIFO + TCP ordering).
struct Result {
  std::uint64_t sequence = 0;  ///< server-side stream sequence
  std::uint64_t tag = 0;
  runtime::FrameStatus status = runtime::FrameStatus::kOk;
  std::uint8_t degrade_level = 0;
  float queue_wait_ms = 0.0f;
  float service_ms = 0.0f;
  float total_ms = 0.0f;
  // Frame-quality block (v5; mirrors StreamResult). guard::FrameQuality,
  // guard::CameraState and the reason mask as raw ints; all 0 when the
  // server runs with the gate disabled.
  std::uint8_t input_quality = 0;
  std::uint8_t camera_state = 0;
  std::uint32_t quality_reasons = 0;
  FrameTrace trace;  ///< server-side timeline offsets (v3)
  std::vector<detect::Detection> detections;
};

/// One server's stats, or a fleet's merged ones: the stats table's runtime
/// and net frontend rows. Histogram summaries are not sent (they decode as
/// zero).
struct StatsReport {
  runtime::RuntimeStats runtime;
  runtime::NetStats net;
};

/// p50/p99 of one segment over the server's flight-recorder window.
struct TelemetryPercentiles {
  float p50_ms = 0.0f;
  float p99_ms = 0.0f;
};

/// The live telemetry plane (v3): everything a scrape or a --watch client
/// needs in one round trip. `prometheus` is the full obs registry rendered
/// in Prometheus text exposition format 0.0.4 (empty when the server runs
/// with metrics disabled); the percentiles come from the frame timelines
/// retained in the server's flight recorder, one member per REPORTED row of
/// obs::PDET_FRAME_SEGMENTS.
struct TelemetryReport {
  double uptime_seconds = 0.0;
  std::uint32_t health_state = 0;      ///< runtime::HealthState as integer
  std::uint64_t timeline_frames = 0;   ///< timelines recorded since start
  std::uint32_t timeline_window = 0;   ///< frames the percentiles cover
#define PDET_TELEMETRY_MEMBER(name, ...) TelemetryPercentiles name;
  PDET_FRAME_SEGMENTS(PDET_TIMELINE_SKIP, PDET_TELEMETRY_MEMBER)
#undef PDET_TELEMETRY_MEMBER
  std::string prometheus;       ///< metrics registry, text exposition

  /// Calls f(segment, r.<member>...) per reported segment, in wire order.
  template <class F, class... R>
  static void visit(F&& f, R&... r) {
#define PDET_TELEMETRY_VISIT(name, from, to, row)                       \
  f(obs::Segment{#name, obs::Hop::from, obs::Hop::to, row}, r.name...);
    PDET_FRAME_SEGMENTS(PDET_TIMELINE_SKIP, PDET_TELEMETRY_VISIT)
#undef PDET_TELEMETRY_VISIT
  }
};

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Reused decode target: one instance per connection, buffers stay warm.
/// Only the member matching `type` is meaningful after a successful decode.
struct Message {
  MsgType type = MsgType::kError;
  Hello hello;
  HelloAck hello_ack;
  SubmitFrame frame;
  Result result;
  StatsReport stats;
  TelemetryReport telemetry;
  Error error;
};

enum class DecodeStatus {
  kOk,           ///< one message decoded; `consumed` bytes eaten
  kNeedMore,     ///< buffer holds a frame prefix; nothing consumed
  kBadMagic,     ///< stream out of sync / not our protocol
  kBadVersion,   ///< header protocol byte unsupported
  kBadLength,    ///< declared payload length out of bounds
  kBadCrc,       ///< frame failed its integrity check
  kBadPayload,   ///< CRC ok but fields malformed (internal inconsistency)
  kUnknownType,  ///< type byte not a known MsgType
};

const char* to_string(DecodeStatus status);
const char* to_string(ErrorCode code);

// Each encoder appends exactly one complete frame (header + payload) to
// `out`. `out` is not cleared: callers batch frames into one send buffer.
void encode_hello(const Hello& msg, std::vector<std::uint8_t>& out);
void encode_hello_ack(const HelloAck& msg, std::vector<std::uint8_t>& out);
void encode_submit_frame(const SubmitFrame& msg,
                         std::vector<std::uint8_t>& out);
void encode_result(const Result& msg, std::vector<std::uint8_t>& out);
void encode_stats_query(std::vector<std::uint8_t>& out);
void encode_stats_report(const StatsReport& msg,
                         std::vector<std::uint8_t>& out);
void encode_telemetry_query(std::vector<std::uint8_t>& out);
void encode_telemetry_report(const TelemetryReport& msg,
                             std::vector<std::uint8_t>& out);
void encode_error(const Error& msg, std::vector<std::uint8_t>& out);
void encode_shutdown(std::vector<std::uint8_t>& out);

/// Try to decode one message from the front of `data`: peek_frame, then
/// decode_frame. On kOk, `out` holds the message and `consumed` the frame
/// size; on kNeedMore nothing was consumed. kBadPayload is special: the
/// frame passed its CRC, so the framing is trustworthy — `consumed` is set
/// to the full frame size and `out.type` to the frame's type, letting a
/// server skip one semantically invalid message (e.g. a SubmitFrame with
/// impossible dimensions) and keep the connection. On every other error
/// `consumed` is 0 and the connection should be torn down (a TCP stream
/// cannot resynchronise after a framing error).
DecodeStatus decode_message(std::span<const std::uint8_t> data, Message& out,
                            std::size_t& consumed);

/// A server timeline's wire hops as offsets after service_recv, + levels.
void trace_timeline(const obs::FrameTimeline& t, FrameTrace& out);
/// The inverse on a client clock that encoded the frame at encode_ns (0 =
/// unknown) and decoded its result at decode_ns: the client stamps,
/// service_recv by the NTP-style midpoint estimate, each reached hop at its
/// offset after it (none without encode_ns), + levels.
void graft_trace(const FrameTrace& trace, std::uint64_t encode_ns,
                 std::uint64_t decode_ns, obs::FrameTimeline& out);

// --- raw frames: checked, patched and forwarded without a payload decode ---

/// Check the frame at the front of `data` without decoding its payload:
/// magic, version, length bound, CRC and type, plus the fixed fields the
/// patchers below rely on (a SubmitFrame's dimensions against its payload
/// length, a Result's ids). `frame_size` is set once the header is complete
/// — on kNeedMore too, so a reader can tell a frame its buffer can never
/// hold — and `type` once the type byte is known. kBadPayload is a sound
/// frame with bad fields, which a reader may skip.
DecodeStatus peek_frame(std::span<const std::uint8_t> data, MsgType& type,
                        std::size_t& frame_size);

/// Decode the payload of one frame peek_frame accepted: kOk or kBadPayload.
DecodeStatus decode_frame(std::span<const std::uint8_t> frame, MsgType type,
                          Message& out);

/// Recompute a frame's CRC (over header[0,12) ++ payload) after a patch.
void resign_frame(std::span<std::uint8_t> frame);

/// The ids a forwarder rewrites, on frames peek_frame accepted. Each
/// patcher re-signs the frame.
std::uint64_t submit_tag(std::span<const std::uint8_t> frame);
void patch_submit_tag(std::span<std::uint8_t> frame, std::uint64_t tag);
std::uint64_t result_tag(std::span<const std::uint8_t> frame);
void patch_result_ids(std::span<std::uint8_t> frame, std::uint64_t sequence,
                      std::uint64_t tag);

}  // namespace pdet::net::wire
