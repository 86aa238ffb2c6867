#include "src/net/wire.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <utility>

#include "src/guard/gate.hpp"
#include "src/guard/health.hpp"
#include "src/util/bytes.hpp"

namespace pdet::net::wire {
namespace {

using util::ByteReader;
using util::ByteWriter;

/// Offsets within the fixed header (see the header-file diagram).
constexpr std::size_t kLenOffset = 8;
constexpr std::size_t kCrcOffset = 12;
/// Payload offsets of the ids a forwarder rewrites.
constexpr std::size_t kSubmitTagOffset = kHeaderSize;
constexpr std::size_t kResultSequenceOffset = kHeaderSize;
constexpr std::size_t kResultTagOffset = kHeaderSize + 8;
/// One StatsReport pair: u16 id + 8-byte value.
constexpr std::size_t kStatPairBytes = 10;

/// The trace block's hop offsets, in slot order.
constexpr auto kTraceBySlot = [] {
  std::array<std::uint32_t FrameTrace::*, kTraceHops> by_slot{};
#define PDET_TRACE_SLOT(hop, member, slot) \
  by_slot.at(slot) = &FrameTrace::member;
  PDET_FRAME_HOPS(PDET_TIMELINE_SKIP, PDET_TRACE_SLOT)
#undef PDET_TRACE_SLOT
  return by_slot;
}();
static_assert(std::ranges::none_of(kTraceBySlot,
                                   [](auto m) { return m == nullptr; }),
              "every trace slot belongs to exactly one hop");

/// Microseconds from `from` to `to`; 0 when either is missing or to <= from.
std::uint32_t us_after(std::uint64_t from, std::uint64_t to) {
  if (from == 0 || to <= from) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>((to - from) / 1000, 0xFFFF'FFFFull));
}

/// A stats-table value as its 8 wire bytes (see the v6 note in wire.hpp).
template <class T>
std::uint64_t stat_bits(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

/// The inverse of stat_bits; false when `bits` is out of T's range.
template <class T>
bool read_stat(std::uint64_t bits, T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    out = std::bit_cast<T>(bits);
  } else if constexpr (std::is_enum_v<T>) {
    if (bits > runtime::enum_max(T{})) return false;
    out = static_cast<T>(bits);
  } else {
    const auto v = static_cast<std::int64_t>(bits);
    if (!std::in_range<T>(v)) return false;
    out = static_cast<T>(v);
  }
  return true;
}

/// Begin one frame: write the header with length/CRC placeholders and return
/// the absolute offset of the frame start for end_frame() to patch.
std::size_t begin_frame(ByteWriter& w, MsgType type) {
  const std::size_t frame_at = w.offset();
  w.u32(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // reserved
  w.u32(0);  // payload_len, patched
  w.u32(0);  // crc32, patched
  return frame_at;
}

void end_frame(ByteWriter& w, std::vector<std::uint8_t>& buf,
               std::size_t frame_at) {
  const std::size_t payload_len = w.offset() - frame_at - kHeaderSize;
  w.patch_u32(frame_at + kLenOffset,
              static_cast<std::uint32_t>(payload_len));
  resign_frame(std::span<std::uint8_t>(buf).subspan(frame_at));
}

/// CRC over header[0,12) ++ payload: the CRC field itself is not covered.
std::uint32_t frame_crc(std::span<const std::uint8_t> frame) {
  return util::crc32(frame.subspan(kHeaderSize),
                     util::crc32(frame.first(kCrcOffset)));
}

std::uint64_t load_u64(std::span<const std::uint8_t> frame, std::size_t at) {
  ByteReader r(frame.subspan(at, 8));
  return r.u64();
}

void store_le(std::span<std::uint8_t> frame, std::size_t at, std::uint64_t v,
              std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    frame[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

bool decode_hello(ByteReader& r, Hello& out) {
  out.protocol_version = r.u32();
  return r.str(out.client_name, kMaxNameLen) && r.exhausted();
}

bool decode_hello_ack(ByteReader& r, HelloAck& out) {
  out.protocol_version = r.u32();
  out.model_dim = r.u32();
  out.model_crc = r.u32();
  out.stream_id = r.u32();
  return r.str(out.server_name, kMaxNameLen) && r.exhausted();
}

bool decode_submit_frame(ByteReader& r, SubmitFrame& out) {
  out.tag = r.u64();
  const std::uint32_t width = r.u32();
  const std::uint32_t height = r.u32();
  // Dimension validation happens here, before any allocation: zero-area
  // frames and oversized axes are rejected while the payload is still just
  // bytes. The payload length must equal width*height floats exactly.
  if (!r.ok() || width == 0 || height == 0 || width > kMaxFrameDim ||
      height > kMaxFrameDim) {
    return false;
  }
  const std::size_t pixels =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  if (r.remaining() != pixels * sizeof(float)) return false;
  out.image.reset(static_cast<int>(width), static_cast<int>(height));
  return r.f32_array(out.image.pixels()) && r.exhausted();
}

bool decode_result(ByteReader& r, Result& out) {
  out.sequence = r.u64();
  out.tag = r.u64();
  const std::uint8_t status = r.u8();
  if (status >
      static_cast<std::uint8_t>(runtime::FrameStatus::kDegradedInput)) {
    return false;
  }
  out.status = static_cast<runtime::FrameStatus>(status);
  out.degrade_level = r.u8();
  r.skip(2);  // pad
  out.queue_wait_ms = r.f32();
  out.service_ms = r.f32();
  out.total_ms = r.f32();
  // v5 frame-quality block: integrity verdict + camera health + reasons.
  out.input_quality = r.u8();
  out.camera_state = r.u8();
  if (out.input_quality >
          static_cast<std::uint8_t>(guard::FrameQuality::kUnusable) ||
      out.camera_state >
          static_cast<std::uint8_t>(guard::CameraState::kQuarantined)) {
    return false;
  }
  r.skip(2);  // pad
  out.quality_reasons = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxDetections) return false;
  // 28 bytes per detection plus the trace block's hop offsets and level
  // count; its level times vary, so the exact-size check is exhausted().
  if (r.remaining() < std::size_t{count} * 28 + 4 * kTraceHops + 1) {
    return false;
  }
  out.detections.resize(count);
  for (detect::Detection& d : out.detections) {
    d.x = r.i32();
    d.y = r.i32();
    d.width = r.i32();
    d.height = r.i32();
    d.score = r.f32();
    d.scale = r.f64();
  }
  // Trace block: the hop offsets in slot order, u8 level count, level times.
  for (const auto member : kTraceBySlot) out.trace.*member = r.u32();
  const std::uint8_t levels = r.u8();
  if (!r.ok() || levels > obs::kTimelineMaxLevels) return false;
  out.trace.level_count = levels;
  out.trace.level_us.fill(0);
  for (std::uint8_t i = 0; i < levels; ++i) {
    out.trace.level_us[i] = r.u32();
  }
  return r.exhausted();
}

bool decode_telemetry_report(ByteReader& r, TelemetryReport& out) {
  out.uptime_seconds = r.f64();
  out.health_state = r.u32();
  if (out.health_state > runtime::enum_max(runtime::HealthState{})) {
    return false;
  }
  out.timeline_frames = r.u64();
  out.timeline_window = r.u32();
  TelemetryReport::visit(
      [&r](const obs::Segment&, TelemetryPercentiles& p) {
        p.p50_ms = r.f32();
        p.p99_ms = r.f32();
      },
      out);
  return r.ok() && r.str(out.prometheus, kMaxTelemetryTextLen) &&
         r.exhausted();
}

bool decode_stats_report(ByteReader& r, StatsReport& out) {
  out = StatsReport{};  // rows the peer did not send read as zero
  const std::uint16_t count = r.u16();
  if (!r.ok() || count > kMaxStatPairs ||
      r.remaining() != std::size_t{count} * kStatPairBytes) {
    return false;
  }
  std::array<std::uint16_t, kMaxStatPairs> seen{};
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint16_t id = r.u16();
    const std::uint64_t bits = r.u64();
    const auto seen_end = seen.begin() + static_cast<std::ptrdiff_t>(i);
    if (std::find(seen.begin(), seen_end, id) != seen_end) return false;
    seen[i] = id;
    bool valid = true;
    const auto read = [&](const runtime::StatField& f, auto& value) {
      if (id != 0 && f.id == id) valid = read_stat(bits, value);
    };
    runtime::RuntimeStats::visit(read, out.runtime);
    runtime::NetStats::visit(read, out.net);
    if (!valid) return false;
  }
  runtime::derive_stats(out.runtime);
  return r.exhausted();
}

bool decode_error(ByteReader& r, Error& out) {
  out.code = static_cast<ErrorCode>(r.u32());
  return r.str(out.message, kMaxErrorLen) && r.exhausted();
}

}  // namespace

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadCrc: return "bad-crc";
    case DecodeStatus::kBadPayload: return "bad-payload";
    case DecodeStatus::kUnknownType: return "unknown-type";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol: return "protocol";
    case ErrorCode::kVersionMismatch: return "version-mismatch";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kBadFrame: return "bad-frame";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

void encode_hello(const Hello& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kHello);
  w.u32(msg.protocol_version);
  w.str(msg.client_name);
  end_frame(w, out, at);
}

void encode_hello_ack(const HelloAck& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kHelloAck);
  w.u32(msg.protocol_version);
  w.u32(msg.model_dim);
  w.u32(msg.model_crc);
  w.u32(msg.stream_id);
  w.str(msg.server_name);
  end_frame(w, out, at);
}

void encode_submit_frame(const SubmitFrame& msg,
                         std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kSubmitFrame);
  w.u64(msg.tag);
  w.u32(static_cast<std::uint32_t>(msg.image.width()));
  w.u32(static_cast<std::uint32_t>(msg.image.height()));
  w.f32_array(msg.image.pixels());
  end_frame(w, out, at);
}

void encode_result(const Result& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kResult);
  w.u64(msg.sequence);
  w.u64(msg.tag);
  w.u8(static_cast<std::uint8_t>(msg.status));
  w.u8(msg.degrade_level);
  w.u16(0);  // pad
  w.f32(msg.queue_wait_ms);
  w.f32(msg.service_ms);
  w.f32(msg.total_ms);
  w.u8(msg.input_quality);
  w.u8(msg.camera_state);
  w.u16(0);  // pad
  w.u32(msg.quality_reasons);
  w.u32(static_cast<std::uint32_t>(msg.detections.size()));
  for (const detect::Detection& d : msg.detections) {
    w.i32(d.x);
    w.i32(d.y);
    w.i32(d.width);
    w.i32(d.height);
    w.f32(d.score);
    w.f64(d.scale);
  }
  const std::uint8_t levels = std::min<std::uint8_t>(
      msg.trace.level_count,
      static_cast<std::uint8_t>(obs::kTimelineMaxLevels));
  for (const auto member : kTraceBySlot) w.u32(msg.trace.*member);
  w.u8(levels);
  for (std::uint8_t i = 0; i < levels; ++i) {
    w.u32(msg.trace.level_us[i]);
  }
  end_frame(w, out, at);
}

void encode_stats_query(std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kStatsQuery);
  end_frame(w, out, at);
}

void encode_stats_report(const StatsReport& msg,
                         std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kStatsReport);
  w.u16(static_cast<std::uint16_t>(runtime::kWireStatCount));
  const auto write = [&w](const runtime::StatField& f, const auto& value) {
    if (f.id == 0) return;
    w.u16(f.id);
    w.u64(stat_bits(value));
  };
  runtime::RuntimeStats::visit(write, msg.runtime);
  runtime::NetStats::visit(write, msg.net);
  end_frame(w, out, at);
}

void encode_telemetry_query(std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kTelemetryQuery);
  end_frame(w, out, at);
}

void encode_telemetry_report(const TelemetryReport& msg,
                             std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kTelemetryReport);
  w.f64(msg.uptime_seconds);
  w.u32(msg.health_state);
  w.u64(msg.timeline_frames);
  w.u32(msg.timeline_window);
  TelemetryReport::visit(
      [&w](const obs::Segment&, const TelemetryPercentiles& p) {
        w.f32(p.p50_ms);
        w.f32(p.p99_ms);
      },
      msg);
  w.str(std::string_view(msg.prometheus)
            .substr(0, kMaxTelemetryTextLen));
  end_frame(w, out, at);
}

void encode_error(const Error& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kError);
  w.u32(static_cast<std::uint32_t>(msg.code));
  w.str(msg.message);
  end_frame(w, out, at);
}

void encode_shutdown(std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  const std::size_t at = begin_frame(w, MsgType::kShutdown);
  end_frame(w, out, at);
}

void trace_timeline(const obs::FrameTimeline& t, FrameTrace& out) {
#define PDET_TRACE_OFFSET(hop, member, slot) \
  out.member = us_after(t.service_recv_ns, t.hop##_ns);
  PDET_FRAME_HOPS(PDET_TIMELINE_SKIP, PDET_TRACE_OFFSET)
#undef PDET_TRACE_OFFSET
  out.level_count = t.level_count;  // the runtime fills at most the max
  out.level_us = t.level_us;
}

void graft_trace(const FrameTrace& trace, std::uint64_t encode_ns,
                 std::uint64_t decode_ns, obs::FrameTimeline& out) {
  // The server held the frame for send_us; the midpoint estimate splits the
  // rest of the round trip evenly between the two network legs.
  const std::uint64_t server_ns = std::uint64_t{trace.send_us} * 1000;
  const std::uint64_t rtt_ns = decode_ns - encode_ns;
  const std::uint64_t recv_ns =
      encode_ns == 0 || decode_ns <= encode_ns
          ? 0
          : encode_ns + (rtt_ns > server_ns ? (rtt_ns - server_ns) / 2 : 0);
  const auto at = [recv_ns](std::uint64_t us) {
    return recv_ns == 0 || us == 0 ? 0 : recv_ns + us * 1000;
  };
  out.client_encode_ns = encode_ns;
  out.service_recv_ns = recv_ns;
  out.client_decode_ns = decode_ns;
#define PDET_TRACE_GRAFT(hop, member, slot) out.hop##_ns = at(trace.member);
  PDET_FRAME_HOPS(PDET_TIMELINE_SKIP, PDET_TRACE_GRAFT)
#undef PDET_TRACE_GRAFT
  out.level_count = trace.level_count;  // decode_result bounded it
  out.level_us = trace.level_us;
}

DecodeStatus decode_message(std::span<const std::uint8_t> data, Message& out,
                            std::size_t& consumed) {
  consumed = 0;
  MsgType type{};
  std::size_t frame_size = 0;
  DecodeStatus status = peek_frame(data, type, frame_size);
  if (status == DecodeStatus::kOk) {
    status = decode_frame(data.first(frame_size), type, out);
  }
  if (status == DecodeStatus::kOk || status == DecodeStatus::kBadPayload) {
    // Past the CRC the framing (and the type) is sound even when the
    // fields are not: report the full frame as consumed so a caller may
    // skip this one message and keep the stream alive.
    out.type = type;
    consumed = frame_size;
  }
  return status;
}

DecodeStatus peek_frame(std::span<const std::uint8_t> data, MsgType& type,
                        std::size_t& frame_size) {
  if (data.size() < kHeaderSize) return DecodeStatus::kNeedMore;
  ByteReader header(data.first(kHeaderSize));
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t type_byte = header.u8();
  header.u16();  // reserved
  const std::uint32_t payload_len = header.u32();
  const std::uint32_t declared_crc = header.u32();
  if (magic != kMagic) return DecodeStatus::kBadMagic;
  if (version != kProtocolVersion) return DecodeStatus::kBadVersion;
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kBadLength;
  frame_size = kHeaderSize + payload_len;
  if (data.size() < frame_size) return DecodeStatus::kNeedMore;
  if (frame_crc(data.first(frame_size)) != declared_crc) {
    return DecodeStatus::kBadCrc;
  }
  if (type_byte < static_cast<std::uint8_t>(MsgType::kHello) ||
      type_byte > static_cast<std::uint8_t>(MsgType::kTelemetryReport)) {
    return DecodeStatus::kUnknownType;
  }
  type = static_cast<MsgType>(type_byte);

  ByteReader r(data.subspan(kHeaderSize, payload_len));
  if (type == MsgType::kSubmitFrame) {
    r.u64();  // tag
    const std::uint64_t width = r.u32();
    const std::uint64_t height = r.u32();
    if (!r.ok() || width == 0 || height == 0 || width > kMaxFrameDim ||
        height > kMaxFrameDim ||
        r.remaining() != width * height * sizeof(float)) {
      return DecodeStatus::kBadPayload;
    }
  } else if (type == MsgType::kResult && payload_len < 16) {
    return DecodeStatus::kBadPayload;  // no room for sequence + tag
  }
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(std::span<const std::uint8_t> frame, MsgType type,
                          Message& out) {
  out.type = type;
  const std::span<const std::uint8_t> payload = frame.subspan(kHeaderSize);
  ByteReader r(payload);
  bool ok = false;
  switch (type) {
    case MsgType::kHello: ok = decode_hello(r, out.hello); break;
    case MsgType::kHelloAck: ok = decode_hello_ack(r, out.hello_ack); break;
    case MsgType::kSubmitFrame:
      ok = decode_submit_frame(r, out.frame);
      break;
    case MsgType::kResult: ok = decode_result(r, out.result); break;
    case MsgType::kStatsQuery: ok = payload.empty(); break;
    case MsgType::kStatsReport:
      ok = decode_stats_report(r, out.stats);
      break;
    case MsgType::kError: ok = decode_error(r, out.error); break;
    case MsgType::kShutdown: ok = payload.empty(); break;
    case MsgType::kTelemetryQuery: ok = payload.empty(); break;
    case MsgType::kTelemetryReport:
      ok = decode_telemetry_report(r, out.telemetry);
      break;
  }
  return ok ? DecodeStatus::kOk : DecodeStatus::kBadPayload;
}

void resign_frame(std::span<std::uint8_t> frame) {
  store_le(frame, kCrcOffset, frame_crc(frame), 4);
}

std::uint64_t submit_tag(std::span<const std::uint8_t> frame) {
  return load_u64(frame, kSubmitTagOffset);
}

void patch_submit_tag(std::span<std::uint8_t> frame, std::uint64_t tag) {
  store_le(frame, kSubmitTagOffset, tag, 8);
  resign_frame(frame);
}

std::uint64_t result_tag(std::span<const std::uint8_t> frame) {
  return load_u64(frame, kResultTagOffset);
}

void patch_result_ids(std::span<std::uint8_t> frame, std::uint64_t sequence,
                      std::uint64_t tag) {
  store_le(frame, kResultSequenceOffset, sequence, 8);
  store_le(frame, kResultTagOffset, tag, 8);
  resign_frame(frame);
}

}  // namespace pdet::net::wire
