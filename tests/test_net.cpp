// Tests for pdet::net: wire codec round-trip / truncation / corruption /
// fuzz and the raw-frame peek + patchers, the FrameServer core (lazily
// resident link buffers, a pending reply holding input back), the TCP
// DetectionService + Client loopback path (handshake, in-order delivery,
// stats, refusal, graceful stop) and client reconnection across a server
// restart.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/fault/injector.hpp"
#include "src/hog/descriptor.hpp"
#include "src/net/client.hpp"
#include "src/net/frame_server.hpp"
#include "src/net/service.hpp"
#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeline.hpp"
#include "src/svm/model_io.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace pdet::net {
namespace {

// --- fixtures ---------------------------------------------------------------

imgproc::ImageF make_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      img.at(x, y) = static_cast<float>(rng.uniform());
    }
  }
  return img;
}

svm::LinearModel make_model(const hog::HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (float& w : model.weights) {
    w = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  model.bias = -0.25f;
  return model;
}

ServiceOptions test_service_options() {
  ServiceOptions opts;
  opts.port = 0;  // ephemeral: tests never collide on a fixed port
  opts.runtime.workers = 2;
  opts.runtime.queue_capacity = 8;
  opts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.runtime.scheduler.max_level = 0;  // assert counts, not shedding
  opts.runtime.multiscale.scales = {1.0, 1.5};
  return opts;
}

wire::Result sample_result() {
  wire::Result r;
  r.sequence = 41;
  r.tag = 1234567890123ull;
  r.status = runtime::FrameStatus::kDegraded;
  r.degrade_level = 2;
  r.queue_wait_ms = 1.5f;
  r.service_ms = 7.25f;
  r.total_ms = 8.75f;
  r.detections.push_back({10, 20, 64, 128, 1.75f, 1.26});
  r.detections.push_back({-3, 0, 32, 64, -0.5f, 2.0});
  // v5 frame-quality block: gate verdict + camera health + reason mask.
  r.input_quality = 2;
  r.camera_state = 1;
  r.quality_reasons = 0x23;  // frozen | tear | low-contrast
  // v3 trace block: hop offsets (µs from service recv) + per-level times.
  r.trace.gate_us = 9;
  r.trace.admit_us = 15;
  r.trace.schedule_us = 520;
  r.trace.engine_start_us = 530;
  r.trace.engine_end_us = 7780;
  r.trace.deliver_us = 7900;
  r.trace.send_us = 7950;
  r.trace.level_count = 2;
  r.trace.level_us[0] = 5000;
  r.trace.level_us[1] = 2250;
  return r;
}

wire::TelemetryReport sample_telemetry() {
  wire::TelemetryReport t;
  t.uptime_seconds = 123.75;
  t.health_state = 1;
  t.timeline_frames = 4096;
  t.timeline_window = 64;
  t.admit = {0.01f, 0.2f};
  t.queue = {0.5f, 4.25f};
  t.engine = {7.5f, 11.0f};
  t.total = {8.25f, 15.5f};
  t.prometheus =
      "# TYPE pdet_runtime_health gauge\npdet_runtime_health 1\n"
      "# TYPE pdet_runtime_frames_completed_total counter\n"
      "pdet_runtime_frames_completed_total 4096\n";
  return t;
}

/// A report in which every table row is distinct and nonzero (enums at
/// their largest valid value, everything else counting up from 100), the
/// derived rows recomputed.
wire::StatsReport sample_stats() {
  wire::StatsReport r;
  long long next = 100;
  const auto fill = [&next](const runtime::StatField&, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(runtime::enum_max(T{}));
    } else if constexpr (std::is_floating_point_v<T>) {
      v = static_cast<T>(next++) + 0.25;
    } else {
      v = static_cast<T>(next++);
    }
  };
  runtime::RuntimeStats::visit(fill, r.runtime);
  runtime::NetStats::visit(fill, r.net);
  runtime::derive_stats(r.runtime);
  return r;
}

/// Every table row of `a` equals `b`'s.
void expect_same_report(const wire::StatsReport& a,
                        const wire::StatsReport& b) {
  const auto same = [](const runtime::StatField& f, const auto& x,
                       const auto& y) { EXPECT_EQ(x, y) << f.name; };
  runtime::RuntimeStats::visit(same, a.runtime, b.runtime);
  runtime::NetStats::visit(same, a.net, b.net);
}

using StatPair = std::pair<std::uint16_t, std::uint64_t>;

/// Rewrite a frame's payload length and CRC after a test edited it, so the
/// decoder sees a well-framed, CRC-valid payload defect.
void resign(std::vector<std::uint8_t>& frame) {
  const auto len = static_cast<std::uint32_t>(frame.size() - wire::kHeaderSize);
  const std::span<const std::uint8_t> all(frame);
  for (std::size_t i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  const std::uint32_t crc = util::crc32(
      all.subspan(wire::kHeaderSize), util::crc32(all.subspan(0, 12)));
  for (std::size_t i = 0; i < 4; ++i) {
    frame[12 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// The (id, value) pairs the encoder writes for `report`.
std::vector<StatPair> pairs_of(const wire::StatsReport& report) {
  std::vector<std::uint8_t> frame;
  wire::encode_stats_report(report, frame);
  util::ByteReader r(std::span<const std::uint8_t>(frame).subspan(wire::kHeaderSize));
  std::vector<StatPair> pairs(r.u16());
  for (auto& [id, value] : pairs) {
    id = r.u16();
    value = r.u64();
  }
  EXPECT_TRUE(r.exhausted());
  return pairs;
}

/// A StatsReport frame encoded by hand: `count`, then `pairs` as given.
std::vector<std::uint8_t> stats_frame(std::size_t count,
                                      const std::vector<StatPair>& pairs) {
  std::vector<std::uint8_t> frame;
  wire::encode_stats_report(wire::StatsReport{}, frame);
  frame.resize(wire::kHeaderSize);
  util::ByteWriter w(frame);
  w.u16(static_cast<std::uint16_t>(count));
  for (const auto& [id, value] : pairs) {
    w.u16(id);
    w.u64(value);
  }
  resign(frame);
  return frame;
}

/// Decode one whole frame; a payload defect must still consume all of it.
wire::DecodeStatus decode_whole(const std::vector<std::uint8_t>& frame,
                                wire::Message& out) {
  std::size_t consumed = 0;
  const wire::DecodeStatus status = wire::decode_message(frame, out, consumed);
  if (status == wire::DecodeStatus::kOk ||
      status == wire::DecodeStatus::kBadPayload) {
    EXPECT_EQ(consumed, frame.size());
  }
  return status;
}

/// Encode each message type once, in a fixed order, into separate buffers.
std::vector<std::vector<std::uint8_t>> encode_one_of_each() {
  std::vector<std::vector<std::uint8_t>> frames(10);
  wire::Hello hello;
  hello.client_name = "cam-front";
  wire::encode_hello(hello, frames[0]);
  wire::HelloAck ack;
  ack.model_dim = 4608;
  ack.model_crc = 0xDEADBEEF;
  ack.stream_id = 3;
  ack.server_name = "pdet-test";
  wire::encode_hello_ack(ack, frames[1]);
  wire::SubmitFrame submit;
  submit.tag = 77;
  submit.image = make_frame(24, 16, 5);
  wire::encode_submit_frame(submit, frames[2]);
  wire::encode_result(sample_result(), frames[3]);
  wire::encode_stats_query(frames[4]);
  wire::encode_stats_report(sample_stats(), frames[5]);
  wire::Error err;
  err.code = wire::ErrorCode::kBusy;
  err.message = "no free stream slot";
  wire::encode_error(err, frames[6]);
  wire::encode_shutdown(frames[7]);
  wire::encode_telemetry_query(frames[8]);
  wire::encode_telemetry_report(sample_telemetry(), frames[9]);
  return frames;
}

// --- raw-socket helpers (tests that speak the protocol by hand) -------------

bool send_all_raw(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t at = 0;
  while (at < buf.size()) {
    if (!wait_writable(fd, 5000.0)) return false;
    std::size_t n = 0;
    const IoStatus status = send_some(
        fd, std::span<const std::uint8_t>(buf).subspan(at), n);
    if (status == IoStatus::kClosed || status == IoStatus::kError) {
      return false;
    }
    if (status == IoStatus::kOk) at += n;
  }
  return true;
}

/// Read one wire message from fd into `msg`, keeping unconsumed bytes in
/// `in` for the next call. False on timeout, EOF or decode failure.
bool read_one_message(int fd, std::vector<std::uint8_t>& in,
                      wire::Message& msg, double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  for (;;) {
    std::size_t consumed = 0;
    const wire::DecodeStatus status = wire::decode_message(in, msg, consumed);
    if (status == wire::DecodeStatus::kOk) {
      in.erase(in.begin(),
               in.begin() + static_cast<std::ptrdiff_t>(consumed));
      return true;
    }
    if (status != wire::DecodeStatus::kNeedMore) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (!wait_readable(fd, 100.0)) continue;
    std::uint8_t chunk[64 * 1024];
    std::size_t got = 0;
    switch (recv_some(fd, chunk, got)) {
      case IoStatus::kOk:
        in.insert(in.end(), chunk, chunk + got);
        break;
      case IoStatus::kWouldBlock:
        break;
      case IoStatus::kClosed:
      case IoStatus::kError:
        return false;
    }
  }
}

// --- wire codec -------------------------------------------------------------

TEST(WireCodec, HelloRoundtrip) {
  wire::Hello in;
  in.client_name = "cam-front-left";
  std::vector<std::uint8_t> buf;
  wire::encode_hello(in, buf);
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, buf.size());
  ASSERT_EQ(out.type, wire::MsgType::kHello);
  EXPECT_EQ(out.hello.protocol_version, wire::kProtocolVersion);
  EXPECT_EQ(out.hello.client_name, in.client_name);
}

TEST(WireCodec, HelloAckRoundtrip) {
  wire::HelloAck in;
  in.model_dim = 4608;
  in.model_crc = 0x0D8A6497;
  in.stream_id = 7;
  in.server_name = "pdet";
  std::vector<std::uint8_t> buf;
  wire::encode_hello_ack(in, buf);
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kHelloAck);
  EXPECT_EQ(out.hello_ack.model_dim, in.model_dim);
  EXPECT_EQ(out.hello_ack.model_crc, in.model_crc);
  EXPECT_EQ(out.hello_ack.stream_id, in.stream_id);
  EXPECT_EQ(out.hello_ack.server_name, in.server_name);
}

TEST(WireCodec, SubmitFrameRoundtripIsPixelExact) {
  wire::SubmitFrame in;
  in.tag = 0xFEEDFACE01234567ull;
  in.image = make_frame(33, 21, 9);  // odd sizes: no stride assumptions
  std::vector<std::uint8_t> buf;
  wire::encode_submit_frame(in, buf);
  wire::Message out;
  // Pre-dirty the reused image: decode must reset geometry and content.
  out.frame.image = make_frame(64, 64, 1);
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kSubmitFrame);
  EXPECT_EQ(out.frame.tag, in.tag);
  ASSERT_EQ(out.frame.image.width(), in.image.width());
  ASSERT_EQ(out.frame.image.height(), in.image.height());
  for (int y = 0; y < in.image.height(); ++y) {
    for (int x = 0; x < in.image.width(); ++x) {
      ASSERT_EQ(out.frame.image.at(x, y), in.image.at(x, y));
    }
  }
}

TEST(WireCodec, ResultRoundtrip) {
  const wire::Result in = sample_result();
  std::vector<std::uint8_t> buf;
  wire::encode_result(in, buf);
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kResult);
  const wire::Result& r = out.result;
  EXPECT_EQ(r.sequence, in.sequence);
  EXPECT_EQ(r.tag, in.tag);
  EXPECT_EQ(r.status, in.status);
  EXPECT_EQ(r.degrade_level, in.degrade_level);
  EXPECT_FLOAT_EQ(r.queue_wait_ms, in.queue_wait_ms);
  EXPECT_FLOAT_EQ(r.service_ms, in.service_ms);
  EXPECT_FLOAT_EQ(r.total_ms, in.total_ms);
  ASSERT_EQ(r.detections.size(), in.detections.size());
  for (std::size_t i = 0; i < r.detections.size(); ++i) {
    EXPECT_EQ(r.detections[i].x, in.detections[i].x);
    EXPECT_EQ(r.detections[i].y, in.detections[i].y);
    EXPECT_EQ(r.detections[i].width, in.detections[i].width);
    EXPECT_EQ(r.detections[i].height, in.detections[i].height);
    EXPECT_FLOAT_EQ(r.detections[i].score, in.detections[i].score);
    EXPECT_DOUBLE_EQ(r.detections[i].scale, in.detections[i].scale);
  }
  // v5: the frame-quality block rides every Result.
  EXPECT_EQ(r.input_quality, in.input_quality);
  EXPECT_EQ(r.camera_state, in.camera_state);
  EXPECT_EQ(r.quality_reasons, in.quality_reasons);
  // v3: the trace block rides every Result (+ the v5 gate hop).
  EXPECT_EQ(r.trace.gate_us, in.trace.gate_us);
  EXPECT_EQ(r.trace.admit_us, in.trace.admit_us);
  EXPECT_EQ(r.trace.schedule_us, in.trace.schedule_us);
  EXPECT_EQ(r.trace.engine_start_us, in.trace.engine_start_us);
  EXPECT_EQ(r.trace.engine_end_us, in.trace.engine_end_us);
  EXPECT_EQ(r.trace.deliver_us, in.trace.deliver_us);
  EXPECT_EQ(r.trace.send_us, in.trace.send_us);
  ASSERT_EQ(r.trace.level_count, in.trace.level_count);
  for (std::size_t i = 0; i < in.trace.level_count; ++i) {
    EXPECT_EQ(r.trace.level_us[i], in.trace.level_us[i]) << "level " << i;
  }
}

TEST(WireCodec, TelemetryRoundtrip) {
  std::vector<std::uint8_t> buf;
  wire::encode_telemetry_query(buf);
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  EXPECT_EQ(out.type, wire::MsgType::kTelemetryQuery);
  EXPECT_EQ(consumed, buf.size());

  const wire::TelemetryReport in = sample_telemetry();
  buf.clear();
  wire::encode_telemetry_report(in, buf);
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kTelemetryReport);
  const wire::TelemetryReport& t = out.telemetry;
  EXPECT_DOUBLE_EQ(t.uptime_seconds, in.uptime_seconds);
  EXPECT_EQ(t.health_state, in.health_state);
  EXPECT_EQ(t.timeline_frames, in.timeline_frames);
  EXPECT_EQ(t.timeline_window, in.timeline_window);
  EXPECT_FLOAT_EQ(t.admit.p50_ms, in.admit.p50_ms);
  EXPECT_FLOAT_EQ(t.admit.p99_ms, in.admit.p99_ms);
  EXPECT_FLOAT_EQ(t.queue.p50_ms, in.queue.p50_ms);
  EXPECT_FLOAT_EQ(t.queue.p99_ms, in.queue.p99_ms);
  EXPECT_FLOAT_EQ(t.engine.p50_ms, in.engine.p50_ms);
  EXPECT_FLOAT_EQ(t.engine.p99_ms, in.engine.p99_ms);
  EXPECT_FLOAT_EQ(t.total.p50_ms, in.total.p50_ms);
  EXPECT_FLOAT_EQ(t.total.p99_ms, in.total.p99_ms);
  EXPECT_EQ(t.prometheus, in.prometheus);
}

TEST(WireCodec, TelemetryReportCapsOversizedPrometheusText) {
  // A runaway registry must not produce an unbounded frame: the encoder
  // truncates at the wire cap and the result still round-trips cleanly.
  wire::TelemetryReport in = sample_telemetry();
  in.prometheus.assign(wire::kMaxTelemetryTextLen + 4096, 'x');
  std::vector<std::uint8_t> buf;
  wire::encode_telemetry_report(in, buf);
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(buf, out, consumed), wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kTelemetryReport);
  EXPECT_EQ(out.telemetry.prometheus.size(), wire::kMaxTelemetryTextLen);
}

// --- golden bytes ------------------------------------------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// The round trips above would still pass if an encoder and its decoder
// changed their field order together; these pin the v6 bytes themselves.
// Every trace hop, level slot and percentile holds a distinct value, so a
// field that moves changes the hex. The hex was captured from the v6 codec
// as first written, field by field.
TEST(WireGolden, ResultTraceBlockKeepsItsV6Bytes) {
  wire::Result r;
  r.sequence = 7;
  r.tag = 9;
  r.status = runtime::FrameStatus::kDegraded;
  r.degrade_level = 1;
  r.queue_wait_ms = 0.5f;
  r.service_ms = 2.0f;
  r.total_ms = 4.0f;
  r.input_quality = 1;
  r.camera_state = 1;
  r.quality_reasons = 0x21;
  r.detections.push_back({10, 20, 64, 128, 1.5f, 1.25});
  r.trace.admit_us = 101;
  r.trace.schedule_us = 102;
  r.trace.engine_start_us = 103;
  r.trace.engine_end_us = 104;
  r.trace.deliver_us = 105;
  r.trace.send_us = 106;
  r.trace.gate_us = 107;
  r.trace.level_count = static_cast<std::uint8_t>(obs::kTimelineMaxLevels);
  for (std::size_t i = 0; i < obs::kTimelineMaxLevels; ++i) {
    r.trace.level_us[i] = 201 + static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint8_t> buf;
  wire::encode_result(r, buf);
  EXPECT_EQ(hex(buf),
            "314e44500604000095000000e51feb68"  // header (v6, kResult, CRC)
            "0700000000000000" "0900000000000000"  // sequence, tag
            "01010000" "0000003f" "00000040" "00008040"  // status..total_ms
            "01010000" "21000000" "01000000"  // quality block, box count
            "0a000000140000004000000080000000" "0000c03f" "000000000000f43f"
            // trace block: admit, schedule, engine start/end, deliver,
            // send, gate, then the level count and the level times
            "65000000" "66000000" "67000000" "68000000" "69000000"
            "6a000000" "6b000000" "0c"
            "c9000000ca000000cb000000cc000000cd000000ce000000"
            "cf000000d0000000d1000000d2000000d3000000d4000000");
}

TEST(WireGolden, TelemetryPercentilesKeepTheirV6Bytes) {
  wire::TelemetryReport t;
  t.uptime_seconds = 123.75;
  t.health_state = 1;
  t.timeline_frames = 4096;
  t.timeline_window = 64;
  t.admit = {0.25f, 0.5f};
  t.queue = {1.0f, 2.0f};
  t.engine = {4.0f, 8.0f};
  t.total = {16.0f, 32.0f};
  t.prometheus = "up 1\n";
  std::vector<std::uint8_t> buf;
  wire::encode_telemetry_report(t, buf);
  EXPECT_EQ(hex(buf),
            "314e4450060a000041000000a88f353f"  // header (v6, kTelemetryReport)
            "0000000000f05e40" "01000000" "0010000000000000" "40000000"
            // admit, queue, engine, total: p50 then p99 each
            "0000803e0000003f" "0000803f00000040" "0000804000000041"
            "0000804100000042"
            "05000000757020310a");
}

TEST(WireCodec, StatsAndControlRoundtrip) {
  const auto frames = encode_one_of_each();
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(frames[4], out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(out.type, wire::MsgType::kStatsQuery);
  ASSERT_EQ(wire::decode_message(frames[5], out, consumed),
            wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kStatsReport);
  // v6: every row of the stats table survives, each one distinct.
  const wire::StatsReport in = sample_stats();
  expect_same_report(out.stats, in);
  const auto nonzero = [](const runtime::StatField& f, const auto& v) {
    EXPECT_NE(v, std::decay_t<decltype(v)>{}) << f.name;
  };
  runtime::RuntimeStats::visit(nonzero, in.runtime);
  runtime::NetStats::visit(nonzero, in.net);
  ASSERT_EQ(wire::decode_message(frames[6], out, consumed),
            wire::DecodeStatus::kOk);
  ASSERT_EQ(out.type, wire::MsgType::kError);
  EXPECT_EQ(out.error.code, wire::ErrorCode::kBusy);
  EXPECT_EQ(out.error.message, "no free stream slot");
  ASSERT_EQ(wire::decode_message(frames[7], out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(out.type, wire::MsgType::kShutdown);
}

TEST(WireCodec, StatsReportSkipsUnknownIds) {
  // A newer peer's rows (and id 0, which no sent row has) are skipped; the
  // known rows still decode wherever they sit in the list.
  const wire::StatsReport in = sample_stats();
  std::vector<StatPair> pairs = pairs_of(in);
  ASSERT_EQ(pairs.size(), runtime::kWireStatCount);
  pairs.insert(pairs.begin() + 3, {999, ~0ull});
  pairs.push_back({0, 7});
  wire::Message out;
  ASSERT_EQ(decode_whole(stats_frame(pairs.size(), pairs), out),
            wire::DecodeStatus::kOk);
  expect_same_report(out.stats, in);

  // Up to kMaxStatPairs pairs decode, all of them unknown here.
  std::vector<StatPair> many;
  for (std::size_t i = 0; i < wire::kMaxStatPairs; ++i) {
    many.push_back({static_cast<std::uint16_t>(1000 + i), i});
  }
  ASSERT_EQ(decode_whole(stats_frame(many.size(), many), out),
            wire::DecodeStatus::kOk);
  expect_same_report(out.stats, wire::StatsReport{});
}

TEST(WireCodec, StatsReportRejectsMalformedBlocks) {
  const std::vector<StatPair> pairs = pairs_of(sample_stats());
  wire::Message out;
  ASSERT_EQ(decode_whole(stats_frame(pairs.size(), pairs), out),
            wire::DecodeStatus::kOk);

  std::vector<StatPair> dup = pairs;  // one row twice, same value
  dup.push_back(pairs[4]);
  EXPECT_EQ(decode_whole(stats_frame(dup.size(), dup), out),
            wire::DecodeStatus::kBadPayload);
  std::vector<StatPair> dup_unknown = pairs;  // unknown ids count too
  dup_unknown.push_back({999, 1});
  dup_unknown.push_back({999, 1});
  EXPECT_EQ(decode_whole(stats_frame(dup_unknown.size(), dup_unknown), out),
            wire::DecodeStatus::kBadPayload);

  std::vector<StatPair> many;  // one pair over the cap, all ids distinct
  for (std::size_t i = 0; i <= wire::kMaxStatPairs; ++i) {
    many.push_back({static_cast<std::uint16_t>(1000 + i), i});
  }
  EXPECT_EQ(decode_whole(stats_frame(many.size(), many), out),
            wire::DecodeStatus::kBadPayload);

  std::vector<std::uint8_t> truncated = stats_frame(pairs.size(), pairs);
  truncated.resize(truncated.size() - 3);  // the last pair loses 3 bytes
  resign(truncated);
  EXPECT_EQ(decode_whole(truncated, out), wire::DecodeStatus::kBadPayload);
  EXPECT_EQ(decode_whole(stats_frame(pairs.size() + 1, pairs), out),
            wire::DecodeStatus::kBadPayload);  // a pair short of the count

  std::vector<std::uint8_t> trailing = stats_frame(pairs.size(), pairs);
  trailing.push_back(0);
  resign(trailing);
  EXPECT_EQ(decode_whole(trailing, out), wire::DecodeStatus::kBadPayload);
}

// The out-of-range corpus: one CRC-valid, well-framed message per enum (and
// int) field that crosses the wire, holding the smallest value past its
// range. Only the range check can refuse each one — a shard reporting
// health 9 must not become the fleet's health through the worst-of merge.
TEST(WireCodec, OutOfRangeValuesAreBadPayload) {
  struct Case {
    std::string field;
    std::vector<std::uint8_t> frame;
  };
  std::vector<Case> corpus;
  const wire::StatsReport sample = sample_stats();
  const std::vector<StatPair> pairs = pairs_of(sample);
  const auto past_range = [&](const runtime::StatField& f, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    std::uint64_t bad = 0;
    if constexpr (std::is_enum_v<T>) {
      bad = runtime::enum_max(T{}) + 1;
    } else if constexpr (std::is_same_v<T, int>) {
      bad = std::uint64_t{1} << 31;
    } else {
      return;
    }
    std::vector<StatPair> edited = pairs;
    for (auto& [id, value] : edited) {
      if (id == f.id) value = bad;
    }
    corpus.push_back({std::string("StatsReport.") + f.name,
                      stats_frame(edited.size(), edited)});
  };
  runtime::RuntimeStats::visit(past_range, sample.runtime);
  runtime::NetStats::visit(past_range, sample.net);

  std::vector<std::uint8_t> telemetry;
  wire::encode_telemetry_report(sample_telemetry(), telemetry);
  telemetry[wire::kHeaderSize + 8] = 3;  // health_state, after the f64 uptime
  resign(telemetry);
  corpus.push_back({"TelemetryReport.health_state", telemetry});
  std::vector<std::uint8_t> result;
  wire::encode_result(sample_result(), result);
  result[wire::kHeaderSize + 32] = 3;  // input_quality
  resign(result);
  corpus.push_back({"Result.input_quality", result});
  result.clear();
  wire::encode_result(sample_result(), result);
  result[wire::kHeaderSize + 33] = 3;  // camera_state
  resign(result);
  corpus.push_back({"Result.camera_state", result});

  for (const char* field : {"StatsReport.health", "StatsReport.backend"}) {
    EXPECT_TRUE(std::any_of(corpus.begin(), corpus.end(),
                            [&](const Case& c) { return c.field == field; }))
        << field;
  }
  for (const Case& c : corpus) {
    wire::Message out;
    EXPECT_EQ(decode_whole(c.frame, out), wire::DecodeStatus::kBadPayload)
        << c.field;
  }
}

TEST(WireCodec, ConcatenatedFramesDecodeInSequence) {
  // Encoders append: a send buffer can batch frames back to back, and the
  // decoder must peel them off one at a time with exact consumed counts.
  std::vector<std::uint8_t> buf;
  wire::Hello hello;
  hello.client_name = "a";
  wire::encode_hello(hello, buf);
  wire::encode_stats_query(buf);
  wire::encode_shutdown(buf);
  wire::Message out;
  std::size_t consumed = 0;
  std::size_t offset = 0;
  const wire::MsgType expect[] = {wire::MsgType::kHello,
                                  wire::MsgType::kStatsQuery,
                                  wire::MsgType::kShutdown};
  for (wire::MsgType t : expect) {
    ASSERT_EQ(wire::decode_message(
                  std::span<const std::uint8_t>(buf).subspan(offset), out,
                  consumed),
              wire::DecodeStatus::kOk);
    EXPECT_EQ(out.type, t);
    offset += consumed;
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(WireCodec, EveryPrefixReturnsNeedMoreAndConsumesNothing) {
  for (const auto& frame : encode_one_of_each()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      wire::Message out;
      std::size_t consumed = 99;
      const auto status = wire::decode_message(
          std::span<const std::uint8_t>(frame.data(), len), out, consumed);
      ASSERT_EQ(status, wire::DecodeStatus::kNeedMore)
          << "prefix " << len << " of " << frame.size();
      ASSERT_EQ(consumed, 0u);
    }
  }
}

TEST(WireCodec, EverySingleByteFlipIsRejected) {
  // The CRC covers the header prefix as well as the payload, so no
  // single-byte corruption — magic, version, type, length, crc or payload —
  // may ever decode as a valid message.
  for (const auto& frame : encode_one_of_each()) {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0x20;
      wire::Message out;
      std::size_t consumed = 0;
      const auto status = wire::decode_message(bad, out, consumed);
      ASSERT_NE(status, wire::DecodeStatus::kOk)
          << "flip at byte " << i << " of " << frame.size();
      if (status != wire::DecodeStatus::kNeedMore) {
        ASSERT_EQ(consumed, 0u);
      }
    }
  }
}

TEST(WireCodec, RandomBytesNeverCrashTheDecoder) {
  util::Rng rng(2026);
  wire::Message out;  // reused across iterations like a real connection
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 256)));
    for (std::uint8_t& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // Half the rounds get a valid magic prefix so the deeper header /
    // length / crc paths are exercised, not just the magic check.
    if (round % 2 == 0 && junk.size() >= 4) {
      junk[0] = 0x31;
      junk[1] = 0x4E;
      junk[2] = 0x44;
      junk[3] = 0x50;
    }
    std::size_t consumed = 0;
    const auto status = wire::decode_message(junk, out, consumed);
    if (status == wire::DecodeStatus::kOk) {
      ASSERT_LE(consumed, junk.size());
    } else {
      ASSERT_EQ(consumed, 0u);
    }
  }
}

TEST(WireCodec, PeekFrameAndPatchersForwardWithoutDecode) {
  // peek_frame agrees with decode_message on the framing; the patchers
  // rewrite the forwarded ids and re-sign, so the frame still decodes.
  wire::SubmitFrame submit;
  submit.tag = 77;
  submit.image = make_frame(24, 16, 5);
  std::vector<std::uint8_t> frame;
  wire::encode_submit_frame(submit, frame);
  wire::MsgType type{};
  std::size_t size = 0;
  ASSERT_EQ(wire::peek_frame(frame, type, size), wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::MsgType::kSubmitFrame);
  EXPECT_EQ(size, frame.size());
  EXPECT_EQ(wire::submit_tag(frame), 77u);
  wire::patch_submit_tag(frame, 5);
  wire::Message msg;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(frame, msg, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(msg.frame.tag, 5u);
  EXPECT_EQ(msg.frame.image.pixels()[7], submit.image.pixels()[7]);

  std::vector<std::uint8_t> result;
  wire::encode_result(sample_result(), result);
  EXPECT_EQ(wire::result_tag(result), sample_result().tag);
  wire::patch_result_ids(result, 3, 9);
  ASSERT_EQ(wire::decode_message(result, msg, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(msg.result.sequence, 3u);
  EXPECT_EQ(msg.result.tag, 9u);

  // A prefix reports the whole frame's size once the header is in, so a
  // reader can tell a frame its buffer will never hold.
  size = 0;
  EXPECT_EQ(wire::peek_frame(std::span<const std::uint8_t>(result).first(20),
                             type, size),
            wire::DecodeStatus::kNeedMore);
  EXPECT_EQ(size, result.size());
  // A patch without a re-sign is caught.
  result[wire::kHeaderSize] ^= 1;
  EXPECT_EQ(wire::peek_frame(result, type, size), wire::DecodeStatus::kBadCrc);
}

// --- frame server core ------------------------------------------------------

TEST(LinkBuffer, UnwrittenStorageHasNoResidentPages) {
#if !defined(__linux__)
  GTEST_SKIP() << "needs mincore";
#else
  // The storage is its own anonymous mapping (page-aligned): a page turns
  // resident only once a link writes it.
  constexpr std::size_t kBytes = std::size_t{40} << 20;
  LinkBuffer buffer(kBytes);
  const std::span<const std::uint8_t> storage = buffer.storage();
  ASSERT_EQ(storage.size(), kBytes);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> pages((kBytes + page - 1) / page);
  const auto resident_pages = [&] {
    if (mincore(const_cast<std::uint8_t*>(storage.data()), kBytes,
                pages.data()) != 0) {
      return std::ptrdiff_t{-1};
    }
    return std::count_if(pages.begin(), pages.end(),
                         [](unsigned char v) { return (v & 1u) != 0; });
  };

  const std::ptrdiff_t untouched = resident_pages();
  if (untouched < 0) GTEST_SKIP() << "mincore failed";
  // Writing bytes must show as residency, or mincore tells us nothing.
  const std::vector<std::uint8_t> bytes(4 * page, 1);
  ASSERT_TRUE(buffer.append(bytes));
  if (resident_pages() < 1) {
    GTEST_SKIP() << "mincore does not report residency";
  }
  EXPECT_EQ(untouched, 0);
#endif
}

/// Answers every query with one ~1 MiB TelemetryReport and counts them.
class BigReplies final : public FrameServer::Handler {
 public:
  BigReplies() {
    wire::TelemetryReport report;
    report.prometheus.assign(wire::kMaxTelemetryTextLen, '#');
    wire::encode_telemetry_report(report, reply_);
  }
  FrameServer* server = nullptr;
  std::atomic<int> queries{0};

  const char* bind(Link&, const wire::Hello&, wire::HelloAck&) override {
    return nullptr;
  }
  bool submit(Link&, std::span<std::uint8_t>) override { return true; }
  void query(Link& link, wire::MsgType) override {
    queries.fetch_add(1);
    EXPECT_TRUE(server->send(link, reply_));
  }
  bool owes(const Link&) const override { return false; }

 private:
  std::vector<std::uint8_t> reply_;
};

TEST(FrameServer, PendingReplyHoldsInputUntilSent) {
  // Replies far larger than the link's tx: each waits as the pending frame,
  // and until it is sent the link's next query is not read. A client that
  // queries without reading is pushed back instead of buffered.
  BigReplies handler;
  std::mutex mutex;
  runtime::NetStats stats;
  FrameServer server({.max_clients = 1, .rx_bytes = 4096, .tx_bytes = 64u << 10},
                     handler, mutex, stats);
  handler.server = &server;
  ASSERT_TRUE(server.start());
  std::string error;
  Socket sock = Socket::connect_tcp("127.0.0.1", server.port(), 2000.0, &error);
  ASSERT_TRUE(sock.valid()) << error;

  constexpr int kQueries = 32;
  std::vector<std::uint8_t> queries;
  for (int i = 0; i < kQueries; ++i) wire::encode_telemetry_query(queries);
  ASSERT_TRUE(send_all_raw(sock.fd(), queries));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The kernel's socket buffers hold a few replies and the link one more;
  // the other queries wait unread.
  EXPECT_LT(handler.queries.load(), kQueries);

  std::vector<std::uint8_t> in;
  wire::Message msg;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(read_one_message(sock.fd(), in, msg, 30000.0)) << i;
    ASSERT_EQ(msg.type, wire::MsgType::kTelemetryReport);
    EXPECT_EQ(msg.telemetry.prometheus.size(), wire::kMaxTelemetryTextLen);
  }
  EXPECT_EQ(handler.queries.load(), kQueries);
  sock.close();
  server.stop();
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(stats.connections_closed, 1);
}

// --- service + client loopback ----------------------------------------------

TEST(DetectionService, StartsOnEphemeralPortAndStopsIdempotently) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 21);
  DetectionService service(model, opts);
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  EXPECT_TRUE(service.running());
  EXPECT_GT(service.port(), 0);
  service.stop();
  EXPECT_FALSE(service.running());
  service.stop();  // idempotent
}

TEST(DetectionService, SingleClientSubmitsAndReadsInOrder) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 22);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  ClientOptions copts;
  copts.port = service.port();
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  EXPECT_EQ(client.server_info().model_dim,
            static_cast<std::uint32_t>(model.weights.size()));
  EXPECT_EQ(client.server_info().model_crc, svm::model_fingerprint(model));

  constexpr int kFrames = 5;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.submit(make_frame(160, 160, 100 + static_cast<std::uint64_t>(f))))
        << client.last_error();
  }
  wire::Result result;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
    EXPECT_EQ(result.tag, static_cast<std::uint64_t>(f));
    EXPECT_EQ(result.status, runtime::FrameStatus::kOk);
  }
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.protocol_errors(), 0);
  EXPECT_EQ(client.results_received(), kFrames);

  wire::StatsReport report;
  ASSERT_TRUE(client.query_stats(report, 30000.0)) << client.last_error();
  EXPECT_EQ(report.net.frames_received, kFrames);
  EXPECT_EQ(report.net.results_sent, kFrames);
  EXPECT_EQ(report.net.active_connections, 1);
  EXPECT_EQ(report.runtime.submitted, kFrames);

  client.disconnect();
  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(stats.frames_received, kFrames);
  EXPECT_EQ(stats.results_sent, kFrames);
  EXPECT_EQ(stats.decode_errors, 0);
  service.publish_metrics();  // owner-thread publish must not throw
}

TEST(DetectionService, FourConcurrentClientsStayIsolatedAndInOrder) {
  ServiceOptions opts = test_service_options();
  opts.runtime.workers = 2;
  const svm::LinearModel model = make_model(opts.runtime.hog, 23);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  constexpr int kClients = 4;
  constexpr int kFrames = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = service.port();
      copts.name = "cam" + std::to_string(c);
      Client client(copts);
      if (!client.connect()) {
        ADD_FAILURE() << "client " << c << ": " << client.last_error();
        failures.fetch_add(1);
        return;
      }
      for (int f = 0; f < kFrames; ++f) {
        if (!client.submit(
                make_frame(160, 160,
                           static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(f)))) {
          ADD_FAILURE() << "submit " << c << "/" << f << ": "
                        << client.last_error();
          failures.fetch_add(1);
          return;
        }
      }
      wire::Result result;
      for (int f = 0; f < kFrames; ++f) {
        if (!client.next_result(result, 30000.0)) {
          ADD_FAILURE() << "result " << c << "/" << f << ": "
                        << client.last_error();
          failures.fetch_add(1);
          return;
        }
        // Tag echoes this client's own submit index: slot isolation means a
        // client never sees another connection's results.
        EXPECT_EQ(result.tag, static_cast<std::uint64_t>(f));
      }
      EXPECT_TRUE(client.in_order());
      EXPECT_EQ(client.protocol_errors(), 0);
      client.disconnect();
    });
  }
  for (std::thread& t : threads) t.join();
  service.stop();
  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frames_received, kClients * kFrames);
  EXPECT_EQ(stats.results_sent, kClients * kFrames);
  EXPECT_EQ(stats.decode_errors, 0);
}

TEST(DetectionService, RefusesClientsBeyondMaxSlots) {
  ServiceOptions opts = test_service_options();
  opts.max_clients = 1;
  const svm::LinearModel model = make_model(opts.runtime.hog, 24);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  ClientOptions copts;
  copts.port = service.port();
  Client first(copts);
  ASSERT_TRUE(first.connect()) << first.last_error();

  ClientOptions no_retry = copts;
  no_retry.reconnect_attempts = 0;  // a kBusy refusal must not loop
  Client second(no_retry);
  EXPECT_FALSE(second.connect());

  // The occupied slot keeps working after the refusal.
  ASSERT_TRUE(first.submit(make_frame(160, 160, 3)));
  wire::Result result;
  ASSERT_TRUE(first.next_result(result, 30000.0)) << first.last_error();
  EXPECT_EQ(result.tag, 0u);
  first.disconnect();
  service.stop();
  EXPECT_EQ(service.stats().connections_refused, 1);
}

TEST(DetectionService, RejectsHandshakeWithWrongProtocolVersion) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 25);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  // Raw socket: the Client always speaks the right version, so drive the
  // negotiation failure path by hand.
  std::string error;
  Socket sock = Socket::connect_tcp("127.0.0.1", service.port(), 2000.0,
                                    &error);
  ASSERT_TRUE(sock.valid()) << error;
  wire::Hello hello;
  hello.protocol_version = 42;
  hello.client_name = "time-traveller";
  std::vector<std::uint8_t> buf;
  wire::encode_hello(hello, buf);
  std::size_t total_sent = 0;
  while (total_sent < buf.size()) {
    ASSERT_TRUE(wait_writable(sock.fd(), 2000.0));
    std::size_t n = 0;
    ASSERT_NE(send_some(sock.fd(),
                        std::span<const std::uint8_t>(buf).subspan(total_sent),
                        n),
              IoStatus::kError);
    total_sent += n;
  }
  std::vector<std::uint8_t> in;
  std::uint8_t chunk[1024];
  wire::Message msg;
  std::size_t consumed = 0;
  wire::DecodeStatus status = wire::DecodeStatus::kNeedMore;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (status == wire::DecodeStatus::kNeedMore &&
         std::chrono::steady_clock::now() < deadline) {
    if (!wait_readable(sock.fd(), 100.0)) continue;
    std::size_t n = 0;
    const IoStatus io = recv_some(sock.fd(), chunk, n);
    if (io == IoStatus::kOk) in.insert(in.end(), chunk, chunk + n);
    if (io == IoStatus::kClosed) break;
    status = wire::decode_message(in, msg, consumed);
  }
  ASSERT_EQ(status, wire::DecodeStatus::kOk);
  ASSERT_EQ(msg.type, wire::MsgType::kError);
  EXPECT_EQ(msg.error.code, wire::ErrorCode::kVersionMismatch);
  service.stop();
}

TEST(WireCodec, ZeroDimensionFrameIsBadPayloadButSkippable) {
  // A CRC-valid SubmitFrame with zero dimensions is a *payload* defect, not
  // a framing one: the decoder reports the full frame as consumed so a
  // server can skip the one message instead of tearing the stream down.
  wire::SubmitFrame submit;
  submit.tag = 9;  // image left default: 0x0
  std::vector<std::uint8_t> frame;
  wire::encode_submit_frame(submit, frame);
  wire::encode_stats_query(frame);  // a healthy message right behind it
  wire::Message out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_message(frame, out, consumed),
            wire::DecodeStatus::kBadPayload);
  EXPECT_EQ(out.type, wire::MsgType::kSubmitFrame);
  ASSERT_GT(consumed, 0u);
  ASSERT_LT(consumed, frame.size());
  ASSERT_EQ(wire::decode_message(
                std::span<const std::uint8_t>(frame).subspan(consumed), out,
                consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(out.type, wire::MsgType::kStatsQuery);
}

TEST(DetectionService, BadFrameGetsAnErrorAndTheConnectionSurvives) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 27);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  // Raw socket: the Client cannot produce a malformed frame, so handshake
  // and submit by hand.
  std::string error;
  Socket sock = Socket::connect_tcp("127.0.0.1", service.port(), 2000.0,
                                    &error);
  ASSERT_TRUE(sock.valid()) << error;
  wire::Hello hello;
  hello.client_name = "malformed-cam";
  std::vector<std::uint8_t> buf;
  wire::encode_hello(hello, buf);
  ASSERT_TRUE(send_all_raw(sock.fd(), buf));
  std::vector<std::uint8_t> in;
  wire::Message msg;
  ASSERT_TRUE(read_one_message(sock.fd(), in, msg, 10000.0));
  ASSERT_EQ(msg.type, wire::MsgType::kHelloAck);

  // A zero-dimension SubmitFrame: CRC-valid framing, garbage payload. The
  // service must answer with a wire Error and keep the connection open —
  // one camera glitch is not a reason to drop the stream.
  wire::SubmitFrame bad;
  bad.tag = 1;  // image default-constructed: 0x0
  buf.clear();
  wire::encode_submit_frame(bad, buf);
  ASSERT_TRUE(send_all_raw(sock.fd(), buf));
  ASSERT_TRUE(read_one_message(sock.fd(), in, msg, 10000.0));
  ASSERT_EQ(msg.type, wire::MsgType::kError);
  EXPECT_EQ(msg.error.code, wire::ErrorCode::kBadFrame);

  // The same connection still serves a well-formed frame afterwards.
  wire::SubmitFrame good;
  good.tag = 2;
  good.image = make_frame(160, 160, 51);
  buf.clear();
  wire::encode_submit_frame(good, buf);
  ASSERT_TRUE(send_all_raw(sock.fd(), buf));
  ASSERT_TRUE(read_one_message(sock.fd(), in, msg, 30000.0));
  ASSERT_EQ(msg.type, wire::MsgType::kResult);
  EXPECT_EQ(msg.result.tag, 2u);

  sock.close();
  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frames_rejected, 1);
  EXPECT_EQ(stats.frames_received, 1);  // only the good frame counted
  EXPECT_EQ(stats.connections_closed, 1);
}

TEST(DetectionService, GracefulStopFlushesInFlightResults) {
  ServiceOptions opts = test_service_options();
  opts.flush_timeout_ms = 10000.0;
  const svm::LinearModel model = make_model(opts.runtime.hog, 26);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  ClientOptions copts;
  copts.port = service.port();
  copts.reconnect_attempts = 0;  // the close after flush must not re-dial
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  constexpr int kFrames = 4;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.submit(make_frame(160, 160, 40 + static_cast<std::uint64_t>(f))));
  }
  // Wait until the server has *received* every frame (they may sit in the
  // TCP buffer for a moment), then stop with their results still in flight:
  // the drain + flush path owes the client every received frame's result
  // before the close.
  const auto received_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().frames_received < kFrames &&
         std::chrono::steady_clock::now() < received_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(service.stats().frames_received, kFrames);
  service.stop();
  wire::Result result;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.next_result(result, 30000.0))
        << "frame " << f << ": " << client.last_error();
    EXPECT_EQ(result.tag, static_cast<std::uint64_t>(f));
  }
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(service.stats().results_sent, kFrames);
}

TEST(DetectionService, ShutdownBeforeHelloReapsTheConnection) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 28);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  std::string error;
  Socket sock = Socket::connect_tcp("127.0.0.1", service.port(), 2000.0,
                                    &error);
  ASSERT_TRUE(sock.valid()) << error;
  std::vector<std::uint8_t> buf;
  wire::encode_shutdown(buf);
  ASSERT_TRUE(send_all_raw(sock.fd(), buf));

  // A pre-handshake shutdown owns no slot and no in-flight frames, so the
  // server must close its end promptly (EOF here) instead of leaving the
  // connection draining forever.
  std::uint8_t chunk[64];
  IoStatus status = IoStatus::kWouldBlock;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!wait_readable(sock.fd(), 100.0)) continue;
    std::size_t got = 0;
    status = recv_some(sock.fd(), chunk, got);
    if (status == IoStatus::kClosed || status == IoStatus::kError) break;
  }
  EXPECT_EQ(status, IoStatus::kClosed);
  while (service.stats().active_connections > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_connections, 0);
  EXPECT_EQ(stats.connections_closed, 1);
  service.stop();
}

TEST(DetectionService, OutOfOrderCompletionsKeepTagsAligned) {
  // One slow frame followed by a burst of fast ones: the fast frames finish
  // while the slow one is still in service and wait in the runtime's
  // out-of-order buffer, holding tags without occupying a queue slot or
  // worker. With queue_capacity=1 + workers=2 the initial tag-ring capacity
  // is 5, so the burst exercises ring growth — every result must still come
  // back with its own tag, in submit order.
  ServiceOptions opts = test_service_options();
  opts.runtime.workers = 2;
  opts.runtime.queue_capacity = 1;
  const svm::LinearModel model = make_model(opts.runtime.hog, 29);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  ClientOptions copts;
  copts.port = service.port();
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();

  constexpr int kSmall = 12;
  ASSERT_TRUE(client.submit(make_frame(480, 360, 100)));
  for (int f = 0; f < kSmall; ++f) {
    ASSERT_TRUE(
        client.submit(make_frame(96, 160, 101 + static_cast<std::uint64_t>(f))));
  }
  wire::Result result;
  for (int f = 0; f < 1 + kSmall; ++f) {
    ASSERT_TRUE(client.next_result(result, 60000.0))
        << "frame " << f << ": " << client.last_error();
    EXPECT_EQ(result.tag, static_cast<std::uint64_t>(f));
  }
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.results_missed(), 0);
  EXPECT_EQ(client.protocol_errors(), 0);
  client.disconnect();
  service.stop();
}

TEST(Client, ForwardTagGapsCountAsShedNotDisorder) {
  // A hand-rolled server that delivers results with forward tag gaps (how
  // server-side slow-reader shedding looks on the wire) and then one
  // backward tag (a genuine ordering violation). The client must count the
  // gaps in results_missed() without clearing in_order(), and clear
  // in_order() only for the backward tag.
  std::string error;
  Socket listener = Socket::listen_tcp("127.0.0.1", 0, 4, &error);
  ASSERT_TRUE(listener.valid()) << error;
  const std::uint16_t port = listener.local_port();

  std::thread server([&listener] {
    if (!wait_readable(listener.fd(), 10000.0)) return;
    Socket conn = listener.accept();
    if (!conn.valid()) return;
    std::vector<std::uint8_t> in;
    wire::Message msg;
    if (!read_one_message(conn.fd(), in, msg, 10000.0)) return;
    EXPECT_EQ(msg.type, wire::MsgType::kHello);

    std::vector<std::uint8_t> out;
    wire::HelloAck ack;
    ack.protocol_version = wire::kProtocolVersion;
    ack.server_name = "shed-faker";
    wire::encode_hello_ack(ack, out);
    wire::Result r;
    r.status = runtime::FrameStatus::kOk;
    std::uint64_t sequence = 10;
    for (const std::uint64_t tag : {0ull, 2ull, 3ull, 5ull, 4ull}) {
      r.tag = tag;
      r.sequence = sequence++;
      wire::encode_result(r, out);
    }
    if (!send_all_raw(conn.fd(), out)) return;

    // Hold the connection open until the client disconnects (EOF).
    std::uint8_t chunk[256];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!wait_readable(conn.fd(), 100.0)) continue;
      std::size_t got = 0;
      const IoStatus status = recv_some(conn.fd(), chunk, got);
      if (status == IoStatus::kClosed || status == IoStatus::kError) break;
    }
  });

  ClientOptions copts;
  copts.port = port;
  copts.reconnect_attempts = 0;
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();

  wire::Result result;
  for (const std::uint64_t want : {0ull, 2ull, 3ull, 5ull}) {
    ASSERT_TRUE(client.next_result(result, 10000.0)) << client.last_error();
    EXPECT_EQ(result.tag, want);
  }
  EXPECT_TRUE(client.in_order());        // gaps are shedding, not disorder
  EXPECT_EQ(client.results_missed(), 2);  // tags 1 and 4 skipped forward
  EXPECT_EQ(client.protocol_errors(), 0);

  ASSERT_TRUE(client.next_result(result, 10000.0)) << client.last_error();
  EXPECT_EQ(result.tag, 4u);
  EXPECT_FALSE(client.in_order());  // backward tag: genuine violation
  EXPECT_EQ(client.results_missed(), 2);

  client.disconnect();
  server.join();
}

TEST(Client, ReconnectsAcrossServerRestartOnSamePort) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 27);
  auto first = std::make_unique<DetectionService>(model, opts);
  ASSERT_TRUE(first->start());
  const std::uint16_t port = first->port();

  ClientOptions copts;
  copts.port = port;
  copts.reconnect_attempts = 10;
  copts.reconnect_base_ms = 20.0;
  copts.reconnect_max_ms = 250.0;
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  ASSERT_TRUE(client.submit(make_frame(160, 160, 50)));
  wire::Result result;
  ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
  EXPECT_EQ(result.tag, 0u);

  // Restart the service on the same port (SO_REUSEADDR): the client's next
  // submit finds the link dead, walks the backoff schedule, re-handshakes
  // and carries on with fresh per-connection bookkeeping.
  first->stop();
  first.reset();
  opts.port = port;
  DetectionService second(model, opts);
  std::string error;
  ASSERT_TRUE(second.start(&error)) << error;

  ASSERT_TRUE(client.submit(make_frame(160, 160, 51))) << client.last_error();
  EXPECT_GE(client.reconnects(), 1);
  EXPECT_EQ(client.submitted_on_connection(), 1);  // tags reset on reconnect
  ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
  EXPECT_EQ(result.tag, 0u);
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.protocol_errors(), 0);
  client.disconnect();
  second.stop();
  EXPECT_EQ(second.stats().frames_received, 1);
}

// --- telemetry plane + flight recorder (protocol v3) -------------------------

TEST(DetectionService, TelemetryQueryReturnsLivePlaneAndGraftedTimelines) {
  ServiceOptions opts = test_service_options();
  const svm::LinearModel model = make_model(opts.runtime.hog, 31);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());
#ifndef PDET_OBS_DISABLED
  obs::set_metrics_enabled(true);
#endif

  ClientOptions copts;
  copts.port = service.port();
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  constexpr int kFrames = 4;
  wire::Result result;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.submit(
        make_frame(160, 160, 300 + static_cast<std::uint64_t>(f))));
    ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
    // Every v3 Result carries the server-side hop offsets.
    EXPECT_GT(result.trace.engine_end_us, result.trace.engine_start_us);
    EXPECT_GE(result.trace.deliver_us, result.trace.engine_end_us);
    EXPECT_GT(result.trace.send_us, 0u);
  }

  // The grafted timeline reads as one monotone journey on the client clock.
  obs::FrameTimeline t;
  ASSERT_TRUE(client.last_timeline(t));
  EXPECT_EQ(t.trace_id, static_cast<std::uint64_t>(kFrames - 1));
  EXPECT_GT(t.client_encode_ns, 0u);
  EXPECT_GE(t.service_recv_ns, t.client_encode_ns);
  EXPECT_GE(t.queue_admit_ns, t.service_recv_ns);
  EXPECT_GE(t.schedule_ns, t.queue_admit_ns);
  EXPECT_GE(t.engine_start_ns, t.schedule_ns);
  EXPECT_GT(t.engine_end_ns, t.engine_start_ns);
  EXPECT_GE(t.deliver_ns, t.engine_end_ns);
  EXPECT_GE(t.client_decode_ns, t.client_encode_ns);

  wire::TelemetryReport telemetry;
  ASSERT_TRUE(client.query_telemetry(telemetry, 30000.0))
      << client.last_error();
  EXPECT_EQ(telemetry.health_state,
            static_cast<std::uint32_t>(runtime::HealthState::kHealthy));
  EXPECT_GT(telemetry.uptime_seconds, 0.0);
  EXPECT_GE(telemetry.timeline_frames, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(telemetry.timeline_window, 0u);
  EXPECT_GT(telemetry.engine.p50_ms, 0.0f);
  EXPECT_GE(telemetry.total.p99_ms, telemetry.total.p50_ms);
#ifndef PDET_OBS_DISABLED
  // Prometheus text exposition, scrape-ready.
  EXPECT_NE(telemetry.prometheus.find("# TYPE pdet_runtime_health gauge"),
            std::string::npos)
      << telemetry.prometheus.substr(0, 400);
  EXPECT_NE(telemetry.prometheus.find("pdet_runtime_health 0"),
            std::string::npos);
  ASSERT_FALSE(telemetry.prometheus.empty());
  EXPECT_EQ(telemetry.prometheus.back(), '\n');
  obs::set_metrics_enabled(false);
  obs::Registry::instance().reset();
#endif

  // Telemetry and frames interleave on one connection without disorder.
  ASSERT_TRUE(client.submit(make_frame(160, 160, 310)));
  ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.protocol_errors(), 0);
  client.disconnect();
  service.stop();
}

TEST(DetectionService, PoisonFramesAreReconstructableFromFlightDump) {
  // The PR's acceptance scenario: chaos over loopback, then the flight dump
  // must reconstruct the journey of every poison frame.
  const std::string prefix = testing::TempDir() + "pdet-net-flight";
  ServiceOptions opts = test_service_options();
  opts.runtime.workers = 1;  // deterministic: one worker poisons serially
  opts.runtime.flight_dump_path = prefix;
  const svm::LinearModel model = make_model(opts.runtime.hog, 33);
  DetectionService service(model, opts);
  ASSERT_TRUE(service.start());

  ClientOptions copts;
  copts.port = service.port();
  Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  wire::Result result;
  // Clean warmup (tags 0-1), then every engine attempt throws: tags 2-4
  // exhaust max_frame_faults and come back as poison kError frames.
  for (std::uint64_t f = 0; f < 2; ++f) {
    ASSERT_TRUE(client.submit(make_frame(160, 160, 400 + f)));
    ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
    ASSERT_EQ(result.status, runtime::FrameStatus::kOk);
  }
  constexpr std::uint64_t kPoison = 3;
  {
    fault::Plan plan;
    plan.seed = 7;
    plan.with("runtime.engine.fault", 1.0);
    fault::ScopedPlan armed(plan);
    for (std::uint64_t f = 0; f < kPoison; ++f) {
      ASSERT_TRUE(client.submit(make_frame(160, 160, 420 + f)));
      ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
      EXPECT_EQ(result.status, runtime::FrameStatus::kError);
      EXPECT_EQ(result.tag, 2 + f);
    }
  }
  client.disconnect();
  service.stop();  // joins workers: all pending dumps are on disk

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.runtime.poison_frames, static_cast<long long>(kPoison));
  EXPECT_GE(stats.runtime.flight_triggers, static_cast<long long>(kPoison));

  // Union of the written dumps (health-edge + one per poison, capped).
  std::string dumps;
  int files = 0;
  for (int n = 0; n < 8; ++n) {
    std::ifstream in(prefix + "-" + std::to_string(n) + ".txt");
    if (!in) continue;
    std::ostringstream slurp;
    slurp << in.rdbuf();
    dumps += slurp.str();
    ++files;
    // The paired Chrome trace exists alongside every text dump.
    std::ifstream json(prefix + "-" + std::to_string(n) + ".trace.json");
    EXPECT_TRUE(json.good()) << "missing trace.json for dump " << n;
  }
  ASSERT_GT(files, 0);
  EXPECT_NE(dumps.find("trigger: poison frame"), std::string::npos);
  for (std::uint64_t f = 0; f < kPoison; ++f) {
    const std::string tag = "tag=" + std::to_string(2 + f) + " ";
    EXPECT_NE(dumps.find(tag), std::string::npos)
        << "poison frame " << tag << "missing from flight dumps";
  }
  // The journey itself is in the dump: hop durations per line.
  EXPECT_NE(dumps.find("admit="), std::string::npos);
  EXPECT_NE(dumps.find("queue="), std::string::npos);
}

// --- reconnect backoff jitter -----------------------------------------------

// Two clients with distinct seeds must not share a reconnect schedule (the
// anti-thundering-herd property: a fleet of cameras losing one server must
// not redial in lockstep), while the same seed reproduces the same schedule
// exactly and every delay respects the policy envelope.
TEST(Backoff, SeededJitterDivergesAcrossSeedsAndReproduces) {
  BackoffPolicy policy;
  policy.attempts = 8;
  policy.base_ms = 50.0;
  policy.max_ms = 2000.0;
  policy.jitter = 0.5;

  policy.seed = 0x1111u;
  BackoffSchedule a(policy);
  BackoffSchedule a_again(policy);
  policy.seed = 0x2222u;
  BackoffSchedule b(policy);

  bool diverged = false;
  for (int k = 0; k < policy.attempts; ++k) {
    ASSERT_TRUE(a.can_retry());
    const double da = a.next_delay_ms();
    const double da_again = a_again.next_delay_ms();
    const double db = b.next_delay_ms();
    EXPECT_DOUBLE_EQ(da, da_again) << "same seed, attempt " << k;
    if (da != db) diverged = true;
    // Envelope: nominal * [1 - jitter, 1 + jitter].
    const double nominal =
        std::min(policy.base_ms * static_cast<double>(1 << k), policy.max_ms);
    EXPECT_GE(da, nominal * (1.0 - policy.jitter) - 1e-9);
    EXPECT_LE(da, nominal * (1.0 + policy.jitter) + 1e-9);
  }
  EXPECT_TRUE(diverged) << "distinct seeds produced identical schedules";
  EXPECT_FALSE(a.can_retry());  // attempts exhausted

  // reset() re-arms the attempt budget without rewinding the jitter stream:
  // the post-reset schedule stays inside the envelope but need not repeat.
  a.reset();
  ASSERT_TRUE(a.can_retry());
  const double after_reset = a.next_delay_ms();
  EXPECT_GE(after_reset, policy.base_ms * (1.0 - policy.jitter) - 1e-9);
  EXPECT_LE(after_reset, policy.base_ms * (1.0 + policy.jitter) + 1e-9);

  // Zero jitter restores the legacy deterministic ladder regardless of seed.
  policy.jitter = 0.0;
  policy.seed = 0x3333u;
  BackoffSchedule flat(policy);
  EXPECT_DOUBLE_EQ(flat.next_delay_ms(), 50.0);
  EXPECT_DOUBLE_EQ(flat.next_delay_ms(), 100.0);
  EXPECT_DOUBLE_EQ(flat.next_delay_ms(), 200.0);
}

// Distinctly *named* clients derive distinct jitter seeds by default, and
// an explicit reconnect_seed overrides the name-derived one.
TEST(Backoff, ClientPolicyDerivesSeedFromName) {
  ClientOptions a;
  a.name = "cam-front";
  ClientOptions b;
  b.name = "cam-rear";
  const BackoffPolicy pa = client_backoff_policy(a);
  const BackoffPolicy pb = client_backoff_policy(b);
  EXPECT_NE(pa.seed, pb.seed);
  EXPECT_EQ(pa.seed, client_backoff_policy(a).seed);  // stable per name

  a.reconnect_seed = 42;
  EXPECT_EQ(client_backoff_policy(a).seed, 42u);
}

}  // namespace
}  // namespace pdet::net
