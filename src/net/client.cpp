#include "src/net/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace pdet::net {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(double ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

double ms_until(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

/// In-flight encode stamps kept per connection; beyond this the oldest is
/// dropped and its eventual result grafts without the client-side leg.
constexpr std::size_t kMaxEncodeStamps = 256;

}  // namespace

BackoffPolicy client_backoff_policy(const ClientOptions& options) {
  BackoffPolicy policy;
  policy.attempts = options.reconnect_attempts;
  policy.base_ms = options.reconnect_base_ms;
  policy.max_ms = options.reconnect_max_ms;
  policy.jitter = options.reconnect_jitter;
  policy.seed = options.reconnect_seed;
  if (policy.seed == 0) {
    // FNV-1a over the client name: distinct camera names decorrelate by
    // default, equal configurations stay reproducible.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : options.name) {
      h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    }
    policy.seed = h | 1;  // never hand Rng a zero-ish degenerate seed
  }
  return policy;
}

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      backoff_(client_backoff_policy(options_)) {}

Client::~Client() { disconnect(); }

void Client::fail_link(const std::string& why) {
  last_error_ = why;
  if (sock_.valid()) link_lost_ = true;  // an *established* link died
  sock_.close();
  recv_buf_.clear();
  recv_pos_ = 0;
}

bool Client::connect_once(std::string* error) {
  sock_ = Socket::connect_tcp(options_.host, options_.port,
                              options_.connect_timeout_ms, error);
  if (!sock_.valid()) return false;
  recv_buf_.clear();
  recv_pos_ = 0;
  buffered_results_.clear();
  buffered_pos_ = 0;

  wire::Hello hello;
  hello.protocol_version = wire::kProtocolVersion;
  hello.client_name = options_.name;
  send_buf_.clear();
  wire::encode_hello(hello, send_buf_);
  if (!send_all(send_buf_)) {
    if (error != nullptr) *error = "handshake send failed";
    sock_.close();
    return false;
  }
  if (!read_message(options_.io_timeout_ms)) {
    if (error != nullptr) *error = "handshake read failed: " + last_error_;
    sock_.close();
    return false;
  }
  if (msg_.type == wire::MsgType::kError) {
    if (error != nullptr) {
      *error = std::string("server refused: ") + msg_.error.message;
    }
    sock_.close();
    return false;
  }
  if (msg_.type != wire::MsgType::kHelloAck ||
      msg_.hello_ack.protocol_version != wire::kProtocolVersion) {
    if (error != nullptr) *error = "bad handshake reply";
    sock_.close();
    return false;
  }
  hello_ack_ = msg_.hello_ack;
  // A new connection is a new delivery stream: tags restart, sequence
  // continuity is only promised within a connection.
  submitted_conn_ = 0;
  expected_tag_ = 0;
  have_last_sequence_ = false;
  encode_stamps_.clear();
  return true;
}

bool Client::connect() {
  if (connected()) return true;
  std::string error;
  backoff_.reset();
  for (;;) {
    if (connect_once(&error)) {
      // "Reconnect" = re-establishing after an established link was lost
      // (whether or not backoff was needed: a restarted server may accept
      // the very first redial).
      if (link_lost_) ++reconnects_;
      link_lost_ = false;
      return true;
    }
    if (!backoff_.can_retry()) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_.next_delay_ms()));
  }
  last_error_ = "connect failed: " + error;
  return false;
}

void Client::disconnect() {
  if (!sock_.valid()) return;
  send_buf_.clear();
  wire::encode_shutdown(send_buf_);
  (void)send_all(send_buf_);  // best effort
  sock_.close();
}

bool Client::ensure_connected() {
  // A restarted server fails the next *read*, but a send into the half-open
  // socket would "succeed" into the void — probe for EOF first so submit()
  // reconnects instead.
  if (connected() && peer_closed(sock_.fd())) {
    fail_link("connection closed by server");
  }
  return connected() || connect();
}

bool Client::send_all(const std::vector<std::uint8_t>& buf) {
  std::size_t at = 0;
  const auto deadline = deadline_after(options_.io_timeout_ms);
  while (at < buf.size()) {
    std::size_t sent = 0;
    const IoStatus status = send_some(
        sock_.fd(),
        std::span<const std::uint8_t>(buf.data() + at, buf.size() - at),
        sent);
    switch (status) {
      case IoStatus::kOk:
        at += sent;
        break;
      case IoStatus::kWouldBlock: {
        const double left = ms_until(deadline);
        if (left <= 0.0 || !wait_writable(sock_.fd(), left)) {
          fail_link("send timed out");
          return false;
        }
        break;
      }
      case IoStatus::kClosed:
      case IoStatus::kError:
        fail_link("send failed (connection lost)");
        return false;
    }
  }
  return true;
}

bool Client::read_message(double timeout_ms) {
  const auto deadline = deadline_after(timeout_ms);
  for (;;) {
    // Parse before reading: a previous read may have buffered a frame.
    const std::span<const std::uint8_t> pending(recv_buf_.data() + recv_pos_,
                                                recv_buf_.size() - recv_pos_);
    std::size_t consumed = 0;
    const wire::DecodeStatus status =
        wire::decode_message(pending, msg_, consumed);
    if (status == wire::DecodeStatus::kOk) {
      recv_pos_ += consumed;
      if (recv_pos_ == recv_buf_.size()) {
        recv_buf_.clear();
        recv_pos_ = 0;
      } else if (recv_pos_ > (64u << 10)) {
        std::memmove(recv_buf_.data(), recv_buf_.data() + recv_pos_,
                     recv_buf_.size() - recv_pos_);
        recv_buf_.resize(recv_buf_.size() - recv_pos_);
        recv_pos_ = 0;
      }
      return true;
    }
    if (status != wire::DecodeStatus::kNeedMore) {
      ++protocol_errors_;
      fail_link(std::string("protocol error: ") + wire::to_string(status));
      return false;
    }
    // A zero/expired deadline still polls once: timeout 0 means "drain
    // whatever the kernel already has", not "never look at the socket".
    const double left = std::max(0.0, ms_until(deadline));
    if (!wait_readable(sock_.fd(), left)) {
      last_error_ = "read timed out";  // link intact: slow is not dead
      return false;
    }
    std::uint8_t chunk[64 * 1024];
    std::size_t got = 0;
    switch (recv_some(sock_.fd(), chunk, got)) {
      case IoStatus::kOk:
        recv_buf_.insert(recv_buf_.end(), chunk, chunk + got);
        break;
      case IoStatus::kWouldBlock:
        break;  // spurious wakeup; re-poll
      case IoStatus::kClosed:
        fail_link("connection closed by server");
        return false;
      case IoStatus::kError:
        fail_link("read failed");
        return false;
    }
  }
}

bool Client::submit(const imgproc::ImageF& frame) {
  for (int attempt = 0;; ++attempt) {
    if (!ensure_connected()) return false;
    frame_msg_.tag = static_cast<std::uint64_t>(submitted_conn_);
    frame_msg_.image = frame;  // copy-assign into reused staging buffer
    send_buf_.clear();
    const std::uint64_t encode_ns = obs::timeline_now_ns();
    wire::encode_submit_frame(frame_msg_, send_buf_);
    if (send_all(send_buf_)) {
      if (encode_stamps_.size() >= kMaxEncodeStamps) {
        encode_stamps_.erase(encode_stamps_.begin());
      }
      encode_stamps_.emplace_back(frame_msg_.tag, encode_ns);
      ++submitted_conn_;
      return true;
    }
    // Link dropped mid-frame: reconnect and resend this frame on the fresh
    // connection (it was never accepted), unless the schedule is exhausted.
    if (options_.reconnect_attempts == 0 ||
        attempt >= options_.reconnect_attempts) {
      return false;
    }
  }
}

void Client::note_result(const wire::Result& r) {
  ++results_received_;
  // Tags count up from 0 per connection; server sequences strictly
  // increase. A *forward* tag gap is server-side shedding (drop-oldest on
  // this connection's result queue under backpressure) — expected under
  // load, so it feeds results_missed_ instead of breaking in_order_.
  if (r.tag < expected_tag_ ||
      (have_last_sequence_ && r.sequence <= last_sequence_)) {
    in_order_ = false;
  } else if (r.tag > expected_tag_) {
    results_missed_ += static_cast<long long>(r.tag - expected_tag_);
  }
  expected_tag_ = r.tag + 1;
  last_sequence_ = r.sequence;
  have_last_sequence_ = true;
  graft_timeline(r);
}

void Client::graft_timeline(const wire::Result& r) {
  const std::uint64_t decode_ns = obs::timeline_now_ns();
  // Pop stamps for shed frames (tags are in order); keep the matching one.
  std::uint64_t encode_ns = 0;
  std::size_t drop = 0;
  for (; drop < encode_stamps_.size() && encode_stamps_[drop].first <= r.tag;
       ++drop) {
    if (encode_stamps_[drop].first == r.tag) {
      encode_ns = encode_stamps_[drop].second;
    }
  }
  if (drop > 0) {
    encode_stamps_.erase(encode_stamps_.begin(),
                         encode_stamps_.begin() +
                             static_cast<std::ptrdiff_t>(drop));
  }

  obs::FrameTimeline t;
  t.trace_id = r.tag;
  t.stream = static_cast<int>(hello_ack_.stream_id);
  t.sequence = r.sequence;
  t.status = static_cast<std::uint8_t>(r.status);
  t.degrade_level = r.degrade_level;
  t.input_quality = r.input_quality;
  t.camera_state = r.camera_state;
  wire::graft_trace(r.trace, encode_ns, decode_ns, t);
  last_timeline_ = t;
  have_timeline_ = true;
}

bool Client::last_timeline(obs::FrameTimeline& out) const {
  if (!have_timeline_) return false;
  out = last_timeline_;
  return true;
}

bool Client::next_result(wire::Result& out, double timeout_ms) {
  if (buffered_pos_ < buffered_results_.size()) {
    out = buffered_results_[buffered_pos_++];
    if (buffered_pos_ == buffered_results_.size()) {
      buffered_results_.clear();
      buffered_pos_ = 0;
    }
    return true;
  }
  if (!connected()) {
    last_error_ = "not connected";
    return false;
  }
  if (!await(wire::MsgType::kResult, timeout_ms)) return false;
  out = msg_.result;
  note_result(out);
  return true;
}

bool Client::await(wire::MsgType reply, double timeout_ms) {
  const auto deadline = deadline_after(timeout_ms);
  for (;;) {
    if (!read_message(std::max(0.0, ms_until(deadline)))) return false;
    if (msg_.type == reply) return true;
    switch (msg_.type) {
      case wire::MsgType::kStatsReport:
      case wire::MsgType::kTelemetryReport:
        continue;  // stale report (its query timed out earlier); skip
      case wire::MsgType::kResult:
        // Keep the delivery contract: park it for next_result().
        note_result(msg_.result);
        buffered_results_.push_back(msg_.result);
        continue;
      case wire::MsgType::kError:
        ++protocol_errors_;
        fail_link(std::string("server error: ") + msg_.error.message);
        return false;
      default:
        ++protocol_errors_;
        fail_link("unexpected message type");
        return false;
    }
  }
}

bool Client::query(wire::MsgType reply, double timeout_ms) {
  if (!ensure_connected()) return false;
  send_buf_.clear();
  if (reply == wire::MsgType::kStatsReport) {
    wire::encode_stats_query(send_buf_);
  } else {
    wire::encode_telemetry_query(send_buf_);
  }
  return send_all(send_buf_) && await(reply, timeout_ms);
}

bool Client::query_stats(wire::StatsReport& out, double timeout_ms) {
  if (!query(wire::MsgType::kStatsReport, timeout_ms)) return false;
  out = msg_.stats;
  return true;
}

bool Client::query_telemetry(wire::TelemetryReport& out, double timeout_ms) {
  if (!query(wire::MsgType::kTelemetryReport, timeout_ms)) return false;
  out = msg_.telemetry;
  return true;
}

}  // namespace pdet::net
