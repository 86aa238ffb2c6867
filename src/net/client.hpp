// Resilient client for the remote detection service (pdet::net).
//
// A camera node in the deployment picture: it owns one TCP connection to a
// DetectionService, submits luminance frames, and reads back in-order
// results. Resilience is the point — a detector node must survive the
// server restarting (fleet rollout, watchdog reboot) without operator
// intervention:
//
//   - connect() and every submit() that finds the link down walk a bounded
//     exponential-backoff schedule (base * 2^attempt, capped, finite
//     attempts) before giving up;
//   - after a reconnect the client re-handshakes, picks up whatever stream
//     slot the server assigns, and resets its delivery bookkeeping —
//     results for frames submitted on a previous connection are gone (the
//     server sheds them), which mirrors how a live camera treats missed
//     frames: the newest frame matters, the backlog does not.
//
// Delivery matches runtime::StreamContext sequencing: within one
// connection, results arrive in submit order (slot FIFO + TCP ordering),
// each echoing the client's tag, with server-side sequence numbers strictly
// increasing. A slow reader can be load-shed server-side (drop-oldest on
// its result queue), which surfaces here as a *forward* tag gap — counted
// in results_missed(), not an error. next_result() verifies ordering and
// treats only backward tags or non-increasing sequences as violations.
//
// Blocking with explicit timeouts throughout; single-threaded use (one
// camera loop). Encode/decode buffers are owned and reused — a steady
// submit/read cycle allocates nothing once buffers are warm.
//
// Frame timelines (v3): submit() stamps client_encode per tag; each Result
// carries server hop offsets relative to service receive (wire FrameTrace),
// and the client grafts them onto its own clock — the network one-way time
// is estimated as (round trip - server residency) / 2, the classic
// NTP-style midpoint. last_timeline() returns the reconstructed
// client -> engine -> client journey of the most recent result.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/net/backoff.hpp"
#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/obs/timeline.hpp"

namespace pdet::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "camera";
  double connect_timeout_ms = 2000.0;
  double io_timeout_ms = 5000.0;  ///< per send/recv readiness wait
  /// Reconnect schedule: attempt k sleeps a jittered min(base * 2^k, max)
  /// before retrying, for at most `attempts` tries (0 disables
  /// reconnection). See net::BackoffPolicy for the jitter semantics.
  int reconnect_attempts = 8;
  double reconnect_base_ms = 50.0;
  double reconnect_max_ms = 2000.0;
  /// Jitter half-width fraction of each delay (anti-thundering-herd; 0
  /// restores the legacy lockstep schedule).
  double reconnect_jitter = 0.5;
  /// Seeds the jitter stream. 0 = derive from `name`, so a fleet of
  /// distinctly named cameras decorrelates by default while any one
  /// client's schedule stays reproducible run to run.
  std::uint64_t reconnect_seed = 0;
};

/// The effective backoff policy for `options` (jitter seed derived from the
/// client name when reconnect_seed is 0). Exposed so the router's backend
/// sessions reuse the exact schedule the client walks.
BackoffPolicy client_backoff_policy(const ClientOptions& options);

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establish (or re-establish) the connection + handshake, walking the
  /// backoff schedule. True when connected.
  bool connect();

  /// Best-effort graceful close: sends Shutdown, closes the socket.
  void disconnect();

  bool connected() const { return sock_.valid(); }

  /// Handshake results (valid while connected).
  const wire::HelloAck& server_info() const { return hello_ack_; }

  /// Submit one frame. Reconnects (with backoff) if the link is down or the
  /// send fails mid-way; false once the schedule is exhausted. The returned
  /// tag-to-come is submitted_count() - 1 — tags count frames on the
  /// *current* connection, matching result arrival order.
  bool submit(const imgproc::ImageF& frame);

  /// Block (up to timeout_ms) for the next Result frame. Skips/handles
  /// interleaved non-result messages. False on timeout, link failure or
  /// protocol violation (see last_error()); a failure other than timeout
  /// drops the connection so the next submit() reconnects.
  bool next_result(wire::Result& out, double timeout_ms);

  /// Round-trip a StatsQuery. Any Result frames that arrive ahead of the
  /// report are buffered and handed out by later next_result() calls, still
  /// in order.
  bool query_stats(wire::StatsReport& out, double timeout_ms);

  /// Round-trip a TelemetryQuery (v3): Prometheus metrics text + timeline
  /// percentiles. Same buffering contract as query_stats.
  bool query_telemetry(wire::TelemetryReport& out, double timeout_ms);

  /// End-to-end timeline of the most recent next_result() delivery, server
  /// hops grafted onto the client clock (see the header comment). False
  /// until a result for a frame submitted on this connection has arrived.
  bool last_timeline(obs::FrameTimeline& out) const;

  // Lifetime accounting (reset by reconnects where noted).
  long long submitted_on_connection() const { return submitted_conn_; }
  long long results_received() const { return results_received_; }
  long long reconnects() const { return reconnects_; }
  long long protocol_errors() const { return protocol_errors_; }
  /// Results the server shed for this connection (drop-oldest under
  /// backpressure), observed as forward tag gaps in the delivery stream.
  long long results_missed() const { return results_missed_; }
  /// True while received results respected submit order: tags never went
  /// backwards and server sequence numbers strictly increased (per
  /// connection). Forward tag gaps are shedding, not disorder — see
  /// results_missed().
  bool in_order() const { return in_order_; }
  const std::string& last_error() const { return last_error_; }

 private:
  bool connect_once(std::string* error);
  bool ensure_connected();
  bool send_all(const std::vector<std::uint8_t>& buf);
  /// Read until `msg_` holds one decoded message; false on timeout/error.
  bool read_message(double timeout_ms);
  /// Read until `msg_` holds a `reply`, parking results that come first for
  /// next_result() and skipping stale reports. False on timeout/error.
  bool await(wire::MsgType reply, double timeout_ms);
  /// Send the query `reply` answers (a stats or telemetry report), await it.
  bool query(wire::MsgType reply, double timeout_ms);
  /// Ordering/shedding bookkeeping for one received Result.
  void note_result(const wire::Result& r);
  /// Rebuild the frame's end-to-end timeline from the wire trace offsets.
  void graft_timeline(const wire::Result& r);
  void fail_link(const std::string& why);

  const ClientOptions options_;
  BackoffSchedule backoff_;
  Socket sock_;
  wire::HelloAck hello_ack_;

  std::vector<std::uint8_t> send_buf_;  ///< reused encode buffer
  std::vector<std::uint8_t> recv_buf_;  ///< unparsed inbound bytes
  std::size_t recv_pos_ = 0;
  wire::Message msg_;  ///< reused decode target
  wire::SubmitFrame frame_msg_;
  /// Results decoded while waiting for a StatsReport, delivered by later
  /// next_result() calls in arrival order.
  std::vector<wire::Result> buffered_results_;
  std::size_t buffered_pos_ = 0;

  /// (tag, client_encode_ns) for in-flight frames, submit order. Bounded:
  /// the oldest entry is dropped beyond kMaxEncodeStamps (its result then
  /// grafts without a client leg). Reset on reconnect, with the tags.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> encode_stamps_;
  obs::FrameTimeline last_timeline_;
  bool have_timeline_ = false;

  long long submitted_conn_ = 0;   ///< frames on the current connection
  long long results_received_ = 0;
  long long reconnects_ = 0;
  long long protocol_errors_ = 0;
  long long results_missed_ = 0;
  bool in_order_ = true;
  bool link_lost_ = false;  ///< an established connection died (see connect)
  bool have_last_sequence_ = false;
  std::uint64_t last_sequence_ = 0;
  std::uint64_t expected_tag_ = 0;  ///< next expected result tag
  std::string last_error_;
};

}  // namespace pdet::net
