// Sharded serving front-end (pdet::fleet).
//
// One DetectionService is one process; the ShardRouter is what stands in
// front of N of them. It speaks the existing wire protocol on both sides —
// cameras connect to it exactly as they would to a single service, and it
// maintains one reconnecting session per backend shard — and places each
// camera on a shard by consistent-hashing its client name over a virtual-
// node ring (fleet::HashRing).
//
// Forwarding is a raw-byte fast path: a validated SubmitFrame is copied
// header-to-tail into the shard session's buffer with only the tag field
// rewritten (router-owned per-session tags make the shard's result stream
// demultiplexable) and the CRC re-signed; pixels are never re-encoded. A
// Result comes back, is matched against the session's in-flight FIFO,
// gets the original client tag and a router-owned per-client sequence
// patched in, and is forwarded the same way.
//
// Delivery contract (the reason the in-flight FIFO exists): per client
// connection, results arrive in submit order with strictly increasing
// sequences — net::Client's in_order() holds against a router exactly as
// against a single service. Frames can be *shed* (backend down, shard
// draining during a move, full buffers) which a client observes as forward
// tag gaps; they are counted, never reordered, never duplicated (a result
// whose tag is not the FIFO head from its session is dropped and counted,
// so replays/duplicates cannot reach a client).
//
// Re-sharding: when a shard session dies, its in-flight frames are shed,
// its streams move immediately to their ring successors, and the session
// redials on a seeded-jitter backoff (net::BackoffSchedule, retrying
// forever). When it recovers, streams whose ring home it is move *back* —
// but only through a drain: a moving stream sheds new frames until its
// last in-flight result returns from the old shard, so two shards never
// hold frames of one stream concurrently (what preserves in-order across
// moves). The fault site `fleet.backend.drop` forces session loss on a
// seeded schedule for tests.
//
// Fleet queries: a client StatsQuery/TelemetryQuery fans out to every up
// shard; per-session FIFOs pair reports with pending aggregations (wire
// ordering per session makes that exact). Stats reports fold through
// runtime::merge_runtime_stats, the one merge the stats table generates;
// telemetry health merges worst-of and its text is concatenated under
// per-shard label lines.
//
// Zero steady-state allocation: every connection buffer is a fixed block
// from one util::BlockArena sized at construction; decode/encode scratch
// lives in reused members. Exhaustion sheds (counted) — it never mallocs.
// The io model is the DetectionService one: a single poll loop over a wake
// pipe, the listener, client connections and shard sessions.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/ring.hpp"
#include "src/net/backoff.hpp"
#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/util/arena.hpp"

namespace pdet::fleet {

namespace wire = net::wire;  ///< the router speaks the service's protocol

struct BackendEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  std::string name = "pdet-fleet";
  std::vector<BackendEndpoint> backends;  ///< one shard session each
  int max_clients = 8;
  int vnodes = 64;  ///< ring points per backend
  /// Fixed rx/tx buffer size per connection side; must hold the largest
  /// frame a camera submits (header + 16 + width*height*4 bytes). The
  /// arena preallocates 2*(max_clients + backends) of these.
  std::size_t buffer_bytes = 4u << 20;
  /// Initial per-shard in-flight ring capacity (grows if ever exceeded;
  /// size it generously to keep the steady state allocation-free).
  std::size_t inflight_capacity = 1024;
  /// Simultaneous in-progress fleet queries (stats/telemetry contexts).
  int max_queries = 8;
  double connect_timeout_ms = 250.0;  ///< per backend dial (io-thread bound)
  /// Backend redial schedule (jittered; attempts ignored — a router never
  /// gives up on a shard). seed 0 derives per-shard seeds from `name`.
  net::BackoffPolicy reconnect{.attempts = 0, .base_ms = 20.0,
                               .max_ms = 500.0, .jitter = 0.5, .seed = 0};
  double flush_timeout_ms = 2000.0;  ///< stop(): drain/flush bound
};

/// Per-shard row in RouterStats (the "label per-shard rows" of fleet
/// aggregation: counters that are per-backend stay per-backend).
struct ShardStats {
  std::string endpoint;  ///< "host:port"
  bool up = false;
  long long frames_forwarded = 0;
  long long results_returned = 0;
  long long shed_inflight = 0;  ///< in-flight frames lost to session death
  long long reconnects = 0;     ///< sessions re-established after loss
};

struct RouterStats {
  long long connections_accepted = 0;
  long long connections_closed = 0;
  long long connections_refused = 0;
  long long frames_received = 0;   ///< SubmitFrames decoded off client links
  long long frames_forwarded = 0;  ///< forwarded to a shard
  long long frames_shed_no_backend = 0;   ///< no shard up for the stream
  long long frames_shed_draining = 0;     ///< stream mid-move (drain rule)
  long long frames_shed_backpressure = 0; ///< shard tx buffer full
  long long frames_rejected = 0;   ///< invalid SubmitFrames answered Error
  long long results_delivered = 0;
  long long results_shed_backend = 0;  ///< shed by a shard (tag gap upstream)
  long long results_shed_client = 0;   ///< client tx buffer full
  long long duplicates_suppressed = 0; ///< results not matching FIFO head
  long long decode_errors = 0;
  long long reshards = 0;        ///< shard-loss remap events
  long long stream_moves = 0;    ///< streams moved between shards
  long long backend_sessions_lost = 0;
  long long stats_queries = 0;
  long long telemetry_queries = 0;
  long long bytes_in = 0;
  long long bytes_out = 0;
  int active_clients = 0;
  int backends_up = 0;
  std::vector<ShardStats> shards;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Bind, dial the shards (sessions keep redialing in the background if a
  /// shard is not up yet), spawn the io thread. False on bind failure.
  bool start(std::string* error = nullptr);

  /// Drain in-flight results toward clients (bounded by flush_timeout_ms),
  /// close everything, join. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Shards currently in the kUp state. Thread-safe.
  int backends_up() const;

  RouterStats stats() const;

 private:
  struct Buf;
  struct InflightRing;
  struct ClientConn;
  struct Backend;
  struct QueryCtx;

  void io_main();
  void wake();

  void accept_clients();
  void handle_client_readable(ClientConn& conn);
  void handle_client_message(ClientConn& conn,
                             std::span<const std::uint8_t> frame,
                             wire::MsgType type);
  void forward_frame(ClientConn& conn, std::span<const std::uint8_t> frame);
  void client_error(ClientConn& conn, wire::ErrorCode code, const char* text);
  void close_client(ClientConn& conn);

  void dial_backend(Backend& backend);
  void handle_backend_readable(Backend& backend);
  void handle_backend_message(Backend& backend,
                              std::span<std::uint8_t> frame,
                              wire::MsgType type);
  void route_result(Backend& backend, std::span<std::uint8_t> frame);
  void lose_backend(Backend& backend);
  void backend_recovered(Backend& backend);
  void note_inflight_done(ClientConn& conn);

  void start_query(ClientConn& conn, bool telemetry);
  void merge_report(Backend& backend, QueryCtx& ctx);
  void finish_query(QueryCtx& ctx);

  bool append_out(Buf& tx, std::span<const std::uint8_t> bytes);
  void try_send(net::Socket& sock, Buf& tx, bool& dead);
  bool recv_into(net::Socket& sock, Buf& rx, bool& dead, long long& bytes_in);

  int ring_backend_for(std::uint64_t key) const;
  std::vector<bool> up_;  ///< per-backend liveness, io thread only

  const RouterOptions options_;
  HashRing ring_;
  util::BlockArena arena_;

  net::Socket listener_;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::thread io_thread_;
  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> backends_up_{0};

  std::vector<ClientConn> conns_;   ///< fixed pool, max_clients slots
  std::vector<Backend> backends_;   ///< one session per endpoint
  std::vector<QueryCtx> queries_;   ///< fixed pool, max_queries slots

  // Cached from the first successful shard handshake; what the router
  // advertises to cameras (model fingerprint must be fleet-wide uniform).
  wire::HelloAck fleet_ack_;
  bool have_ack_ = false;

  // Io-thread scratch, reused (steady state allocates nothing; the poll fd
  // vector lives in io_main and reserves once at thread start).
  wire::Message msg_;
  wire::Error err_;
  std::vector<std::uint8_t> enc_;

  mutable std::mutex stats_mutex_;
  RouterStats counters_;
};

}  // namespace pdet::fleet
