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
// telemetry health and every reported timeline segment's p50/p99 merge
// worst-of, and its text is concatenated under per-shard label lines.
//
// The io layer is net::FrameServer, the core the router shares with
// net::DetectionService: the same fixed client-link pool, poll loop and
// client-side protocol rules, so a camera sees one behaviour from either.
// The shard sessions are session links the router dials into that same
// loop. This class adds what differs: a Hello places the camera on the
// ring, a SubmitFrame is patched and forwarded raw, results come back from
// the sessions, and a query fans out (the link's input waits meanwhile, so
// replies keep the order of the queries).
//
// Zero steady-state allocation: every link buffer is fixed at construction
// (buffer_bytes per direction, client and session links alike), and
// decode/encode scratch lives in reused members. A frame that does not fit
// a full buffer waits as the link's one pending frame; beyond that, frames
// are shed (counted) — nothing grows.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/fleet/ring.hpp"
#include "src/net/backoff.hpp"
#include "src/net/frame_server.hpp"
#include "src/net/wire.hpp"
#include "src/runtime/stats_table.hpp"

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
  /// Fixed rx/tx buffer size per link direction; must hold the largest
  /// frame a camera submits (header + 16 + width*height*4 bytes). Each of
  /// the max_clients client links and each shard session has two.
  std::size_t buffer_bytes = 4u << 20;
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

/// Router-lifetime accounting: the stats table's net frontend rows
/// (runtime::NetStats; bytes count client and shard links alike, and
/// results_dropped is the two results_shed rows together) plus the rows
/// only a router has.
struct RouterStats : runtime::NetStats {
  long long frames_forwarded = 0;  ///< forwarded to a shard
  long long frames_shed_no_backend = 0;   ///< no shard up for the stream
  long long frames_shed_draining = 0;     ///< stream mid-move (drain rule)
  long long frames_shed_backpressure = 0; ///< shard tx buffer full
  long long results_shed_backend = 0;  ///< shed by a shard (tag gap upstream)
  long long results_shed_client = 0;   ///< client tx buffer full
  long long duplicates_suppressed = 0; ///< results not matching FIFO head
  long long reshards = 0;        ///< shard-loss remap events
  long long stream_moves = 0;    ///< streams moved between shards
  long long backend_sessions_lost = 0;
  int backends_up = 0;
  std::vector<ShardStats> shards;
};

class ShardRouter : private net::FrameServer::Handler {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Bind, spawn the io thread, which dials the shards (sessions keep
  /// redialing in the background if a shard is not up yet). False on bind
  /// failure.
  bool start(std::string* error = nullptr) { return server_.start(error); }

  /// Drain in-flight results toward clients (bounded by flush_timeout_ms),
  /// close everything, join. Idempotent.
  void stop() { server_.stop(); }

  bool running() const { return server_.running(); }
  std::uint16_t port() const { return server_.port(); }

  /// Shards currently in the kUp state. Thread-safe.
  int backends_up() const;

  RouterStats stats() const;

 private:
  struct Stream;
  struct Backend;

  // net::FrameServer::Handler
  const char* bind(net::Link& link, const wire::Hello& hello,
                   wire::HelloAck& ack) override;
  bool submit(net::Link& link, std::span<std::uint8_t> frame) override;
  void query(net::Link& link, wire::MsgType type) override;
  bool owes(const net::Link& link) const override;
  void closed(net::Link& link) override;
  void produce() override;
  int tick() override;
  void session_frame(net::Link& session, std::span<std::uint8_t> frame,
                     wire::MsgType type) override;
  void session_lost(net::Link& session) override;

  Stream* owner(int id, std::uint32_t generation);
  void note_inflight_done(Stream& stream);
  void dial_backend(Backend& backend);
  void route_result(Backend& backend, std::span<std::uint8_t> frame);
  void lose_backend(Backend& backend);
  void backend_recovered(Backend& backend);
  void merge_report(Backend& backend, Stream& stream);
  void retry_later(Backend& backend);

  int ring_backend_for(std::uint64_t key) const;
  std::vector<bool> up_;  ///< per-backend liveness, io thread only

  const RouterOptions options_;
  HashRing ring_;
  std::atomic<int> backends_up_{0};

  std::vector<Stream> streams_;    ///< per client link id
  std::vector<Backend> backends_;  ///< one session per endpoint

  // Cached from the first successful shard handshake; what the router
  // advertises to cameras (model fingerprint must be fleet-wide uniform).
  wire::HelloAck fleet_ack_;
  bool have_ack_ = false;

  // Io-thread scratch, reused (steady state allocates nothing).
  wire::Message msg_;
  std::vector<std::uint8_t> enc_;

  mutable std::mutex stats_mutex_;
  RouterStats counters_;

  net::FrameServer server_;  ///< last: its io thread uses everything above
};

}  // namespace pdet::fleet
