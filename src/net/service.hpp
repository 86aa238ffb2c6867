// TCP frontend over the in-process serving runtime (pdet::net).
//
// DetectionService is the machine-boundary layer the deployment papers
// assume (an SoC detector node streaming frames/detections to the vehicle
// stack): it owns a runtime::DetectionServer and bridges N TCP client
// connections onto it through the wire protocol (net/wire):
//
//   accept ──► handshake (Hello/HelloAck: protocol + model fingerprint)
//     │                                        │ assign a stream slot
//     ▼                                        ▼
//   poll loop (one io thread)            runtime::DetectionServer
//     ├─ read:  decode SubmitFrame ───► submit(slot.stream, frame)
//     │                                        │ engine pool, scheduler,
//     │                                        │ in-order StreamContext
//     │          per-slot BoundedQueue ◄─── result callback (worker thread)
//     ├─ write: pop results ► encode ► conn write buffer ► send
//     └─ stats / shutdown / error frames
//
// The io layer is net::FrameServer, the core this service shares with
// fleet::ShardRouter: a fixed pool of max_clients links (a connection
// beyond it is refused with Error{kBusy}), one poll loop on one io thread,
// and the client-side protocol rules. This class adds what a Hello binds to
// (a runtime stream slot), what a SubmitFrame does (decode + submit), the
// inline answers to queries, and the slot queues results come from.
//
// Backpressure, both directions, is the runtime's own rule extended to the
// wire: inbound overload lands in the runtime's bounded frame queue and
// degradation ladder (frames from all connections share it); outbound, a
// slow reader's results pile into a *bounded* per-slot queue with
// drop-oldest — the connection sheds stale results (counted in
// net.results_dropped) instead of buffering unboundedly, exactly how the
// frame queue treats a slow engine pool. A link's buffers are fixed: its rx
// holds one frame of the wire's largest (a 4K-UHD plane fits), its tx
// kTxBytes; once tx is full, results wait in the slot queue and the link's
// input waits in the socket, so a client that never reads costs a bounded
// amount of memory.
//
// Tags: a SubmitFrame's client tag enters the runtime as the frame's trace
// id, and every delivery carries it back (StreamResult::timing.trace_id,
// the watchdog's error included), so the Result echoes the tag read from
// the result itself — the service keeps no tag list of its own.
//
// Threading: one io thread runs the poll loop; runtime worker threads only
// touch their slot's bounded queue + the wake pipe inside the result
// callback, which the stream's delivery lock serializes. stop() drains
// in-flight frames through the runtime, flushes what the clients will
// accept within a deadline, then tears down.
// Counters are aggregated service-locally so stats() is one consistent
// snapshot; publish_metrics() mirrors them into the (thread-safe) obs
// registry and may be called from any thread — a TelemetryQuery invokes it
// on the io thread so the Prometheus text a client reads is current.
//
// The telemetry plane (v3): the io thread stamps service_recv on every
// SubmitFrame and wire_send on every encoded Result, carrying the client's
// frame tag as trace context; a TelemetryQuery is answered inline from the
// metrics registry plus the runtime's flight-recorder timeline window.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/frame_server.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/bounded_queue.hpp"
#include "src/runtime/server.hpp"

namespace pdet::net {

struct ServiceOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  std::string name = "pdet";
  /// Stream slots, created up front (runtime streams are frozen at start()).
  /// Connections beyond this are refused with Error{kBusy}.
  int max_clients = 8;
  /// Per-slot outbound result queue depth; drop-oldest beyond it.
  std::size_t result_queue_capacity = 64;
  /// stop(): how long to keep flushing delivered results to clients.
  double flush_timeout_ms = 2000.0;
  runtime::ServerOptions runtime;  ///< engine pool / queue / scheduler
};

/// Service-lifetime accounting: the stats table's net frontend rows
/// (runtime::NetStats), the request-latency histogram summary and the
/// embedded runtime snapshot.
struct ServiceStats : runtime::NetStats {
  obs::HistogramSummary request_ms;  ///< submit -> result encoded, per frame
  runtime::RuntimeStats runtime;
};

class DetectionService : private FrameServer::Handler {
 public:
  /// Per-link tx buffer: once it is full, results wait in the bounded slot
  /// queue, so a stalled reader costs at most this buffer, one pending
  /// frame and the result queue. Sized to hold the wire's largest reply.
  static constexpr std::size_t kTxBytes = std::size_t{4} << 20;
  static_assert(kTxBytes >= wire::kMaxReplyBytes);

  DetectionService(svm::LinearModel model, ServiceOptions options);
  ~DetectionService() override;

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Bind, listen, start the runtime workers and the io thread. False (with
  /// a description in `*error`) when the address cannot be bound.
  bool start(std::string* error = nullptr);

  /// Port actually bound — the way to reach an ephemeral (port 0) service.
  std::uint16_t port() const { return server_.port(); }

  bool running() const { return server_.running(); }

  /// Graceful shutdown: stop accepting/reading, drain every in-flight frame
  /// through the runtime, flush results to clients (bounded by
  /// flush_timeout_ms), close, join. Idempotent; the destructor calls it.
  void stop();

  ServiceStats stats() const;

  /// Write the stats table's net rows, the request-latency p50/p99 gauges
  /// and the runtime.* set into the global obs registry. Delta-tracked and
  /// thread-safe (telemetry queries publish from the io thread; a periodic
  /// owner loop may run concurrently).
  void publish_metrics();

 private:
  struct Slot;

  // FrameServer::Handler
  const char* bind(Link& link, const wire::Hello& hello,
                   wire::HelloAck& ack) override;
  bool submit(Link& link, std::span<std::uint8_t> frame) override;
  void query(Link& link, wire::MsgType type) override;
  bool owes(const Link& link) const override;
  void closed(Link& link) override;
  void produce() override;
  void stopping() override;

  void build_stats_report(wire::StatsReport& out);
  void build_telemetry_report(wire::TelemetryReport& out);
  int acquire_slot();

  const ServiceOptions options_;
  runtime::DetectionServer runtime_;
  std::uint32_t model_dim_ = 0;
  std::uint32_t model_crc_ = 0;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<int> link_slot_;  ///< slot per client link id, -1 if unbound

  // Counters: written by the io thread (and callbacks for drops), read by
  // stats(). Histogram under the same lock.
  mutable std::mutex stats_mutex_;
  ServiceStats counters_;
  obs::Histogram request_hist_;
  /// Delta-publishing state, own lock (io thread and owner may both call
  /// publish_metrics).
  std::mutex publish_mutex_;
  runtime::NetStats published_;  ///< last values written to the registry

  // Io-thread scratch, reused.
  wire::Message msg_;
  wire::Result out_result_;
  wire::StatsReport out_stats_;
  wire::TelemetryReport out_telemetry_;
  std::vector<std::uint8_t> enc_;

  FrameServer server_;  ///< last: its io thread uses everything above
};

}  // namespace pdet::net
