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
// Backpressure, both directions, is the PR 3 story extended to the wire:
// inbound overload lands in the runtime's bounded frame queue and
// degradation ladder (frames from all connections share it); outbound, a
// slow reader's results pile into a *bounded* per-slot queue with
// drop-oldest — the connection sheds stale results (counted in
// net.results_dropped) instead of buffering unboundedly, exactly how the
// frame queue treats a slow engine pool. The write buffer itself is capped:
// encoding pauses (results wait in the bounded queue) while a connection's
// unsent bytes exceed the watermark.
//
// Threading: one io thread runs the poll loop; runtime worker threads only
// touch their slot's bounded queue + wake pipe inside the result callback.
// stop() drains in-flight frames through the runtime, flushes what the
// clients will accept within a deadline, then tears down. Counters are
// aggregated service-locally so stats() is one consistent snapshot;
// publish_metrics() mirrors them into the (thread-safe) obs registry and
// may be called from any thread — a TelemetryQuery invokes it on the io
// thread so the Prometheus text a client reads is current.
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
#include <thread>
#include <vector>

#include "src/net/socket.hpp"
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
  /// Unsent-byte watermark per connection: encoding pauses above it, so a
  /// stalled reader costs at most this buffer + the bounded result queue.
  std::size_t max_write_buffer = 4u << 20;
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

class DetectionService {
 public:
  DetectionService(svm::LinearModel model, ServiceOptions options);
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Bind, listen, start the runtime workers and the io thread. False (with
  /// a description in `*error`) when the address cannot be bound.
  bool start(std::string* error = nullptr);

  /// Port actually bound — the way to reach an ephemeral (port 0) service.
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

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
  struct Connection;

  void io_main();
  void handle_readable(Connection& conn);
  void handle_message(Connection& conn);
  void flush_slot_queues();
  void try_send(Connection& conn);
  void close_connection(std::size_t index);
  void send_error(Connection& conn, wire::ErrorCode code, const char* text);
  void build_stats_report(wire::StatsReport& out);
  void build_telemetry_report(wire::TelemetryReport& out);
  int acquire_slot();
  void wake();

  const ServiceOptions options_;
  runtime::DetectionServer runtime_;
  std::uint32_t model_dim_ = 0;
  std::uint32_t model_crc_ = 0;

  Socket listener_;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::thread io_thread_;
  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Counters: written by the io thread (and callbacks for drops), read by
  // stats(). Histogram under the same lock.
  mutable std::mutex stats_mutex_;
  ServiceStats counters_;
  obs::Histogram request_hist_;
  /// Delta-publishing state, own lock (io thread and owner may both call
  /// publish_metrics).
  std::mutex publish_mutex_;
  runtime::NetStats published_;  ///< last values written to the registry
};

}  // namespace pdet::net
