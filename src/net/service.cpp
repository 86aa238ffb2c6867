#include "src/net/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/obs/timeline.hpp"
#include "src/svm/model_io.hpp"
#include "src/util/assert.hpp"
#include "src/util/stats.hpp"

namespace pdet::net {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<double> latency_bounds() {
  const std::span<const double> bounds = obs::default_latency_bounds_ms();
  return {bounds.begin(), bounds.end()};
}

/// Ring of pending frame tags for one slot: tags enter at submit and leave,
/// in the same order, when the runtime delivers — per-stream deliveries are
/// sequence-ordered, so FIFO alignment is exact. There is no hard in-flight
/// ceiling: StreamContext buffers out-of-order completions (one slow frame
/// lets arbitrarily many successors finish and wait, holding their tags
/// without occupying a queue slot or worker), so push() grows the ring on
/// overflow instead of asserting — the initial capacity only sizes the
/// common case so steady state stays allocation-free.
class TagRing {
 public:
  void reset(std::size_t capacity) {
    ring_.assign(std::max<std::size_t>(capacity, 1), 0);
    head_ = count_ = 0;
  }
  void push(std::uint64_t tag) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = tag;
    ++count_;
  }
  std::uint64_t pop() {
    PDET_ASSERT(count_ > 0);
    const std::uint64_t tag = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return tag;
  }
  std::size_t size() const { return count_; }

 private:
  void grow() {
    std::vector<std::uint64_t> bigger(ring_.size() * 2, 0);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<std::uint64_t> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace

/// One result queued for a client, with the echoed client tag. swap() keeps
/// BoundedQueue's buffer-recycling contract allocation-free.
struct SlotResult {
  std::uint64_t tag = 0;
  runtime::StreamResult res;

  friend void swap(SlotResult& a, SlotResult& b) {
    std::swap(a.tag, b.tag);
    std::swap(a.res, b.res);
  }
};

/// One pre-registered runtime stream and its outbound plumbing. A slot
/// outlives connections: it is acquired at handshake, released at close,
/// and only re-acquired once every in-flight frame from the previous owner
/// has delivered (outstanding == 0) so results can never cross connections.
struct DetectionService::Slot {
  explicit Slot(std::size_t queue_capacity)
      : results(queue_capacity, runtime::BackpressurePolicy::kDropOldest) {}

  int stream_id = -1;
  std::atomic<bool> attached{false};
  std::atomic<long long> outstanding{0};
  runtime::BoundedQueue<SlotResult> results;

  // Callback-side state. The stream's delivery lock serializes callbacks;
  // the mutex additionally orders them against handshake-time reset.
  std::mutex mutex;
  TagRing tags;
  SlotResult scratch;  ///< staging copy, capacity reused
  SlotResult evicted;  ///< drop-oldest out-param, capacity reused
};

struct DetectionService::Connection {
  Socket sock;
  int slot = -1;  ///< index into slots_, -1 before handshake
  bool closing = false;   ///< fatal: flush wbuf, then close
  bool draining = false;  ///< kShutdown: close once results are flushed
  bool dead = false;

  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;  ///< consumed prefix of rbuf
  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;  ///< sent prefix of wbuf

  wire::Message msg;          ///< reused decode target
  wire::Result out_result;    ///< reused encode staging
  wire::StatsReport out_stats;
  wire::TelemetryReport out_telemetry;
  SlotResult popped;  ///< reused pop target

  std::size_t unsent() const { return wbuf.size() - wpos; }
};

DetectionService::DetectionService(svm::LinearModel model,
                                   ServiceOptions options)
    : options_(std::move(options)),
      runtime_(model, options_.runtime),
      request_hist_(latency_bounds()) {
  PDET_REQUIRE(options_.max_clients >= 1);
  PDET_REQUIRE(options_.result_queue_capacity >= 1);
  model_dim_ = static_cast<std::uint32_t>(model.dimension());
  model_crc_ = svm::model_fingerprint(model);
  // Initial per-stream tag capacity: every queued frame + one per worker in
  // service + the frame inside submit() itself. Out-of-order completions
  // buffered inside the runtime can exceed this; the ring grows then.
  const std::size_t tag_capacity = options_.runtime.queue_capacity +
                                   static_cast<std::size_t>(
                                       options_.runtime.workers) +
                                   2;
  slots_.reserve(static_cast<std::size_t>(options_.max_clients));
  for (int i = 0; i < options_.max_clients; ++i) {
    auto slot = std::make_unique<Slot>(options_.result_queue_capacity);
    slot->tags.reset(tag_capacity);
    Slot* raw = slot.get();
    slot->stream_id = runtime_.add_stream(
        "net" + std::to_string(i), [this, raw](const runtime::StreamResult& r) {
          Slot& s = *raw;
          bool attached = false;
          {
            std::lock_guard<std::mutex> lock(s.mutex);
            s.scratch.tag = s.tags.pop();
            s.scratch.res = r;  // copy-assign, capacity reuse
            attached = s.attached.load(std::memory_order_acquire);
            if (attached) {
              if (s.results.push(s.scratch, &s.evicted) ==
                  runtime::PushResult::kReplacedOldest) {
                std::lock_guard<std::mutex> stats(stats_mutex_);
                ++counters_.results_dropped;
              }
            } else {
              std::lock_guard<std::mutex> stats(stats_mutex_);
              ++counters_.results_dropped;
            }
          }
          s.outstanding.fetch_sub(1, std::memory_order_release);
          if (attached) wake();
        });
    slots_.push_back(std::move(slot));
  }
}

DetectionService::~DetectionService() {
  stop();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

bool DetectionService::start(std::string* error) {
  PDET_REQUIRE(!started_);
  listener_ = Socket::listen_tcp(options_.host, options_.port, 64, error);
  if (!listener_.valid()) return false;
  port_ = listener_.local_port();
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "pipe failed";
    listener_.close();
    return false;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  (void)fcntl(wake_read_, F_SETFL, O_NONBLOCK);
  (void)fcntl(wake_write_, F_SETFL, O_NONBLOCK);
  started_ = true;
  running_.store(true, std::memory_order_release);
  runtime_.start();
  io_thread_ = std::thread([this] { io_main(); });
  return true;
}

void DetectionService::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  runtime_.stop();
  running_.store(false, std::memory_order_release);
}

void DetectionService::wake() {
  if (wake_write_ < 0) return;
  const std::uint8_t b = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(wake_write_, &b, 1);
}

int DetectionService::acquire_slot() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = *slots_[i];
    if (s.attached.load(std::memory_order_acquire)) continue;
    if (s.outstanding.load(std::memory_order_acquire) != 0) continue;
    // Clear any results the previous owner never read.
    SlotResult stale;
    while (s.results.try_pop(stale)) {
    }
    s.attached.store(true, std::memory_order_release);
    return static_cast<int>(i);
  }
  return -1;
}

void DetectionService::send_error(Connection& conn, wire::ErrorCode code,
                                  const char* text) {
  wire::Error err;
  err.code = code;
  err.message = text;
  wire::encode_error(err, conn.wbuf);
}

void DetectionService::build_stats_report(wire::StatsReport& out) {
  out.runtime = runtime_.stats();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out.net = counters_;
}

void DetectionService::build_telemetry_report(wire::TelemetryReport& out) {
  const runtime::RuntimeStats rt = runtime_.stats();
  out.uptime_seconds = rt.wall_seconds;
  out.health_state = static_cast<std::uint32_t>(rt.health);

  // Frame-timeline percentiles over the flight recorder's retained window.
  const obs::FlightRecorder& flight = runtime_.flight_recorder();
  out.timeline_frames = flight.total_recorded();
  const std::vector<obs::FrameTimeline> window = flight.snapshot();
  out.timeline_window = static_cast<std::uint32_t>(window.size());
  std::vector<double> admit, queue, engine, total;
  admit.reserve(window.size());
  queue.reserve(window.size());
  engine.reserve(window.size());
  total.reserve(window.size());
  for (const obs::FrameTimeline& t : window) {
    const obs::TimelineBreakdown b = obs::breakdown(t);
    admit.push_back(b.admit_ms);
    queue.push_back(b.queue_ms);
    engine.push_back(b.engine_ms);
    total.push_back(b.total_ms);
  }
  const auto pcts = [](std::span<const double> xs) {
    wire::TelemetryPercentiles p;
    if (!xs.empty()) {
      p.p50_ms = static_cast<float>(util::percentile(xs, 50.0));
      p.p99_ms = static_cast<float>(util::percentile(xs, 99.0));
    }
    return p;
  };
  out.admit = pcts(admit);
  out.queue = pcts(queue);
  out.engine = pcts(engine);
  out.total = pcts(total);

  // Refresh the registry before rendering so the scrape is current. Empty
  // text when metrics are disabled — the counters above still fill in.
  publish_metrics();
  out.prometheus = obs::Registry::instance().to_prometheus();
}

void DetectionService::handle_message(Connection& conn) {
  switch (conn.msg.type) {
    case wire::MsgType::kHello: {
      if (conn.slot >= 0) {
        send_error(conn, wire::ErrorCode::kProtocol, "duplicate hello");
        conn.closing = true;
        return;
      }
      if (conn.msg.hello.protocol_version != wire::kProtocolVersion) {
        send_error(conn, wire::ErrorCode::kVersionMismatch,
                   "unsupported protocol version");
        conn.closing = true;
        return;
      }
      const int slot = acquire_slot();
      if (slot < 0) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++counters_.connections_refused;
        }
        send_error(conn, wire::ErrorCode::kBusy, "no free stream slot");
        conn.closing = true;
        return;
      }
      conn.slot = slot;
      wire::HelloAck ack;
      ack.protocol_version = wire::kProtocolVersion;
      ack.model_dim = model_dim_;
      ack.model_crc = model_crc_;
      ack.stream_id =
          static_cast<std::uint32_t>(slots_[static_cast<std::size_t>(slot)]
                                         ->stream_id);
      ack.server_name = options_.name;
      wire::encode_hello_ack(ack, conn.wbuf);
      return;
    }
    case wire::MsgType::kSubmitFrame: {
      if (conn.slot < 0) {
        send_error(conn, wire::ErrorCode::kProtocol, "frame before hello");
        conn.closing = true;
        return;
      }
      if (conn.msg.frame.image.empty()) {
        // Unreachable through wire v2 decode (zero dims are kBadPayload),
        // kept as defense in depth — and non-fatal: reject the frame, keep
        // the connection.
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++counters_.frames_rejected;
        }
        send_error(conn, wire::ErrorCode::kBadFrame, "empty frame");
        return;
      }
      Slot& s = *slots_[static_cast<std::size_t>(conn.slot)];
      {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.tags.push(conn.msg.frame.tag);
      }
      s.outstanding.fetch_add(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.frames_received;
      }
      // Every submit outcome (accepted, evicted, rejected) produces exactly
      // one in-order delivery, so the tag/outstanding bookkeeping balances.
      // The tag rides along as trace context and service_recv anchors the
      // frame's wire-visible timeline offsets.
      (void)runtime_.submit(s.stream_id, conn.msg.frame.image,
                            conn.msg.frame.tag, obs::timeline_now_ns());
      return;
    }
    case wire::MsgType::kStatsQuery: {
      build_stats_report(conn.out_stats);
      wire::encode_stats_report(conn.out_stats, conn.wbuf);
      return;
    }
    case wire::MsgType::kTelemetryQuery: {
      build_telemetry_report(conn.out_telemetry);
      wire::encode_telemetry_report(conn.out_telemetry, conn.wbuf);
      return;
    }
    case wire::MsgType::kShutdown: {
      conn.draining = true;
      return;
    }
    case wire::MsgType::kHelloAck:
    case wire::MsgType::kResult:
    case wire::MsgType::kStatsReport:
    case wire::MsgType::kTelemetryReport:
      send_error(conn, wire::ErrorCode::kProtocol,
                 "server-to-client message from client");
      conn.closing = true;
      return;
    case wire::MsgType::kError: {
      // A client-reported error: log-free teardown of this connection.
      conn.closing = true;
      return;
    }
  }
}

void DetectionService::handle_readable(Connection& conn) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    std::size_t got = 0;
    const IoStatus status = recv_some(conn.sock.fd(), chunk, got);
    if (status == IoStatus::kOk) {
      conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + got);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      counters_.bytes_in += static_cast<long long>(got);
      if (got == sizeof chunk) continue;  // more may be pending
      break;
    }
    if (status == IoStatus::kWouldBlock) break;
    conn.dead = true;  // kClosed or kError: peer is gone
    return;
  }

  while (!conn.closing && !conn.draining) {
    const std::span<const std::uint8_t> pending(conn.rbuf.data() + conn.rpos,
                                                conn.rbuf.size() - conn.rpos);
    std::size_t consumed = 0;
    const wire::DecodeStatus status =
        wire::decode_message(pending, conn.msg, consumed);
    if (status == wire::DecodeStatus::kNeedMore) break;
    if (status == wire::DecodeStatus::kBadPayload &&
        conn.msg.type == wire::MsgType::kSubmitFrame) {
      // The frame passed its CRC, so the framing is sound — only the
      // SubmitFrame fields are invalid (zero/oversized dimensions, payload
      // not matching w*h). Skip this one message, answer with a wire Error,
      // and keep the connection: one malformed frame must not kill a
      // camera feed.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.decode_errors;
        ++counters_.frames_rejected;
      }
      send_error(conn, wire::ErrorCode::kBadFrame,
                 "invalid frame dimensions/payload");
      conn.rpos += consumed;
      continue;
    }
    if (status != wire::DecodeStatus::kOk) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.decode_errors;
      }
      send_error(conn, wire::ErrorCode::kProtocol, wire::to_string(status));
      conn.closing = true;
      break;
    }
    conn.rpos += consumed;
    handle_message(conn);
  }

  // Compact the consumed prefix (cheap: leftovers are partial frames).
  if (conn.rpos == conn.rbuf.size()) {
    conn.rbuf.clear();
    conn.rpos = 0;
  } else if (conn.rpos > 0) {
    std::memmove(conn.rbuf.data(), conn.rbuf.data() + conn.rpos,
                 conn.rbuf.size() - conn.rpos);
    conn.rbuf.resize(conn.rbuf.size() - conn.rpos);
    conn.rpos = 0;
  }
}

namespace {

/// Microseconds from `from` to `to`, 0 when either stamp is missing or the
/// hop went backwards (a stamp of 0 means "hop not reached").
std::uint32_t us_offset(std::uint64_t from, std::uint64_t to) {
  if (from == 0 || to <= from) return 0;
  const std::uint64_t us = (to - from) / 1000;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(us, 0xFFFF'FFFFull));
}

}  // namespace

void DetectionService::flush_slot_queues() {
  for (auto& conn_ptr : conns_) {
    Connection& conn = *conn_ptr;
    if (conn.dead || conn.slot < 0) continue;
    Slot& s = *slots_[static_cast<std::size_t>(conn.slot)];
    while (conn.unsent() < options_.max_write_buffer &&
           s.results.try_pop(conn.popped)) {
      const runtime::StreamResult& r = conn.popped.res;
      wire::Result& out = conn.out_result;
      out.sequence = r.sequence;
      out.tag = conn.popped.tag;
      out.status = r.status;
      out.degrade_level = static_cast<std::uint8_t>(r.degrade_level);
      out.queue_wait_ms = static_cast<float>(r.queue_wait_ms);
      out.service_ms = static_cast<float>(r.service_ms);
      out.total_ms = static_cast<float>(r.total_ms);
      out.input_quality = r.input_quality;
      out.camera_state = r.camera_state;
      out.quality_reasons = r.quality_reasons;
      // Flatten the server-side timeline into wire offsets relative to
      // service receive; wire_send is stamped here, at encode time.
      const obs::FrameTimeline& t = r.timing;
      out.trace.gate_us = us_offset(t.service_recv_ns, t.gate_ns);
      out.trace.admit_us = us_offset(t.service_recv_ns, t.queue_admit_ns);
      out.trace.schedule_us = us_offset(t.service_recv_ns, t.schedule_ns);
      out.trace.engine_start_us =
          us_offset(t.service_recv_ns, t.engine_start_ns);
      out.trace.engine_end_us = us_offset(t.service_recv_ns, t.engine_end_ns);
      out.trace.deliver_us = us_offset(t.service_recv_ns, t.deliver_ns);
      out.trace.send_us =
          us_offset(t.service_recv_ns, obs::timeline_now_ns());
      out.trace.level_count = static_cast<std::uint8_t>(
          std::min<std::size_t>(t.level_count, obs::kTimelineMaxLevels));
      out.trace.level_us = t.level_us;
      out.detections = r.detections;  // copy-assign, capacity reuse
      wire::encode_result(out, conn.wbuf);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.results_sent;
      request_hist_.record(r.total_ms);
    }
  }
}

void DetectionService::try_send(Connection& conn) {
  while (conn.unsent() > 0) {
    std::size_t sent = 0;
    const IoStatus status = send_some(
        conn.sock.fd(),
        std::span<const std::uint8_t>(conn.wbuf.data() + conn.wpos,
                                      conn.unsent()),
        sent);
    if (status == IoStatus::kOk) {
      conn.wpos += sent;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      counters_.bytes_out += static_cast<long long>(sent);
      continue;
    }
    if (status == IoStatus::kWouldBlock) return;
    conn.dead = true;
    return;
  }
  conn.wbuf.clear();
  conn.wpos = 0;
}

void DetectionService::close_connection(std::size_t index) {
  Connection& conn = *conns_[index];
  if (conn.slot >= 0) {
    slots_[static_cast<std::size_t>(conn.slot)]->attached.store(
        false, std::memory_order_release);
    conn.slot = -1;
  }
  conn.sock.close();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.connections_closed;
    --counters_.active_connections;
  }
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(index));
}

void DetectionService::io_main() {
  // The obs layer is thread-safe, so the io thread records spans and
  // answers telemetry queries directly; service counters still aggregate
  // under stats_mutex_ so stats() stays one consistent snapshot.
  std::vector<pollfd> fds;
  bool stopping = false;
  while (true) {
    if (!stopping && stop_requested_.load(std::memory_order_acquire)) {
      stopping = true;
      listener_.close();
      // No reads from here on: the io thread is the only producer, so once
      // current buffers are parsed the runtime can drain fully.
      runtime_.drain();
      flush_slot_queues();
      const auto flush_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 options_.flush_timeout_ms));
      while (Clock::now() < flush_deadline) {
        flush_slot_queues();
        bool pending = false;
        for (auto& conn_ptr : conns_) {
          if (conn_ptr->dead) continue;
          try_send(*conn_ptr);
          if (conn_ptr->unsent() > 0 && !conn_ptr->dead) pending = true;
        }
        for (auto& slot : slots_) {
          if (slot->attached.load(std::memory_order_acquire) &&
              slot->results.size() > 0) {
            pending = true;
          }
        }
        if (!pending) break;
        // Wait for some client to accept more bytes.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      while (!conns_.empty()) close_connection(conns_.size() - 1);
      return;
    }

    fds.clear();
    fds.push_back(pollfd{wake_read_, POLLIN, 0});
    if (listener_.valid()) fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    const std::size_t conn_base = fds.size();
    // Snapshot: the accept loop below may append to conns_, and those new
    // connections have no pollfd entry this cycle.
    const std::size_t polled_conns = conns_.size();
    for (auto& conn_ptr : conns_) {
      short events = 0;
      if (!conn_ptr->closing && !conn_ptr->draining) events |= POLLIN;
      if (conn_ptr->unsent() > 0) events |= POLLOUT;
      fds.push_back(pollfd{conn_ptr->sock.fd(), events, 0});
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint8_t drain_buf[256];
      while (::read(wake_read_, drain_buf, sizeof drain_buf) > 0) {
      }
    }
    if (listener_.valid() && fds.size() > 1 &&
        (fds[1].revents & POLLIN) != 0) {
      for (;;) {
        Socket accepted = listener_.accept();
        if (!accepted.valid()) break;
        auto conn = std::make_unique<Connection>();
        conn->sock = std::move(accepted);
        conns_.push_back(std::move(conn));
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.connections_accepted;
        ++counters_.active_connections;
      }
    }

    for (std::size_t i = 0; i < polled_conns; ++i) {
      const short revents = fds[conn_base + i].revents;
      Connection& conn = *conns_[i];
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn.dead = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) != 0 && !conn.closing &&
          !conn.draining) {
        handle_readable(conn);
      }
    }

    flush_slot_queues();
    for (auto& conn_ptr : conns_) {
      if (!conn_ptr->dead) try_send(*conn_ptr);
    }

    // Reap: dead sockets; closed-after-flush errors; drained shutdowns.
    for (std::size_t i = conns_.size(); i-- > 0;) {
      Connection& conn = *conns_[i];
      bool finished = conn.dead;
      if (!finished && conn.closing && conn.unsent() == 0) finished = true;
      if (!finished && conn.draining && conn.unsent() == 0) {
        if (conn.slot < 0) {
          // Shutdown before hello: no stream, nothing in flight to wait on.
          finished = true;
        } else {
          Slot& s = *slots_[static_cast<std::size_t>(conn.slot)];
          if (s.outstanding.load(std::memory_order_acquire) == 0 &&
              s.results.size() == 0) {
            finished = true;
          }
        }
      }
      if (finished) close_connection(i);
    }
  }
}

ServiceStats DetectionService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = counters_;
    out.request_ms = request_hist_.summary();
  }
  out.runtime = runtime_.stats();
  return out;
}

void DetectionService::publish_metrics() {
  const ServiceStats s = stats();
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  runtime::publish_stats(s, published_);
  obs::gauge_set("net.request_ms.p50", s.request_ms.p50);
  obs::gauge_set("net.request_ms.p99", s.request_ms.p99);
  runtime_.publish_metrics();
}

}  // namespace pdet::net
