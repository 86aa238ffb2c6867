#include "src/net/service.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/timeline.hpp"
#include "src/svm/model_io.hpp"
#include "src/util/assert.hpp"
#include "src/util/stats.hpp"

namespace pdet::net {
namespace {

std::vector<double> latency_bounds() {
  const std::span<const double> bounds = obs::default_latency_bounds_ms();
  return {bounds.begin(), bounds.end()};
}

}  // namespace

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
  /// Delivered results; each carries its client tag as timing.trace_id.
  runtime::BoundedQueue<runtime::StreamResult> results;

  /// Drop-oldest out-param, capacity reused. Only callbacks touch it, and
  /// the stream's delivery lock serializes them.
  runtime::StreamResult evicted;
  runtime::StreamResult popped;  ///< io-thread pop target, capacity reused
};

DetectionService::DetectionService(svm::LinearModel model,
                                   ServiceOptions options)
    : options_(std::move(options)),
      runtime_(model, options_.runtime),
      link_slot_(static_cast<std::size_t>(std::max(options_.max_clients, 0)),
                 -1),
      request_hist_(latency_bounds()),
      server_({.host = options_.host,
               .port = options_.port,
               .max_clients = options_.max_clients,
               .rx_bytes = wire::kHeaderSize + wire::kMaxPayloadBytes,
               .tx_bytes = kTxBytes,
               .flush_timeout_ms = options_.flush_timeout_ms},
              *this, stats_mutex_, counters_) {
  PDET_REQUIRE(options_.result_queue_capacity >= 1);
  model_dim_ = static_cast<std::uint32_t>(model.dimension());
  model_crc_ = svm::model_fingerprint(model);
  slots_.reserve(static_cast<std::size_t>(options_.max_clients));
  for (int i = 0; i < options_.max_clients; ++i) {
    auto slot = std::make_unique<Slot>(options_.result_queue_capacity);
    Slot* raw = slot.get();
    slot->stream_id = runtime_.add_stream(
        "net" + std::to_string(i), [this, raw](const runtime::StreamResult& r) {
          Slot& s = *raw;
          // A result that races a close lands in the queue of a detached
          // slot; acquire_slot clears it before the slot is bound again,
          // which waits for this callback's outstanding decrement.
          const bool attached = s.attached.load(std::memory_order_acquire);
          if (!attached || s.results.push(r, &s.evicted) ==
                               runtime::PushResult::kReplacedOldest) {
            std::lock_guard<std::mutex> stats(stats_mutex_);
            ++counters_.results_dropped;
          }
          s.outstanding.fetch_sub(1, std::memory_order_release);
          if (attached) server_.wake();
        });
    slots_.push_back(std::move(slot));
  }
}

DetectionService::~DetectionService() { stop(); }

bool DetectionService::start(std::string* error) {
  runtime_.start();
  if (server_.start(error)) return true;
  runtime_.stop();
  return false;
}

void DetectionService::stop() {
  if (!server_.running()) return;
  server_.stop();  // stopping() drains the runtime before the flush
  runtime_.stop();
}

int DetectionService::acquire_slot() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = *slots_[i];
    if (s.attached.load(std::memory_order_acquire)) continue;
    if (s.outstanding.load(std::memory_order_acquire) != 0) continue;
    // Clear any results the previous owner never read.
    while (s.results.try_pop(s.popped)) {
    }
    s.attached.store(true, std::memory_order_release);
    return static_cast<int>(i);
  }
  return -1;
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
  std::vector<double> xs;
  xs.reserve(window.size());
  wire::TelemetryReport::visit(
      [&](const obs::Segment& segment, wire::TelemetryPercentiles& p) {
        xs.clear();
        for (const obs::FrameTimeline& t : window) {
          xs.push_back(obs::ms_between(t, segment.from, segment.to));
        }
        const auto pct = [&xs](double q) {
          return xs.empty() ? 0.f : static_cast<float>(util::percentile(xs, q));
        };
        p = {pct(50.0), pct(99.0)};
      },
      out);

  // Refresh the registry before rendering so the scrape is current. Empty
  // text when metrics are disabled — the counters above still fill in.
  publish_metrics();
  out.prometheus = obs::Registry::instance().to_prometheus();
}

const char* DetectionService::bind(Link& link, const wire::Hello& /*hello*/,
                                   wire::HelloAck& ack) {
  const int slot = acquire_slot();
  if (slot < 0) return "no free stream slot";
  link_slot_[static_cast<std::size_t>(link.id())] = slot;
  ack.model_dim = model_dim_;
  ack.model_crc = model_crc_;
  ack.stream_id = static_cast<std::uint32_t>(
      slots_[static_cast<std::size_t>(slot)]->stream_id);
  ack.server_name = options_.name;
  return nullptr;
}

void DetectionService::closed(Link& link) {
  int& slot = link_slot_[static_cast<std::size_t>(link.id())];
  if (slot < 0) return;
  slots_[static_cast<std::size_t>(slot)]->attached.store(
      false, std::memory_order_release);
  slot = -1;
}

bool DetectionService::submit(Link& link, std::span<std::uint8_t> frame) {
  if (wire::decode_frame(frame, wire::MsgType::kSubmitFrame, msg_) !=
      wire::DecodeStatus::kOk) {
    return false;
  }
  Slot& s = *slots_[static_cast<std::size_t>(
      link_slot_[static_cast<std::size_t>(link.id())])];
  s.outstanding.fetch_add(1, std::memory_order_acq_rel);
  // Every submit outcome (accepted, evicted, rejected) produces exactly one
  // in-order delivery, so the outstanding count balances. The tag rides
  // along as the frame's trace id and comes back on its result;
  // service_recv anchors the frame's wire-visible timeline offsets.
  (void)runtime_.submit(s.stream_id, msg_.frame.image, msg_.frame.tag,
                        obs::timeline_now_ns());
  return true;
}

void DetectionService::query(Link& link, wire::MsgType type) {
  enc_.clear();
  if (type == wire::MsgType::kStatsQuery) {
    build_stats_report(out_stats_);
    wire::encode_stats_report(out_stats_, enc_);
  } else {
    build_telemetry_report(out_telemetry_);
    wire::encode_telemetry_report(out_telemetry_, enc_);
  }
  (void)server_.send(link, enc_);
}

bool DetectionService::owes(const Link& link) const {
  const int slot = link_slot_[static_cast<std::size_t>(link.id())];
  if (slot < 0) return false;  // unbound: no stream, nothing in flight
  const Slot& s = *slots_[static_cast<std::size_t>(slot)];
  return s.outstanding.load(std::memory_order_acquire) != 0 ||
         s.results.size() != 0;
}

void DetectionService::stopping() {
  // The io thread was the only producer and reads no more, so the runtime
  // can drain fully before the flush.
  runtime_.drain();
}

void DetectionService::produce() {
  for (int id = 0; id < server_.max_clients(); ++id) {
    Link& link = server_.client(id);
    const int slot = link_slot_[static_cast<std::size_t>(id)];
    if (slot < 0 || !link.usable()) continue;
    Slot& s = *slots_[static_cast<std::size_t>(slot)];
    // A full tx stops the loop (the result that did not fit is the link's
    // pending frame); the rest wait in the bounded slot queue.
    while (link.writable() && s.results.try_pop(s.popped)) {
      runtime::StreamResult& r = s.popped;
      wire::Result& out = out_result_;
      out.sequence = r.sequence;
      out.tag = r.timing.trace_id;
      out.status = r.status;
      out.degrade_level = static_cast<std::uint8_t>(r.degrade_level);
      out.queue_wait_ms = static_cast<float>(r.queue_wait_ms);
      out.service_ms = static_cast<float>(r.service_ms);
      out.total_ms = static_cast<float>(r.total_ms);
      out.input_quality = r.input_quality;
      out.camera_state = r.camera_state;
      out.quality_reasons = r.quality_reasons;
      // wire_send is stamped here, at encode time.
      r.timing.wire_send_ns = obs::timeline_now_ns();
      wire::trace_timeline(r.timing, out.trace);
      out.detections = r.detections;  // copy-assign, capacity reuse
      enc_.clear();
      wire::encode_result(out, enc_);
      (void)server_.send(link, enc_);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.results_sent;
      request_hist_.record(r.total_ms);
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
