// The serving stacks a workload drives: runtime::DetectionServer in process,
// or cameras -> fleet::ShardRouter -> net::DetectionService over loopback.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "src/fleet/ring.hpp"
#include "src/fleet/router.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"
#include "src/runtime/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using pd::runtime::FrameStatus;

void sleep_until_ns(std::uint64_t due) {
  const std::uint64_t now = now_ns();
  if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
}

std::uint64_t frame_id(int stream, std::size_t index) {
  return (static_cast<std::uint64_t>(stream + 1) << 32) |
         static_cast<std::uint64_t>(index);
}

Outcome outcome_for(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return Outcome::kOk;
    case FrameStatus::kDroppedQueue:
    case FrameStatus::kDroppedDeadline:
      return Outcome::kDropped;
    default:
      return Outcome::kError;
  }
}

/// Lossless-when-not-overloaded runtime configuration shared by both stacks:
/// no degradation ladder (overload shows as drops, not thinner pyramids),
/// bounded drop-oldest queue, backend pinned.
pd::runtime::ServerOptions runtime_options(const Workload& w,
                                           const Model& model) {
  pd::runtime::ServerOptions o;
  o.workers = w.workers;
  o.engine_threads = w.engine_threads;
  o.queue_capacity = queue_capacity(w);
  o.backpressure = pd::runtime::BackpressurePolicy::kDropOldest;
  o.scheduler.deadline_ms = 0.0;
  o.scheduler.max_level = 0;
  o.hog = model.hog;
  o.multiscale = workload_multiscale(model, w);
  o.backend = w.backend;
  o.guard.enabled = w.guard;
  return o;
}

/// Router connection buffers must hold every frame a session can have in
/// flight (a full buffer sheds).
std::size_t router_buffer_bytes(const Pool& pool, int frames_in_flight) {
  const PoolFrame& f = pool.at(0, 0);
  const std::size_t frame_bytes =
      static_cast<std::size_t>(f.image.width()) *
          static_cast<std::size_t>(f.image.height()) * sizeof(float) +
      256;
  return frame_bytes * static_cast<std::size_t>(frames_in_flight + 2) +
         (64u << 10);
}

bool wait_backends(const pd::fleet::ShardRouter& router, int shards) {
  const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
  while (router.backends_up() < shards && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return router.backends_up() == shards;
}

// --- In process --------------------------------------------------------------

/// One DetectionServer, one generator thread (the caller) submitting every
/// camera; results are judged in the delivery callback.
class InprocStack final : public ServingStack {
 public:
  InprocStack(const Workload& w, const Model& model, const Pool& pool)
      : w_(w),
        pool_(pool),
        logs_(static_cast<std::size_t>(w.streams)),
        next_pool_(static_cast<std::size_t>(w.streams), 0),
        expected_(static_cast<std::size_t>(w.streams), 0) {
    server_ = std::make_unique<pd::runtime::DetectionServer>(
        model.model, runtime_options(w, model));
    for (int s = 0; s < w.streams; ++s) {
      server_->add_stream("cam" + std::to_string(s),
                          [this, s](const pd::runtime::StreamResult& r) {
                            on_result(s, r);
                          });
    }
    server_->start();
    // Warm-up: every worker sees frames of every camera, so the engine
    // workspaces, queue slots and reorder buffers reach their high water.
    const int total = w.warmup_frames * w.streams;
    for (int k = 0; k < total; ++k) {
      wait_window(static_cast<int>(queue_capacity(w)));
      submit(k % w.streams, now_ns(), kWarmup);
    }
    server_->drain();
  }

  ~InprocStack() override { stop(); }

  void open_loop(double seconds, Phase phase) override {
    const double period = 1e9 / w_.rate_fps;
    const std::uint64_t t0 = now_ns() + 1'000'000;
    const auto end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    for (long k = 0;; ++k) {
      const std::uint64_t due =
          t0 + static_cast<std::uint64_t>(static_cast<double>(k) * period);
      if (due >= end) break;
      sleep_until_ns(due);
      submit(static_cast<int>(k % w_.streams), due, phase);
    }
    server_->drain();
  }

  void closed_loop(double seconds, Phase phase) override {
    const auto end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (long k = 0; now_ns() < end; ++k) {
      wait_window(w_.window);
      submit(static_cast<int>(k % w_.streams), now_ns(), phase);
    }
    server_->drain();
  }

  void stop() override { server_->stop(); }

  StackStats stats() override {
    const pd::runtime::RuntimeStats s = server_->stats();
    StackStats out;
    out.engine_workers = w_.workers;
    out.runtime_dropped = s.dropped_queue + s.dropped_deadline;
    out.runtime_errors = s.errors;
    out.score_fill = s.score_fill;
    out.guard_verdicts = s.guard_unusable + s.guard_soft;
    return out;
  }

  std::vector<RecordLog>& logs() override { return logs_; }

 private:
  void submit(int s, std::uint64_t due, Phase phase) {
    RecordLog& log = logs_[static_cast<std::size_t>(s)];
    const std::size_t index = log.size();
    FrameRecord& rec = log.append();
    int& next = next_pool_[static_cast<std::size_t>(s)];
    rec.pool = next;
    next = (next + 1) % pool_.frames_per_stream();
    rec.phase = phase;
    rec.scheduled_ns = due;
    rec.root_span = Tracer::instance().reserve();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++in_flight_;
    }
    Span send("gen.send", frame_id(s, index), rec.root_span);
    rec.sent_ns = now_ns();
    {
      Span call("runtime.submit");
      server_->submit(s, pool_.at(s, rec.pool).image);
    }
    rec.sent_end_ns = now_ns();
  }

  /// Delivery callback: runs in sequence order per camera (under the
  /// stream's delivery lock), on a worker or on the generator thread.
  void on_result(int s, const pd::runtime::StreamResult& r) {
    FrameRecord& rec = logs_[static_cast<std::size_t>(s)][r.sequence];
    rec.done_ns = now_ns();
    {
      Span deliver("runtime.deliver", frame_id(s, r.sequence), rec.root_span);
      std::uint64_t& expected = expected_[static_cast<std::size_t>(s)];
      const bool in_order = r.sequence == expected;
      expected = r.sequence + 1;
      rec.timing = r.timing;
      rec.outcome = outcome_for(r.status);
      if (rec.outcome == Outcome::kOk) {
        rec.outcome = judge(pool_, s, rec, r.detections, in_order);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    cv_.notify_all();
  }

  void wait_window(int window) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return in_flight_ < window; });
  }

  const Workload& w_;
  const Pool& pool_;
  std::vector<RecordLog> logs_;
  std::vector<int> next_pool_;               ///< generator only
  std::vector<std::uint64_t> expected_;      ///< delivery side, per camera
  std::mutex mutex_;
  std::condition_variable cv_;
  int in_flight_ = 0;
  // Declared last: destroyed (stopped) before the state its workers touch.
  std::unique_ptr<pd::runtime::DetectionServer> server_;
};

// --- Fleet over loopback TCP -------------------------------------------------

/// One camera's connection and its bookkeeping (touched only by the
/// camera's own thread while a phase runs).
struct Camera {
  std::unique_ptr<pd::net::Client> client;
  int next_pool = 0;
  std::uint64_t expected = 0;  ///< next result tag
  std::vector<double> submit_us;
};

class FleetStack final : public ServingStack {
 public:
  FleetStack(const Workload& w, const Model& model, const Pool& pool)
      : w_(w),
        pool_(pool),
        logs_(static_cast<std::size_t>(w.streams)),
        cameras_(static_cast<std::size_t>(w.streams)) {
    pd::net::ServiceOptions so;
    so.max_clients = 4;
    so.runtime = runtime_options(w, model);
    so.result_queue_capacity = std::max<std::size_t>(64, 2 * queue_capacity(w));
    pd::fleet::RouterOptions ro;
    ro.max_clients = w.streams;
    // A quarter second of one shard's load plus every closed-loop window:
    // what a session holds while a shard's io thread is stalled.
    ro.buffer_bytes = router_buffer_bytes(
        pool, static_cast<int>(std::ceil(0.25 * w.rate_per_server())) +
                  w.window * w.streams);
    for (int i = 0; i < w.shards; ++i) {
      so.name = "shard" + std::to_string(i);
      shards_.push_back(
          std::make_unique<pd::net::DetectionService>(model.model, so));
      std::string error;
      if (!shards_.back()->start(&error)) {
        throw std::runtime_error("shard start failed: " + error);
      }
      ro.backends.push_back({"127.0.0.1", shards_.back()->port()});
    }
    router_ = std::make_unique<pd::fleet::ShardRouter>(ro);
    std::string error;
    if (!router_->start(&error) || !wait_backends(*router_, w.shards)) {
      throw std::runtime_error("router start failed: " + error);
    }
    // Camera names chosen so the ring places the same number of cameras on
    // every shard (placement is a pure function of the name).
    const pd::fleet::HashRing ring(w.shards, ro.vnodes);
    std::vector<int> per_shard(static_cast<std::size_t>(w.shards), 0);
    const int quota = (w.streams + w.shards - 1) / w.shards;
    int placed = 0;
    for (int i = 0; placed < w.streams; ++i) {
      const std::string name = "cam" + std::to_string(i);
      const int shard = ring.lookup(pd::fleet::HashRing::key_for(name));
      if (per_shard[static_cast<std::size_t>(shard)] >= quota) continue;
      ++per_shard[static_cast<std::size_t>(shard)];
      pd::net::ClientOptions co;
      co.port = router_->port();
      co.name = name;
      co.reconnect_attempts = 0;  // a lost link is a failure, not a retry
      Camera& cam = cameras_[static_cast<std::size_t>(placed++)];
      cam.client = std::make_unique<pd::net::Client>(co);
      if (!cam.client->connect()) {
        throw std::runtime_error("camera connect failed: " +
                                 cam.client->last_error());
      }
    }
    run_phase(kWarmup, /*open=*/false, 0.0, w.warmup_frames);
  }

  ~FleetStack() override { stop(); }

  void open_loop(double seconds, Phase phase) override {
    run_phase(phase, true, seconds, 0);
  }
  void closed_loop(double seconds, Phase phase) override {
    run_phase(phase, false, seconds, 0);
  }

  void stop() override {
    for (Camera& cam : cameras_) {
      if (cam.client) cam.client->disconnect();
    }
    if (router_) router_->stop();
    for (auto& shard : shards_) shard->stop();
  }

  StackStats stats() override {
    StackStats out;
    for (auto& shard : shards_) {
      const pd::net::ServiceStats s = shard->stats();
      out.engine_workers += w_.workers;
      out.runtime_dropped += s.runtime.dropped_queue + s.runtime.dropped_deadline;
      out.runtime_errors += s.runtime.errors;
      out.score_fill += s.runtime.score_fill / static_cast<double>(shards_.size());
      out.guard_verdicts += s.runtime.guard_unusable + s.runtime.guard_soft;
    }
    for (Camera& cam : cameras_) {
      out.results_missed += cam.client->results_missed();
      out.protocol_errors += cam.client->protocol_errors();
      out.reconnects += cam.client->reconnects();
      out.client_submit_us.insert(out.client_submit_us.end(),
                                  cam.submit_us.begin(), cam.submit_us.end());
    }
    const pd::fleet::RouterStats r = router_->stats();
    out.frames_shed = r.frames_shed_no_backend + r.frames_shed_draining +
                      r.frames_shed_backpressure + r.results_shed_backend +
                      r.results_shed_client;
    out.duplicates_suppressed = r.duplicates_suppressed;
    out.fleet_bytes_per_frame =
        r.frames_forwarded > 0
            ? static_cast<double>(r.bytes_in + r.bytes_out) /
                  static_cast<double>(r.frames_forwarded)
            : 0.0;
    return out;
  }

  std::vector<RecordLog>& logs() override { return logs_; }

 private:
  /// Every camera thread runs one phase: open loop (frames due at
  /// rate/streams each, cameras interleaved) or closed loop (window frames
  /// in flight; `max_frames` > 0 bounds the count instead of time).
  void run_phase(Phase phase, bool open, double seconds, int max_frames) {
    const std::uint64_t t0 = now_ns() + 2'000'000;
    const std::uint64_t end =
        max_frames > 0 ? ~0ull : t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < w_.streams; ++c) {
      threads.emplace_back([=, this] {
        drive(c, phase, open, t0, end, max_frames);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  void drive(int c, Phase phase, bool open, std::uint64_t t0,
             std::uint64_t end, int max_frames) {
    Camera& cam = cameras_[static_cast<std::size_t>(c)];
    const RecordLog& log = logs_[static_cast<std::size_t>(c)];
    const double period = 1e9 * static_cast<double>(w_.streams) / w_.rate_fps;
    const double offset = 1e9 * static_cast<double>(c) / w_.rate_fps;
    std::uint64_t give_up = 0;  ///< drain deadline, set when sending ends
    long sent = 0;
    sleep_until_ns(t0);
    for (;;) {
      const std::uint64_t now = now_ns();
      const std::uint64_t outstanding = log.size() - cam.expected;
      const std::uint64_t due =
          t0 + static_cast<std::uint64_t>(offset +
                                          static_cast<double>(sent) * period);
      const bool may_send =
          max_frames > 0 ? sent < max_frames : (open ? due : now) < end;
      if (may_send) {
        const bool ready =
            open ? now >= due
                 : outstanding < static_cast<std::uint64_t>(w_.window);
        if (ready) {
          ++sent;
          if (!send(c, open ? due : now, phase)) break;  // link lost
          continue;
        }
        if (outstanding == 0) {  // open loop, nothing to read until due
          sleep_until_ns(due);
          continue;
        }
      } else {
        if (outstanding == 0) break;
        if (give_up == 0) give_up = now + 10'000'000'000ull;
        if (now >= give_up) break;  // the rest is missed
      }
      // Read until the next frame is due (open loop), a slot frees (closed
      // loop) or the drain gives up.
      std::uint64_t until = give_up;
      if (may_send) until = open ? due : now + 10'000'000'000ull;
      const double wait_ms =
          static_cast<double>(until > now ? until - now : 0) / 1e6;
      pd::net::wire::Result result;
      bool got = false;
      {
        Span wait("net.next_result", frame_id(c, cam.expected));
        got = cam.client->next_result(result, wait_ms);
      }
      if (got) {
        receive(c, result);
      } else if (!cam.client->connected()) {
        break;  // link lost: everything outstanding is missed
      }
    }
  }

  bool send(int c, std::uint64_t due, Phase phase) {
    Camera& cam = cameras_[static_cast<std::size_t>(c)];
    RecordLog& log = logs_[static_cast<std::size_t>(c)];
    const std::size_t index = log.size();
    FrameRecord& rec = log.append();
    rec.pool = cam.next_pool;
    cam.next_pool = (cam.next_pool + 1) % pool_.frames_per_stream();
    rec.phase = phase;
    rec.scheduled_ns = due;
    rec.root_span = Tracer::instance().reserve();
    Span send_span("gen.send", frame_id(c, index), rec.root_span);
    rec.sent_ns = now_ns();
    bool ok = false;
    {
      Span call("net.client_submit");
      ok = cam.client->submit(pool_.at(c, rec.pool).image);
    }
    rec.sent_end_ns = now_ns();
    if (phase != kWarmup) {
      cam.submit_us.push_back(
          static_cast<double>(rec.sent_end_ns - rec.sent_ns) / 1e3);
    }
    if (!ok) rec.outcome = Outcome::kError;
    return ok;
  }

  void receive(int c, const pd::net::wire::Result& r) {
    Camera& cam = cameras_[static_cast<std::size_t>(c)];
    RecordLog& log = logs_[static_cast<std::size_t>(c)];
    const std::uint64_t done = now_ns();
    if (r.tag >= log.size() || r.tag < cam.expected) {
      // A duplicate or a result from the past: the frame it names was
      // already settled, so mark that frame as disordered.
      if (r.tag < log.size()) log[r.tag].outcome = Outcome::kMismatch;
      return;
    }
    // Forward gaps are frames the stack shed: never delivered.
    for (std::uint64_t t = cam.expected; t < r.tag; ++t) {
      log[t].outcome = Outcome::kMissed;
    }
    cam.expected = r.tag + 1;
    FrameRecord& rec = log[r.tag];
    rec.done_ns = done;
    Span deliver("net.result", frame_id(c, r.tag), rec.root_span);
    cam.client->last_timeline(rec.timing);
    rec.outcome = outcome_for(r.status);
    if (rec.outcome == Outcome::kOk) {
      rec.outcome = judge(pool_, c, rec, r.detections, true);
    }
  }

  const Workload& w_;
  const Pool& pool_;
  std::vector<RecordLog> logs_;  ///< per camera
  std::vector<Camera> cameras_;
  std::vector<std::unique_ptr<pd::net::DetectionService>> shards_;
  std::unique_ptr<pd::fleet::ShardRouter> router_;
};

}  // namespace

std::unique_ptr<ServingStack> make_stack(const Workload& w, const Model& model,
                                         const Pool& pool) {
  if (w.fleet) return std::make_unique<FleetStack>(w, model, pool);
  return std::make_unique<InprocStack>(w, model, pool);
}

NetLedger probe_net(const Workload& w, const Model& model, const Pool& pool,
                    double budget_s) {
  NetLedger out;
  pd::net::ServiceOptions so;
  so.name = "probe";
  so.runtime = runtime_options(w, model);
  so.runtime.workers = 1;
  pd::net::DetectionService service(model.model, so);
  pd::fleet::RouterOptions ro;
  ro.max_clients = 2;
  ro.buffer_bytes = router_buffer_bytes(pool, 1);
  if (!service.start()) {
    out.failures = 1;
    return out;
  }
  ro.backends.push_back({"127.0.0.1", service.port()});
  pd::fleet::ShardRouter router(ro);
  if (!router.start() || !wait_backends(router, 1)) {
    out.failures = 1;
    return out;
  }
  pd::net::ClientOptions co;
  co.reconnect_attempts = 0;
  co.name = "probe-direct";
  co.port = service.port();
  pd::net::Client direct(co);
  co.name = "probe-routed";
  co.port = router.port();
  pd::net::Client routed(co);
  if (!direct.connect() || !routed.connect()) {
    out.failures = 1;
    return out;
  }

  // One frame in flight; `latency` == nullptr for the warm-up frame.
  const auto round_trip = [&](pd::net::Client& client, const PoolFrame& frame,
                              std::vector<double>* latency, bool hops) {
    Span span(hops ? "probe.direct" : "probe.routed");
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    {
      Span call("net.client_submit");
      ok = client.submit(frame.image);
    }
    const double submit_us = static_cast<double>(now_ns() - t0) / 1e3;
    pd::net::wire::Result r;
    bool got = false;
    if (ok) {
      Span wait("net.next_result");
      got = client.next_result(r, 30000.0);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (!got || r.status != FrameStatus::kOk ||
        !same_boxes(r.detections, frame.reference)) {
      ++out.failures;
      return;
    }
    if (latency == nullptr) return;
    latency->push_back(ms);
    out.stats.client_submit_us.push_back(submit_us);
    pd::obs::FrameTimeline t;
    if (hops && client.last_timeline(t) && t.wire_send_ns > t.service_recv_ns &&
        t.service_recv_ns > 0) {
      const double residency =
          static_cast<double>(t.wire_send_ns - t.service_recv_ns) / 1e6;
      out.residency_ms.push_back(residency);
      out.transit_ms.push_back(ms - residency);
    }
  };

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  const int frames = w.streams * pool.frames_per_stream();
  for (int i = 0; i <= frames && (i < 3 || now_ns() < deadline); ++i) {
    const PoolFrame& frame =
        pool.at(i % w.streams, (i / w.streams) % pool.frames_per_stream());
    const bool warm = i == 0;
    round_trip(direct, frame, warm ? nullptr : &out.direct_ms, true);
    round_trip(routed, frame, warm ? nullptr : &out.routed_ms, false);
    ++out.frames;
  }

  const pd::fleet::RouterStats r = router.stats();
  out.stats.frames_shed = r.frames_shed_no_backend + r.frames_shed_draining +
                          r.frames_shed_backpressure + r.results_shed_backend +
                          r.results_shed_client;
  out.stats.duplicates_suppressed = r.duplicates_suppressed;
  out.stats.fleet_bytes_per_frame =
      r.frames_forwarded > 0 ? static_cast<double>(r.bytes_in + r.bytes_out) /
                                   static_cast<double>(r.frames_forwarded)
                             : 0.0;
  for (const pd::net::Client* c : {&direct, &routed}) {
    out.stats.results_missed += c->results_missed();
    out.stats.protocol_errors += c->protocol_errors();
    out.stats.reconnects += c->reconnects();
  }
  direct.disconnect();
  routed.disconnect();
  router.stop();
  service.stop();
  return out;
}

}  // namespace perfbench
