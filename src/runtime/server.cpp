#include "src/runtime/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/fault/injector.hpp"
#include "src/hwsim/score_backend.hpp"
#include "src/obs/report.hpp"
#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"

namespace pdet::runtime {
namespace {

// Flight-recorder dumps written per server; later triggers only count.
constexpr int kMaxFlightDumps = 4;

std::vector<double> latency_bounds() {
  const std::span<const double> bounds = obs::default_latency_bounds_ms();
  return {bounds.begin(), bounds.end()};
}

}  // namespace

DetectionServer::DetectionServer(svm::LinearModel model, ServerOptions options)
    : options_(options),
      model_(std::move(model)),
      rung_options_{Scheduler::degraded_options(options.multiscale, 0),
                    Scheduler::degraded_options(options.multiscale, 1),
                    Scheduler::degraded_options(options.multiscale, 2)},
      queue_(options_.queue_capacity, options_.backpressure),
      scheduler_(options_.scheduler, options_.queue_capacity),
      flight_(options_.timeline_depth > 0 ? options_.timeline_depth : 1),
      wait_hist_(latency_bounds()),
      service_hist_(latency_bounds()),
      total_hist_(latency_bounds()) {
  PDET_REQUIRE(options_.workers >= 1);
  PDET_REQUIRE(options_.engine_threads >= 1);
  PDET_REQUIRE(options_.max_frame_faults >= 1);
  PDET_REQUIRE(options_.recovery_frames >= 0);
  PDET_REQUIRE(options_.stall_timeout_ms >= 0.0);
  options_.hog.validate();
  PDET_REQUIRE(model_.dimension() ==
               static_cast<std::size_t>(options_.hog.descriptor_size()));

  // One scoring backend serves every pooled and tiled engine, which call it
  // directly from their own threads. hwsim is the offload case: a single
  // modeled device, which only the server (not a bare engine) knows how to
  // construct and share; its device mutex serializes the callers.
  const score::BackendKind kind = score::resolve(options_.backend);
  if (kind == score::BackendKind::kHwsim) {
    score_backend_ = std::make_unique<hwsim::HwsimScoreBackend>();
  } else {
    score_backend_ = score::make_backend(kind);
  }
}

DetectionServer::~DetectionServer() { stop(); }

DetectionServer::Stream::Stream(int id, std::string name,
                                ResultCallback on_result,
                                const ServerOptions& options,
                                score::ScoringBackend* scorer)
    : context(id, std::move(name),
              [this](const StreamResult& r) { delivered(r); }),
      callback(std::move(on_result)),
      tracked(options.guard.enabled || options.tiling.enabled),
      camera(options.guard.camera),
      // The tile engines score through the server's one backend, so backend
      // stats cover the tiled path too.
      tiles({.plan = options.tiling.plan,
             .threads = options.engine_threads,
             .engine = {.threads = 1, .scorer = scorer}}),
      roi(options.tiling.roi) {}

void DetectionServer::Stream::delivered(const StreamResult& result) {
  if (tracked && (result.status == FrameStatus::kOk ||
                  result.status == FrameStatus::kDegraded)) {
    std::lock_guard<std::mutex> lock(track_mutex);
    tracker.update(result.detections);
    coast = 0;
  }
  if (callback) callback(result);
}

int DetectionServer::add_stream(std::string name, ResultCallback on_result) {
  PDET_REQUIRE(!started_);
  const int id = stream_count();
  streams_.push_back(std::make_unique<Stream>(
      id, std::move(name), std::move(on_result), options_,
      score_backend_.get()));
  return id;
}

void DetectionServer::start() {
  PDET_REQUIRE(!started_);
  PDET_REQUIRE(!streams_.empty());
  started_ = true;
  running_.store(true, std::memory_order_release);
  started_at_ = Clock::now();
  if (options_.timeline_depth > 0) {
    for (const auto& s : streams_) {
      flight_.attach_stream(s->context.id(), s->context.name());
    }
  }
  for (int i = 0; i < options_.workers; ++i) spawn_worker();
  if (options_.stall_timeout_ms > 0.0) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

void DetectionServer::spawn_worker() {
  // Called from start() (single-threaded) and from the watchdog (the only
  // post-start appender). Deques keep existing workers' pointers stable.
  engines_.emplace_back(detect::EngineOptions{
      .threads = options_.engine_threads, .scorer = score_backend_.get()});
  worker_states_.emplace_back();
  WorkerState* state = &worker_states_.back();
  detect::DetectionEngine* engine = &engines_.back();
  state->thread = std::thread([this, state, engine] {
    worker_main(state, engine);
  });
}

SubmitStatus DetectionServer::submit(int stream, const imgproc::ImageF& frame,
                                     std::uint64_t trace_tag,
                                     std::uint64_t recv_ns) {
  PDET_REQUIRE(started_);
  PDET_REQUIRE(stream >= 0 && stream < stream_count());
  Stream& s = *streams_[static_cast<std::size_t>(stream)];
  FrameTask& task = s.task;

  task.stream = stream;
  task.sequence = s.context.next_sequence();
  task.faults = 0;
  task.frame = frame;  // copy into the reused per-stream slot
  task.timing = obs::FrameTimeline{};
  task.timing.trace_id = trace_tag;
  task.timing.stream = stream;
  task.timing.sequence = task.sequence;
  task.timing.service_recv_ns =
      recv_ns != 0 ? recv_ns : obs::timeline_now_ns();
  task.quality_reasons = 0;

  // Input-integrity gate (DESIGN §14): inspect the pixels before they cost a
  // queue slot or an engine. Runs on the producer thread — single producer
  // per stream, so the gate and camera machine need no lock.
  auto quality = guard::FrameQuality::kHealthy;
  bool quarantined_now = false;
  if (options_.guard.enabled) {
    const guard::GuardVerdict& verdict = s.gate.inspect(task.frame);
    quality = verdict.quality;
    task.timing.gate_ns = obs::timeline_now_ns();
    task.timing.input_quality = static_cast<std::uint8_t>(verdict.quality);
    task.quality_reasons = verdict.reasons;
    const guard::CameraState before = s.camera.state();
    const guard::CameraState after = s.camera.observe(verdict.quality);
    task.timing.camera_state = static_cast<std::uint8_t>(after);
    quarantined_now =
        after == guard::CameraState::kQuarantined && before != after;
    if (after != before) {
      s.camera_state.store(static_cast<std::uint8_t>(after),
                           std::memory_order_relaxed);
      util::log_warn("runtime: camera %d %s -> %s (%s)", stream,
                     guard::to_string(before), guard::to_string(after),
                     guard::reasons_to_string(verdict.reasons).c_str());
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (after == guard::CameraState::kQuarantined)
        ++counters_.camera_quarantines;
      if (before == guard::CameraState::kQuarantined)
        ++counters_.camera_recoveries;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.submitted;
    if (quality == guard::FrameQuality::kDegraded) ++counters_.guard_soft;
  }
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    ++in_flight_;
  }
  if (quality == guard::FrameQuality::kUnusable) {
    // Short-circuit: the frame never reaches the queue (queue_admit stays
    // 0). It still owes its stream exactly one in-order delivery — status
    // kDegradedInput, with the tracker's bounded coast predictions in place
    // of garbage pixels. Only an unusable verdict can enter quarantine.
    deliver_unprocessed(task, FrameStatus::kDegradedInput, scheduler_.level(),
                        s.dropped);
    if (quarantined_now) flight_trigger("camera quarantined");
    return SubmitStatus::kAccepted;
  }
  task.timing.queue_admit_ns = obs::timeline_now_ns();

  switch (queue_.push(task, &s.evicted)) {
    case PushResult::kAccepted:
      return SubmitStatus::kAccepted;
    case PushResult::kReplacedOldest:
      // The evicted frame (of any stream) still owes its stream a delivery:
      // account it as a queue drop, in order, from this producer thread.
      deliver_unprocessed(s.evicted, FrameStatus::kDroppedQueue,
                          scheduler_.level(), s.dropped);
      return SubmitStatus::kAcceptedEvicted;
    case PushResult::kRejected:
    case PushResult::kClosed:
      task.timing.queue_admit_ns = 0;  // never admitted
      deliver_unprocessed(task, FrameStatus::kDroppedQueue, scheduler_.level(),
                          s.dropped);
      return SubmitStatus::kRejected;
  }
  PDET_REQUIRE(false);
  return SubmitStatus::kRejected;
}

void DetectionServer::worker_main(WorkerState* state,
                                  detect::DetectionEngine* engine) {
  // Workers record spans and metrics directly — the obs layer keeps a buffer
  // per thread and merges at export. So do the engine's level lanes: each
  // level records once, so totals do not depend on the lane count.
  FrameTask task;       // reused: pop() swaps queue slots through it
  StreamResult result;  // reused: detection vector stays warm
  while (queue_.pop(task)) {
    PDET_TRACE_SCOPE("runtime/frame");
    task.timing.schedule_ns = obs::timeline_now_ns();
    // Pressure counts the frame in hand too: it was popped an instant ago,
    // and without it a queue of capacity C could never read more than
    // (C-1)/C full here, leaving small queues unable to reach the watermark.
    const AdmitDecision decision = scheduler_.admit(
        queue_.size() + 1, frame_durations(task.timing).queue_wait_ms);
    if (decision.skip) {
      deliver_unprocessed(task, FrameStatus::kDroppedDeadline, decision.level,
                          result);
      continue;
    }
    result.stream = task.stream;
    result.sequence = task.sequence;
    result.status =
        decision.level == 0 ? FrameStatus::kOk : FrameStatus::kDegraded;
    result.degrade_level = decision.level;
    result.quality_reasons = task.quality_reasons;

    // Heartbeat for the watchdog: this worker owns one frame until `busy`
    // clears. Published under the state mutex (the exactly-once arbiter —
    // see WorkerState), with the frame's header so a watchdog delivery
    // carries the frame's own timeline, reasons and rung.
    task.timing.engine_start_ns = obs::timeline_now_ns();
    task.timing.engine_end_ns = 0;  // clears a retried frame's last attempt
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->busy = true;
      state->frame = task;  // the header only; the pixels stay here
      state->rung = decision.level;
    }

    bool faulted = false;
    try {
      if (fault::armed()) {
        const fault::Decision stall = fault::check("runtime.worker.stall");
        if (stall.fire) fault::sleep_ms(stall.param != 0 ? stall.param : 50);
        if (fault::check("runtime.engine.fault").fire) {
          throw std::runtime_error("injected engine fault");
        }
      }
      if (options_.tiling.enabled) {
        process_tiled(task, decision.level, result);
      } else {
        const detect::MultiscaleResult& detected =
            engine->process(task.frame, options_.hog, model_,
                            rung_options_[static_cast<std::size_t>(decision.level)]);
        result.detections = detected.detections;  // copy-assign, capacity reuse
        // Per-level engine time, folded into the timeline's fixed slots
        // (levels beyond the last slot accumulate there).
        task.timing.level_count = 0;
        for (std::size_t i = 0;
             i < detected.per_level.size(); ++i) {
          const std::size_t slot =
              std::min(i, obs::kTimelineMaxLevels - 1);
          const auto us = static_cast<std::uint32_t>(
              detected.per_level[i].ms * 1e3);
          if (slot == i) {
            task.timing.level_us[slot] = us;
            ++task.timing.level_count;
          } else {
            task.timing.level_us[slot] += us;
          }
        }
      }
    } catch (const std::exception& e) {
      faulted = true;
      util::log_warn("runtime: engine fault on stream %d seq %llu: %s",
                     task.stream,
                     static_cast<unsigned long long>(task.sequence), e.what());
    }
    task.timing.engine_end_ns = obs::timeline_now_ns();
    result.timing = task.timing;

    bool abandoned = false;
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->busy = false;
      abandoned = state->quarantined;
    }
    if (abandoned) {
      // The watchdog already delivered this frame as an error and spawned a
      // replacement worker; deliver nothing and retire (thread joined at
      // stop()). The engine stays quarantined — never reused.
      return;
    }
    if (faulted) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.worker_faults;
        clean_needed_ = options_.recovery_frames;
      }
      handle_fault(task, result);
      continue;
    }
    finish(result);
  }
}

void DetectionServer::process_tiled(FrameTask& task, int rung,
                                    StreamResult& result) {
  Stream& s = *streams_[static_cast<std::size_t>(task.stream)];
  std::lock_guard<std::mutex> lock(s.tile_mutex);
  // Deadline pressure degrades *spatially* on the tiled path: every rung
  // keeps the full-quality scale ladder (rung_options_[0]) and sheds load by
  // detecting fewer tiles instead — hot (tracker-predicted) tiles every
  // frame, cold tiles round-robin under the rung's budget, every tile within
  // the scheduler's hard staleness bound. ROI mode engages on the rungs
  // whose budget is below the full tile set.
  const tile::TilePlan& plan = s.tiles.plan();
  const int tiles = plan.built() ? plan.tile_count() : 0;  // built lazily
  const int budget =
      tiles > 0 ? tile::RoiScheduler::rung_budget(tiles, rung) : 0;
  const bool roi_mode = options_.tiling.roi.max_age > 0 && budget < tiles;
  const std::vector<int>* selection = nullptr;
  if (roi_mode) {
    {
      std::lock_guard<std::mutex> track(s.track_mutex);
      s.tracker.predict_boxes(1, s.predicted);
    }
    s.roi.plan_frame(plan, s.tiles.ages(), s.predicted, budget, s.selection);
    selection = &s.selection;
  }
  const tile::TiledResult& tiled = s.tiles.process(
      task.frame, options_.hog, model_, rung_options_[0], selection);
  result.detections = tiled.detections;  // copy-assign, capacity reuse
  task.timing.tiles_planned = static_cast<std::uint8_t>(
      std::min(tiled.tiles_total, 255));
  task.timing.tiles_detected = static_cast<std::uint8_t>(
      std::min(tiled.tiles_detected, 255));
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  counters_.tiles_detected += tiled.tiles_detected;
  counters_.tiles_reused += tiled.tiles_reused;
  if (roi_mode) ++counters_.roi_frames;
  counters_.max_tile_age = std::max(counters_.max_tile_age, tiled.max_age);
}

void DetectionServer::handle_fault(FrameTask& task, StreamResult& result) {
  ++task.faults;
  bool poisoned = false;
  if (task.faults < options_.max_frame_faults) {
    // Retry on another engine (any worker may pick it up; a transient
    // engine-state fault won't repeat there). try_push, not push: workers
    // are the queue's consumers, so a blocking push could deadlock. The
    // frame keeps its receive stamp — the deadline budget covers retries.
    FrameTask evicted;
    switch (queue_.try_push(task, &evicted)) {
      case PushResult::kAccepted:
        return;
      case PushResult::kReplacedOldest: {
        StreamResult dropped;
        deliver_unprocessed(evicted, FrameStatus::kDroppedQueue,
                            scheduler_.level(), dropped);
        return;
      }
      case PushResult::kRejected:
      case PushResult::kClosed:
        // No room (or shutting down) for a retry: fail the frame now rather
        // than hold up the worker. Falls through to the error delivery.
        break;
    }
  } else {
    // Poison: this frame has faulted max_frame_faults distinct attempts.
    poisoned = true;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.poison_frames;
    util::log_warn("runtime: poison frame stream %d seq %llu after %d faults",
                   task.stream, static_cast<unsigned long long>(task.sequence),
                   task.faults);
  }
  deliver_unprocessed(task, FrameStatus::kError, result.degrade_level, result);
  // Trigger after the delivery so the poison frame's own timeline is already
  // in the ring when the dump is written.
  if (poisoned) flight_trigger("poison frame");
}

void DetectionServer::watchdog_main() {
  const auto poll = std::chrono::duration<double, std::milli>(
      options_.watchdog_poll_ms);
  FrameHeader frame;
  StreamResult error;
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    // Only the watchdog appends after start(), so the size read is stable;
    // per-element state is guarded by each WorkerState's own mutex.
    const std::size_t n = worker_states_.size();
    for (std::size_t i = 0; i < n; ++i) {
      WorkerState& state = worker_states_[i];
      int rung = 0;
      double busy_ms = 0.0;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (state.quarantined || !state.busy) continue;
        // Busy time so far: the frame's service time if it completed now.
        frame = state.frame;
        frame.timing.complete_ns = obs::timeline_now_ns();
        busy_ms = frame_durations(frame.timing).service_ms;
        if (busy_ms < options_.stall_timeout_ms) continue;
        // Quarantine while busy: the worker will see the flag when it
        // clears busy under this mutex, and deliver nothing.
        state.quarantined = true;
        rung = state.rung;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.worker_stalls;
        ++counters_.workers_replaced;
        clean_needed_ = options_.recovery_frames;
      }
      util::log_warn(
          "runtime: watchdog quarantined stalled worker %zu "
          "(stream %d seq %llu, busy %.1f ms); spawning replacement",
          i, frame.stream, static_cast<unsigned long long>(frame.sequence),
          busy_ms);
      // The hung frame's header as of engine start: its trace id, hop
      // stamps, gate verdict and rung, so the dump shows where it stalled.
      deliver_unprocessed(frame, FrameStatus::kError, rung, error);
      spawn_worker();
      flight_trigger("worker quarantine");
    }
  }
}

void DetectionServer::deliver_unprocessed(const FrameHeader& frame,
                                          FrameStatus status, int rung,
                                          StreamResult& out) {
  out.stream = frame.stream;
  out.sequence = frame.sequence;
  out.status = status;
  out.degrade_level = rung;
  out.timing = frame.timing;
  out.quality_reasons = frame.quality_reasons;
  out.detections.clear();
  if (status == FrameStatus::kDegradedInput) {
    Stream& s = *streams_[static_cast<std::size_t>(frame.stream)];
    std::lock_guard<std::mutex> lock(s.track_mutex);
    ++s.coast;
    // Coasted past the credible horizon: admit the view is gone.
    if (s.coast <= s.tracker.options().max_coast) {
      s.tracker.predict_boxes(s.coast, out.detections);
    }
  }
  finish(out);
}

void DetectionServer::finish(StreamResult& result) {
  // Finalize the frame's timeline: outcome + completion stamp, and the
  // durations read off it. deliver is stamped by the stream context,
  // wire_send and the client_* hops downstream.
  result.timing.stream = result.stream;
  result.timing.sequence = result.sequence;
  result.timing.status = static_cast<std::uint8_t>(result.status);
  result.timing.degrade_level = static_cast<std::uint8_t>(result.degrade_level);
  result.timing.complete_ns = obs::timeline_now_ns();
  const FrameDurations durations = frame_durations(result.timing);
  result.queue_wait_ms = durations.queue_wait_ms;
  result.service_ms = durations.service_ms;
  result.total_ms = durations.total_ms;
  // The timeline is the single source for the gate verdict bytes (stamped at
  // submit); mirror them onto the result so every delivery path — worker,
  // drop, watchdog — reports consistently.
  result.input_quality = result.timing.input_quality;
  result.camera_state = result.timing.camera_state;
  // Account before delivering: an observer who has seen a result (a remote
  // client querying stats right after its last frame, say) must never find
  // the counters lagging behind it — the exactly-once accounting identity
  // (submitted == completed + dropped + errors) holds at delivery time.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (result.status) {
      case FrameStatus::kOk:
        ++counters_.ok;
        ++counters_.completed;
        break;
      case FrameStatus::kDegraded:
        ++counters_.degraded;
        ++counters_.completed;
        break;
      case FrameStatus::kDroppedQueue:
        ++counters_.dropped_queue;
        break;
      case FrameStatus::kDroppedDeadline:
        ++counters_.dropped_deadline;
        break;
      case FrameStatus::kError:
        ++counters_.errors;
        break;
      case FrameStatus::kDegradedInput:
        ++counters_.guard_unusable;
        break;
    }
    if (result.status == FrameStatus::kOk ||
        result.status == FrameStatus::kDegraded) {
      wait_hist_.record(result.queue_wait_ms);
      service_hist_.record(result.service_ms);
      total_hist_.record(result.total_ms);
      if (clean_needed_ > 0) --clean_needed_;
    } else if (result.status == FrameStatus::kDroppedDeadline) {
      wait_hist_.record(result.queue_wait_ms);
    }
  }
  // Record the timeline at completion, before delivering, for the same
  // reason as the counters above: a telemetry query racing the delivery
  // must find every result it has seen already in the ring.
  if (options_.timeline_depth > 0) flight_.record(result.timing);
  streams_[static_cast<std::size_t>(result.stream)]->context.deliver(result);
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    --in_flight_;
  }
  drain_cv_.notify_all();
  // Health edge trigger: the first result that finds the server out of
  // kHealthy dumps the flight recorder (the frames that led up to the fault
  // are exactly what the rings hold). Draining is operator-initiated, not a
  // fault — no dump on stop().
  const HealthState h = health();
  if (h == HealthState::kDegraded) {
    if (!was_unhealthy_.exchange(true, std::memory_order_relaxed)) {
      flight_trigger("health left healthy");
    }
  } else if (h == HealthState::kHealthy) {
    was_unhealthy_.store(false, std::memory_order_relaxed);
  }
}

void DetectionServer::flight_trigger(const char* reason) {
  if (options_.timeline_depth == 0) return;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.flight_triggers;
  }
  util::log_warn("runtime: flight recorder triggered (%s)", reason);
  if (options_.flight_dump_path.empty()) return;
  const int n = flight_dumps_written_.fetch_add(1, std::memory_order_relaxed);
  if (n >= kMaxFlightDumps) return;
  const std::string base =
      options_.flight_dump_path + util::format("-%d", n);
  std::string text = util::format("trigger: %s\n", reason);
  text += flight_.to_text();
  obs::write_file(base + ".trace.json", flight_.to_chrome_json());
  obs::write_file(base + ".txt", text);
}

void DetectionServer::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void DetectionServer::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  // Join the watchdog before touching the worker containers: it is the only
  // thread that appends to them after start().
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  queue_.close();  // workers drain the backlog, then their pop() returns false
  for (WorkerState& state : worker_states_) {
    if (state.thread.joinable()) state.thread.join();
  }
  wall_seconds_ = std::chrono::duration<double>(Clock::now() - started_at_).count();
  running_.store(false, std::memory_order_release);
  // The workers are gone; their engines' accounting is safe to aggregate
  // (quarantined engines included — their frames were real work).
  long long frames = 0;
  std::size_t bytes = 0;
  for (const detect::DetectionEngine& engine : engines_) {
    frames += engine.stats().frames;
    bytes += engine.stats().alloc_bytes;
  }
  // On the tiled path the pooled engines stayed cold; the per-stream tile
  // engines carry the real per-tile workspace accounting (and are empty
  // otherwise).
  for (const auto& s : streams_) {
    const tile::TileStats t = s->tiles.stats();
    frames += t.engine_frames;
    bytes += t.alloc_bytes;
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  counters_.engine_frames = frames;
  counters_.engine_alloc_bytes = bytes;
}

HealthState DetectionServer::health() const {
  if (draining_.load(std::memory_order_acquire)) return HealthState::kDraining;
  // A quarantined camera degrades serving health for as long as it lasts —
  // the fleet is down one input, even though every frame is still answered.
  for (const auto& s : streams_) {
    if (s->camera_state.load(std::memory_order_relaxed) ==
        static_cast<std::uint8_t>(guard::CameraState::kQuarantined)) {
      return HealthState::kDegraded;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return clean_needed_ > 0 ? HealthState::kDegraded : HealthState::kHealthy;
}

RuntimeStats DetectionServer::stats() const {
  RuntimeStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = counters_;
    out.queue_wait_ms = wait_hist_.summary();
    out.service_ms = service_hist_.summary();
    out.total_latency_ms = total_hist_.summary();
  }
  out.health = health();
  out.queue_depth = queue_.size();
  out.degrade_level = scheduler_.level();
  for (const auto& s : streams_) {
    const auto state = static_cast<guard::CameraState>(
        s->camera_state.load(std::memory_order_relaxed));
    if (state == guard::CameraState::kSuspect) ++out.cameras_suspect;
    if (state == guard::CameraState::kQuarantined) ++out.cameras_quarantined;
  }
  out.backend = score_backend_->kind();
  const score::BackendStats bs = score_backend_->stats();
  out.score_batches = bs.batches;
  out.score_windows = bs.windows;
  out.score_capacity = bs.capacity_sum;
  if (started_) {
    out.wall_seconds =
        running_.load(std::memory_order_acquire)
            ? std::chrono::duration<double>(Clock::now() - started_at_).count()
            : wall_seconds_;
  }
  out.aggregate_fps = out.wall_seconds > 0.0
                          ? static_cast<double>(out.completed) / out.wall_seconds
                          : 0.0;
  derive_stats(out);
  return out;
}

void DetectionServer::publish_metrics() {
  const RuntimeStats s = stats();
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  publish_stats(s, published_);
  obs::gauge_set("runtime.queue_wait_ms.p50", s.queue_wait_ms.p50);
  obs::gauge_set("runtime.queue_wait_ms.p99", s.queue_wait_ms.p99);
  obs::gauge_set("runtime.service_ms.p50", s.service_ms.p50);
  obs::gauge_set("runtime.service_ms.p99", s.service_ms.p99);
  obs::gauge_set("runtime.total_latency_ms.p50", s.total_latency_ms.p50);
  obs::gauge_set("runtime.total_latency_ms.p99", s.total_latency_ms.p99);
}

}  // namespace pdet::runtime
