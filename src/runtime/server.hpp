// Multi-stream detection server (pdet::runtime).
//
// The layer above detect::DetectionEngine: where the engine turns one frame
// into detections with zero steady-state allocation, the server turns N
// concurrent camera streams into N ordered result streams under an explicit
// throughput/latency budget. It is the software analogue of the paper's
// top-level claim — the accelerator sustains 60 fps because frames stream
// through fixed buffers with a bounded worst case — generalized to many
// cameras on a multicore host:
//
//   submit(stream, frame)                      N producers, one per camera
//        │ input gate (guard on), copy into the stream's task, sequence
//        ▼
//   BoundedQueue<FrameTask>                    fixed depth, backpressure
//        │ policy: block / drop-oldest / drop-newest
//        ▼
//   worker 0..M-1, each owning a warm          Scheduler consulted per frame:
//   DetectionEngine (the engine pool), or      deadline + degradation ladder
//   the stream's TileEngine (tiling on)
//        │
//        ▼
//   StreamContext per camera                   in-order delivery: every
//        ├─ stream tracker update (guard or    submitted frame, exactly once
//        │  tiling on; kOk/kDegraded only)
//        └─ ResultCallback(StreamResult)
//
// Each stream is one record built in add_stream: its StreamContext, its
// submit scratch, the gate and camera machine, the tile engine and ROI
// scheduler, and one detect::Tracker. The tracker is fed in exactly one
// place — the in-order delivery above — so it sees frames in capture order
// at any worker count; the tiled path reads it for ROI predictions and the
// gate for coast boxes. Its lock is the innermost one and is never held
// across engine work.
//
// Threading contract: one producer per stream (frames of a stream must be
// submitted in order; different streams submit concurrently), M internal
// workers, callbacks fire on worker/producer threads under the stream's
// delivery lock. Workers record obs spans/metrics directly (the obs layer is
// thread-safe; per-thread buffers merge at export) and stamp each frame's
// FrameTimeline at every hop, the frame's only clock: the scheduler's wait,
// the watchdog's busy time and every StreamResult's durations are read off
// it (frame_durations). The server still aggregates its own counters
// locally so stats() is one consistent snapshot, and publish_metrics()
// mirrors them into the registry.
// Fault containment (see DESIGN §9): a worker that throws delivers a
// per-frame kError result instead of dying; a frame is retried once on a
// different engine before being declared poison; a watchdog thread (enabled
// by ServerOptions::stall_timeout_ms) detects workers stuck inside one frame,
// delivers the hung frame's error with the frame's own timeline, quarantines
// the worker+engine and spawns a replacement. A health state machine
// (healthy/degraded/draining) summarizes recent faults for operators and
// remote clients.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/detect/engine.hpp"
#include "src/detect/tracker.hpp"
#include "src/guard/gate.hpp"
#include "src/guard/health.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeline.hpp"
#include "src/runtime/bounded_queue.hpp"
#include "src/runtime/scheduler.hpp"
#include "src/runtime/stats_table.hpp"
#include "src/runtime/stream.hpp"
#include "src/score/backend.hpp"
#include "src/svm/linear_svm.hpp"
#include "src/tile/engine.hpp"
#include "src/tile/roi.hpp"

namespace pdet::runtime {

/// Tiled UHD serving (DESIGN §13). When enabled, workers route every frame
/// through its stream's warm tile::TileEngine (ServerOptions::engine_threads
/// tile lanes) instead of their pooled untiled engine. Deadline pressure
/// degrades *spatially* rather than by thinning scales: on every rung whose
/// tile::RoiScheduler::rung_budget is below the plan's tile count, the ROI
/// scheduler picks the tiles from the stream tracker's predictions, so
/// tracked pedestrians keep full-rate coverage while the background ages at
/// a bounded rate.
struct TilingOptions {
  bool enabled = false;
  tile::TilePlanOptions plan;
  tile::RoiOptions roi;
};

/// Input-integrity gate (DESIGN §14). When enabled, every submitted frame
/// passes a per-stream guard::FrameGuard *before* scheduling: frames ruled
/// kUnusable never reach the engine — they short-circuit to an in-order
/// FrameStatus::kDegradedInput delivery whose detections are the stream
/// tracker's coast predictions (bounded by the tracker's max_coast), and a
/// per-stream guard::CameraHealth machine turns unusable runs into the
/// healthy/suspect/quarantined camera states surfaced in RuntimeStats, the
/// runtime.health ladder and the wire StatsReport.
struct InputGuardOptions {
  bool enabled = false;
  guard::CameraHealthOptions camera;
};

struct ServerOptions {
  int workers = 2;                 ///< engine pool size (one engine each)
  /// Lanes per engine: pyramid levels of a pooled engine, or tiles of a
  /// stream's tile engine when tiling is on.
  int engine_threads = 1;
  std::size_t queue_capacity = 8;  ///< shared frame queue depth
  BackpressurePolicy backpressure = BackpressurePolicy::kDropOldest;
  SchedulerOptions scheduler;      ///< deadlines + degradation ladder
  hog::HogParams hog;              ///< detector window/descriptor geometry
  detect::MultiscaleOptions multiscale;  ///< full-quality (rung 0) config
  TilingOptions tiling;            ///< UHD tiled pipeline (off by default)
  InputGuardOptions guard;         ///< frame-integrity gate (off by default)

  /// Which backend classifies windows (DESIGN §6.5). kAuto = scalar (= batch,
  /// the same CPU kernel); kHwsim builds the MACBAR offload model, one device
  /// that every worker calls directly and that serializes on its own mutex.
  score::BackendKind backend = score::BackendKind::kAuto;

  // Fault containment / self-healing knobs (DESIGN §9).
  /// Watchdog threshold: a worker busy on one frame for longer than this is
  /// declared stalled, its frame delivered as kError, the worker+engine
  /// quarantined and a replacement spawned. 0 disables the watchdog thread.
  double stall_timeout_ms = 0.0;
  double watchdog_poll_ms = 5.0;   ///< watchdog wake-up period
  /// A frame whose processing faults is retried on another engine until it
  /// has faulted this many times total; then it is poison — delivered as
  /// kError, never retried again.
  int max_frame_faults = 2;
  /// Clean completions required after the last fault before health returns
  /// from kDegraded to kHealthy.
  int recovery_frames = 16;

  // Flight recorder (DESIGN §10): last N frame timelines per stream, kept in
  // preallocated rings and dumped when a fault trigger fires.
  /// Timelines retained per stream; 0 disables recording (and dumps).
  std::size_t timeline_depth = 64;
  /// Dump file prefix; on each of the first 4 triggers the recorder writes
  /// `<prefix>-<n>.trace.json` (Chrome trace) and `<prefix>-<n>.txt`; later
  /// triggers only count. Empty = count triggers but write nothing.
  std::string flight_dump_path;
};

/// Outcome of one submit() call, from the producer's point of view. Every
/// submitted frame additionally receives exactly one in-order delivery.
enum class SubmitStatus {
  kAccepted,        ///< queued for processing
  kAcceptedEvicted, ///< queued; an older queued frame was dropped for it
  kRejected,        ///< refused (kDropNewest full queue, or server stopping)
};

class DetectionServer {
 public:
  /// The server owns a copy of the model; every worker engine classifies
  /// with it. Options are fixed at construction.
  DetectionServer(svm::LinearModel model, ServerOptions options);
  ~DetectionServer();

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// Register a camera stream. Must be called before start(). Returns the
  /// stream id used by submit(). The callback fires in frame order.
  int add_stream(std::string name, ResultCallback on_result);

  int stream_count() const { return static_cast<int>(streams_.size()); }

  /// Spawn the worker pool. Streams are frozen from this point.
  void start();

  /// Submit the next frame of `stream`. The frame is copied into a pooled
  /// slot (no steady-state allocation once slots are warm); the caller may
  /// reuse its buffer immediately. One producer per stream.
  ///
  /// `trace_tag` is the client's frame tag, carried through to the result's
  /// FrameTimeline so a remote frame's journey is reconstructable end to end
  /// (0 for local submitters). `recv_ns` is an optional upstream receive
  /// stamp (obs::timeline_now_ns domain) — the net service passes the moment
  /// it decoded the submit off the wire; 0 means "stamp at submit".
  SubmitStatus submit(int stream, const imgproc::ImageF& frame,
                      std::uint64_t trace_tag = 0, std::uint64_t recv_ns = 0);

  /// Block until every accepted frame has been delivered. Producers must
  /// have stopped submitting (or be blocked on a full kBlock queue, which
  /// drain() does not wait out).
  void drain();

  /// Drain remaining queued frames, stop the workers, join. Idempotent;
  /// called by the destructor if needed.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Current serving health (see HealthState). Thread-safe.
  HealthState health() const;

  RuntimeStats stats() const;

  /// The backend serving this server's engines (resolved, never kAuto).
  score::BackendKind backend() const { return score_backend_->kind(); }

  /// The per-stream timeline rings (the flight recorder). Always present;
  /// records only when ServerOptions::timeline_depth > 0.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  /// Write the stats table's runtime rows (publish_stats) and the latency
  /// histograms' p50/p99 gauges into the global obs registry. Counter
  /// deltas are tracked so repeated publishes accumulate correctly.
  /// Thread-safe: the delta state has its own lock and the registry itself
  /// is thread-safe, so a periodic publisher and a telemetry query may race.
  void publish_metrics();

 private:
  using Clock = std::chrono::steady_clock;

  /// Everything the server knows of a frame but its pixels: enough to
  /// deliver the frame without engine output from any thread holding a copy.
  struct FrameHeader {
    int stream = -1;
    std::uint64_t sequence = 0;
    int faults = 0;  ///< processing attempts that faulted (poison tracking)
    /// Carries trace_id + recv/admit stamps through the queue; the worker
    /// adds schedule/engine stamps. Fixed-size POD, so queue slots stay
    /// allocation-free.
    obs::FrameTimeline timing;
    /// Gate reason mask for frames the guard let through (timing carries the
    /// quality/camera bytes; the full mask doesn't fit there).
    std::uint32_t quality_reasons = 0;
  };

  /// A queued frame: its header plus the pixels only an engine needs.
  struct FrameTask : FrameHeader {
    imgproc::ImageF frame;
  };

  /// Per-worker heartbeat shared between the worker and the watchdog. The
  /// mutex is the exactly-once arbiter for a hung frame: the watchdog may
  /// quarantine (and take over delivery) only while `busy`; the worker
  /// clears `busy` and reads `quarantined` under the same lock, so exactly
  /// one side delivers the frame's result.
  struct WorkerState {
    std::mutex mutex;
    bool busy = false;         ///< between dequeue and delivery of one frame
    bool quarantined = false;  ///< watchdog took the frame; worker must exit
    FrameHeader frame;         ///< the frame in hand, stamped to engine start
    int rung = 0;              ///< the rung it runs at
    std::thread thread;
  };

  /// One camera stream: everything it owns, built in add_stream. The submit
  /// scratch, gate and camera machine are touched only by the stream's single
  /// producer; the tile engine, ROI scheduler and their buffers by the worker
  /// holding `tile_mutex` (two workers may carry frames of one stream). The
  /// tracker and coast count sit under `track_mutex`, the innermost lock,
  /// never held across engine work.
  struct Stream {
    Stream(int id, std::string name, ResultCallback on_result,
           const ServerOptions& options, score::ScoringBackend* scorer);

    /// The in-order delivery hook (under the context's delivery lock): feed
    /// the tracker a kOk/kDegraded result's detections, then the callback.
    void delivered(const StreamResult& result);

    StreamContext context;
    const ResultCallback callback;
    const bool tracked;  ///< guard or tiling on: the tracker is fed

    FrameTask task;        ///< submit scratch: the frame being submitted
    FrameTask evicted;     ///< drop-oldest out-param
    StreamResult dropped;  ///< deliveries made on the submit path

    guard::FrameGuard gate;
    guard::CameraHealth camera;
    /// Mirrors `camera` for lock-free reads by health()/stats().
    std::atomic<std::uint8_t> camera_state{0};

    std::mutex tile_mutex;
    tile::TileEngine tiles;
    tile::RoiScheduler roi;
    std::vector<detect::Detection> predicted;  ///< warm ROI prediction buffer
    std::vector<int> selection;                ///< warm tile selection

    std::mutex track_mutex;
    detect::Tracker tracker;
    int coast = 0;  ///< unusable frames submitted since the last detection
  };

  void spawn_worker();
  void worker_main(WorkerState* state, detect::DetectionEngine* engine);
  /// The tiled counterpart of the engine->process call in worker_main:
  /// predict, select tiles, detect into `result.detections`.
  void process_tiled(FrameTask& task, int rung, StreamResult& result);
  void watchdog_main();
  void handle_fault(FrameTask& task, StreamResult& result);
  /// Deliver a frame that carries no engine output, from its own header:
  /// stream, sequence, timeline and gate reasons. `rung` is the rung the
  /// frame ran (or would have run) at. A kDegradedInput delivery carries the
  /// stream tracker's coast predictions; every other status carries none.
  void deliver_unprocessed(const FrameHeader& frame, FrameStatus status,
                           int rung, StreamResult& out);
  void finish(StreamResult& result);
  /// Flight-recorder dump trigger (poison frame, quarantine, health left
  /// healthy). Counts the trigger; writes dump files when configured and
  /// under the cap. Call without locks held.
  void flight_trigger(const char* reason);

  const ServerOptions options_;
  const svm::LinearModel model_;
  /// The scoring backend shared by every pooled and tiled engine
  /// (constructed from ServerOptions::backend; hwsim builds the offload
  /// device here). Engines hold a pointer to it, so it is fixed for the
  /// server's lifetime.
  std::unique_ptr<score::ScoringBackend> score_backend_;
  /// Effective multiscale options per degradation rung, precomputed so a
  /// worker's per-frame scheduling path allocates nothing.
  std::array<detect::MultiscaleOptions, 3> rung_options_;

  BoundedQueue<FrameTask> queue_;
  Scheduler scheduler_;
  std::vector<std::unique_ptr<Stream>> streams_;
  // Deques for reference stability: the watchdog appends replacement
  // engines/workers while existing workers hold pointers into both. Only
  // the watchdog appends after start(); stop() joins the watchdog before
  // touching either container.
  std::deque<detect::DetectionEngine> engines_;
  std::deque<WorkerState> worker_states_;
  std::thread watchdog_;

  obs::FlightRecorder flight_;
  std::atomic<int> flight_dumps_written_{0};
  std::atomic<bool> was_unhealthy_{false};  ///< health-transition edge latch

  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<bool> draining_{false};
  Clock::time_point started_at_{};
  double wall_seconds_ = 0.0;  ///< fixed at stop()

  // In-flight accounting for drain(): frames accepted into the queue whose
  // delivery has not yet happened.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  long long in_flight_ = 0;

  // Worker-side measurements, aggregated under one lock (the per-frame cost
  // is three histogram records — negligible next to a multiscale detect).
  mutable std::mutex stats_mutex_;
  RuntimeStats counters_;  ///< histogram summaries unused here
  int clean_needed_ = 0;   ///< clean completions until health recovers
  obs::Histogram wait_hist_;
  obs::Histogram service_hist_;
  obs::Histogram total_hist_;

  /// Last published counter values, for delta publishing (own lock: publish
  /// can be called concurrently from an owner loop and a telemetry query).
  std::mutex publish_mutex_;
  RuntimeStats published_;
};

}  // namespace pdet::runtime
