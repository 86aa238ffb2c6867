// Shared types of the serving-stack benchmark (perfbench).
//
// The benchmark drives one named workload through the serving stack's public
// entry points, checks every delivered frame against a reference, and emits
// one JSON object of metrics on stdout (perfbench/run.py turns it into the
// benchmark's result line). See perfbench/README.md for the load model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/detect/detection.hpp"
#include "src/detect/multiscale.hpp"
#include "src/eval/detection_eval.hpp"
#include "src/hog/params.hpp"
#include "src/imgproc/image.hpp"
#include "src/obs/timeline.hpp"
#include "src/score/backend.hpp"
#include "src/svm/linear_svm.hpp"

namespace perfbench {

namespace pd = pdet;

// Fixed for every workload.
inline constexpr double kFocalPx = 1000.0;  ///< camera focal length
inline constexpr int kPedestrians = 2;      ///< per frame
inline constexpr int kSetupReps = 5;        ///< set-ups per run
inline constexpr int kRounds = 3;  ///< open/closed loop alternations per run

/// One workload's fixed configuration (perfbench/workloads.json, passed in
/// as command-line flags by run.py). Nothing here is derived from a run.
struct Workload {
  std::string name;
  bool fleet = false;  ///< true: cameras -> ShardRouter -> DetectionService
  int streams = 1;     ///< cameras
  int shards = 1;      ///< DetectionService shards behind the router (fleet)
  int workers = 1;     ///< engine workers per DetectionServer
  int engine_threads = 1;  ///< pyramid-level lanes per engine
  bool guard = false;      ///< input-integrity gate on the submit path

  // Frame source (dataset::MultiStreamSource).
  int width = 640;
  int height = 480;
  double camera_height_m = 1.4;
  double min_distance_m = 8.0;
  double max_distance_m = 28.0;
  int pool_frames = 8;  ///< distinct frames per camera, cycled

  std::vector<double> scales{1.0, 2.0};
  pd::score::BackendKind backend = pd::score::BackendKind::kScalar;

  // Load.
  double rate_fps = 10.0;           ///< open-loop offered rate, all cameras
  double latency_limit_ms = 100.0;  ///< deadline for deadline_miss_frac
  int window = 4;         ///< closed-loop frames in flight per generator
  int warmup_frames = 4;  ///< per camera, per set-up

  /// Open-loop frames per second reaching one DetectionServer.
  double rate_per_server() const { return rate_fps / (fleet ? shards : 1); }
};

/// Frames a server queues: half a second of its offered load (at least 8),
/// so a host stall that long is absorbed, not shed as failed frames.
std::size_t queue_capacity(const Workload& w);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  double lag_limit_ms = 5.0;  ///< generator lag p90 above this = invalid run
  std::string trace_out;      ///< Chrome trace path (trace mode)
};

/// The trained detector every workload serves (training is input
/// generation: fixed seed, never timed).
struct Model {
  pd::svm::LinearModel model;
  pd::hog::HogParams hog;
  pd::detect::MultiscaleOptions multiscale;
};

Model train_model();

/// The workload's multiscale options (model defaults + workload ladder).
pd::detect::MultiscaleOptions workload_multiscale(const Model& model,
                                                  const Workload& w);

/// One pre-rendered frame of one camera with its ground truth and the
/// reference post-NMS boxes of a standalone single-lane engine.
struct PoolFrame {
  pd::imgproc::ImageF image;
  std::vector<pd::eval::GroundTruth> truth;
  std::vector<pd::detect::Detection> reference;
  pd::eval::FrameMatch match;  ///< reference boxes vs truth, IoU >= 0.5
};

struct Pool {
  std::vector<std::vector<PoolFrame>> streams;  ///< [camera][frame]

  const PoolFrame& at(int stream, int index) const {
    return streams[static_cast<std::size_t>(stream)]
                  [static_cast<std::size_t>(index)];
  }
  int frames_per_stream() const {
    return streams.empty() ? 0 : static_cast<int>(streams.front().size());
  }
};

/// Render the workload's frames from `seed` and compute the references (on
/// a few threads; neither is timed).
Pool build_pool(const Workload& w, const Model& model, std::uint64_t seed,
                int frames_per_stream);

/// Field-by-field exact comparison (Detection has padding, so no memcmp).
bool same_boxes(std::span<const pd::detect::Detection> a,
                std::span<const pd::detect::Detection> b);

/// obs::timeline_now_ns: one clock for the generator, the spans and the
/// program's own FrameTimeline stamps.
std::uint64_t now_ns();

// --- Frame accounting --------------------------------------------------------

enum class Outcome : std::uint8_t {
  kPending = 0,  ///< sent, no result yet (kMissed once the drain gives up)
  kOk,           ///< delivered kOk, in order, boxes == reference
  kMismatch,     ///< delivered kOk but out of order or boxes != reference
  kDropped,      ///< delivered as a queue/deadline drop
  kError,        ///< delivered with any other status
  kMissed,       ///< never delivered
};

enum Phase : int {
  kWarmup = 0,      ///< set-up frames (counted in setup_s, never analysed)
  kOpen = 1,        ///< open loop, untraced
  kOpenTraced = 2,  ///< open loop with benchmark spans recorded
  kClosed = 3,      ///< closed loop (max_fps)
};

struct FrameRecord {
  std::uint64_t scheduled_ns = 0;  ///< when the frame was due
  std::uint64_t sent_ns = 0;       ///< submit entered
  std::uint64_t sent_end_ns = 0;   ///< submit returned
  std::uint64_t done_ns = 0;       ///< detections in hand
  int pool = -1;
  int phase = -1;
  Outcome outcome = Outcome::kPending;
  std::uint32_t root_span = 0;  ///< reserved "frame" span id (traced phase)
  /// Server hop stamps: StreamResult::timing in process, the grafted
  /// Client::last_timeline over TCP.
  pd::obs::FrameTimeline timing;
};

/// Append-only per-camera frame log. Chunked so appends never move
/// existing records: the generator appends (and publishes the index through
/// submit) while delivery threads write the fields of earlier records.
class RecordLog {
 public:
  RecordLog();
  FrameRecord& append();  ///< generator thread only
  FrameRecord& operator[](std::size_t i);
  const FrameRecord& operator[](std::size_t i) const;
  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kChunk = 1024;
  static constexpr std::size_t kMaxChunks = 4096;
  std::vector<std::unique_ptr<FrameRecord[]>> chunks_;
  std::size_t size_ = 0;
};

/// Check a delivered kOk frame: in order (`index == expected`) and boxes
/// equal to the pool reference.
Outcome judge(const Pool& pool, int stream, const FrameRecord& rec,
              std::span<const pd::detect::Detection> boxes, bool in_order);

// --- Serving stacks ----------------------------------------------------------

/// Counters read from the stack's public stats after the measured phases.
struct StackStats {
  int engine_workers = 0;       ///< workers across the stack's servers
  long long runtime_dropped = 0;  ///< RuntimeStats queue + deadline drops
  long long runtime_errors = 0;   ///< RuntimeStats errors
  double score_fill = 0.0;        ///< RuntimeStats::score_fill (mean)
  long long guard_verdicts = 0;   ///< guard_unusable + guard_soft
  // Wire and fleet (zero for in-process stacks).
  long long results_missed = 0;
  long long protocol_errors = 0;
  long long reconnects = 0;
  long long frames_shed = 0;        ///< RouterStats shed counters, summed
  long long duplicates_suppressed = 0;
  double fleet_bytes_per_frame = 0.0;
  std::vector<double> client_submit_us;  ///< timed Client::submit calls
};

class ServingStack {
 public:
  virtual ~ServingStack() = default;
  /// Open loop: frames due at a fixed absolute rate, sent on schedule
  /// regardless of completions; returns once every sent frame is settled.
  virtual void open_loop(double seconds, Phase phase) = 0;
  /// Closed loop: at most Workload::window frames in flight per generator.
  virtual void closed_loop(double seconds, Phase phase) = 0;
  /// Stop every thread the stack owns (idempotent).
  virtual void stop() = 0;
  virtual StackStats stats() = 0;
  virtual std::vector<RecordLog>& logs() = 0;
};

/// Construct, start and warm the workload's stack (the set-up that setup_s
/// times).
std::unique_ptr<ServingStack> make_stack(const Workload& w, const Model& model,
                                         const Pool& pool);

// --- Stage replay and layer probes (traced run only) -------------------------

/// The engine's own chain replayed stage by stage on a warm workspace, one
/// thread, over the workload's pool. Means per frame.
struct StageLedger {
  int frames = 0;
  int mismatches = 0;  ///< replayed boxes != DetectionEngine::process boxes
  double megapixels = 0.0;  ///< frame size
  int levels = 0;           ///< pyramid levels scanned per frame
  int downscaled_levels = 0;
  bool downscale_probe = false;  ///< single-scale ladder: x2 probe level
  double gradient_ms = 0.0;
  double cell_grid_ms = 0.0;  ///< includes the gradient pass
  double normalize_ms = 0.0;
  double downscale_ms = 0.0;
  double scan_ms = 0.0;
  double nms_ms = 0.0;
  double windows = 0.0;
  double raw = 0.0;
  double process_ms = 0.0;        ///< warm process, one lane
  double process_lanes_ms = 0.0;  ///< warm process, workload lanes
  std::size_t workspace_bytes = 0;
  double inspect_us = 0.0;       ///< FrameGuard::inspect
  long long guard_verdicts = 0;  ///< non-healthy verdicts on clean frames
  double encode_us = 0.0;        ///< wire::encode_submit_frame
  double decode_us = 0.0;        ///< wire::decode_message
  double wire_bytes = 0.0;       ///< encoded SubmitFrame size
};

StageLedger replay_stages(const Workload& w, const Model& model,
                          const Pool& pool, double budget_s);

/// TileEngine at its design point: 1920x1088 frames rendered from the seed,
/// 2x2 exact plan, compared byte for byte with the untiled engine.
struct TileLedger {
  int frames = 0;
  int mismatches = 0;
  double untiled_ms = 0.0;
  double tiled_ms = 0.0;  ///< two tile lanes
  double pixel_overhead = 0.0;
  double window_overhead = 0.0;
};

TileLedger probe_tiles(const Model& model, std::uint64_t seed, bool smoke);

/// One camera sending the workload's frames alternately straight to a
/// DetectionService and through a ShardRouter in front of it, one frame in
/// flight: the wire and router hops without queueing.
struct NetLedger {
  int frames = 0;
  int failures = 0;
  std::vector<double> direct_ms;
  std::vector<double> routed_ms;
  std::vector<double> residency_ms;  ///< service recv -> wire send
  std::vector<double> transit_ms;    ///< client latency - residency
  StackStats stats;
};

NetLedger probe_net(const Workload& w, const Model& model, const Pool& pool,
                    double budget_s);

}  // namespace perfbench
