// Persistent detection engine with a reusable per-frame workspace.
//
// The paper's accelerator never allocates: every stage streams through
// fixed-size on-chip buffers (NHOGMem banks, MACBAR accumulators) sized once
// for the frame format. The free functions in multiscale.hpp re-create every
// intermediate (gradients, cell grids, block grids, descriptors, detection
// lists) per call, which is fine for one-shot use but wrong for the paper's
// setting — a driver-assistance system classifying every frame of a video
// stream. DetectionEngine is the host-side analogue of the fixed-buffer
// datapath: it owns a FrameWorkspace of buffers sized lazily on the first
// frame and re-shaped (never released) afterwards, so steady-state
// process() calls perform zero heap allocations.
//
// Per-level parallelism is opt-in (EngineOptions::threads). Each pyramid
// level owns its complete scratch set, so the arithmetic of a level is
// independent of which thread runs it; levels are merged in scale order, and
// the result is bit-identical to the single-threaded run for every
// PyramidStrategy. With threads > 1 the workers run obs-muted — a policy
// choice, not a safety one (the trace/metrics layer is thread-safe, see
// trace.hpp): the engine publishes the per-level counters as aggregates
// afterwards so counter totals stay identical at every threads setting.
// Per-stage spans inside levels are only recorded when threads == 1.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/detect/multiscale.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/score/backend.hpp"
#include "src/util/thread_pool.hpp"

namespace pdet::detect {

struct EngineOptions {
  /// Pyramid-level lanes. 1 (default) runs levels inline on the calling
  /// thread with full per-stage tracing; N > 1 scans levels on a small
  /// internal pool with identical (bit-for-bit) results.
  int threads = 1;

  /// Scoring backend for the scan (kAuto = scalar).
  /// kHwsim cannot be constructed here — pass the device via `scorer`.
  score::BackendKind backend = score::BackendKind::kAuto;

  /// Externally owned backend shared across engines (the runtime passes its
  /// one backend here, and every pooled and tiled engine calls it directly).
  /// Overrides `backend`; must outlive the engine and accept concurrent
  /// score() calls. The engine never takes ownership.
  score::ScoringBackend* scorer = nullptr;
};

/// Allocation/reuse accounting across the engine's lifetime.
struct EngineStats {
  long long frames = 0;       ///< process() calls completed
  long long grow_events = 0;  ///< frames that grew the workspace footprint
  long long reuse_hits = 0;   ///< frames served entirely from warm buffers
  std::size_t alloc_bytes = 0;  ///< workspace high-water footprint, bytes
  /// Which backend scored the last frame (resolved, never kAuto).
  score::BackendKind backend = score::BackendKind::kScalar;
};

/// Scratch owned by one pyramid level. A level touches nothing outside its
/// slot (plus read-only shared inputs), which is what makes the threaded
/// scan deterministic.
struct LevelWorkspace {
  double scale = 1.0;
  imgproc::ImageF scaled;              ///< kImage: per-level resized frame
  imgproc::GradientField grad;         ///< kImage: per-level cell-grid row scratch
  hog::CellGrid cells;                 ///< per-level (re)scaled cell grid
  hog::BlockGrid blocks;               ///< normalized features the scan reads
  std::vector<float> block_scratch;    ///< normalize's two-block-row ring
  score::ScoreBatch batch;             ///< level planes + windows to score
  std::vector<Detection> hits;         ///< level detections, frame coords
  LevelStats stats;
  bool kept = false;                   ///< false = dropped (window too big)
  int cell_grids = 0;                  ///< obs compensation when muted
  long long gradient_pixels = 0;       ///< obs compensation when muted
  long long score_batches = 0;         ///< obs compensation when muted

  std::size_t capacity_bytes() const;
};

/// One kHybrid octave anchor (scale 1, 2, 4, ...): features genuinely
/// re-extracted from a resized frame, shared read-only by the levels of its
/// octave.
struct AnchorWorkspace {
  double scale = 1.0;
  imgproc::ImageF scaled;
  imgproc::GradientField grad;         ///< cell-grid row scratch
  hog::CellGrid cells;

  std::size_t capacity_bytes() const;
};

/// Every buffer the detection chain needs for one frame, reused across
/// frames. Buffers are re-shaped in place and storage is never released, so
/// once each slot has reached its high-water size a frame allocates nothing.
struct FrameWorkspace {
  imgproc::GradientField base_grad;    ///< kFeature: native-scale row scratch
  hog::CellGrid base_cells;            ///< kFeature: native-scale cell grid
  std::vector<LevelWorkspace> levels;  ///< grown to max level count, never shrunk
  std::vector<AnchorWorkspace> anchors;
  int anchor_count = 0;                ///< anchors active this frame
  std::vector<Detection> nms_scratch;
  MultiscaleResult result;             ///< what process() returns a ref to

  // score_window scratch (satellite of the same zero-alloc story).
  imgproc::ImageF win_crop;
  imgproc::GradientField win_grad;     ///< cell-grid row scratch
  hog::CellGrid win_cells;
  hog::BlockGrid win_blocks;
  std::vector<float> win_block_scratch;
  score::ScoreBatch win_batch;  ///< one-window batch through the backend

  std::size_t capacity_bytes() const;
};

class DetectionEngine {
 public:
  explicit DetectionEngine(EngineOptions options = {});

  /// Copies share configuration only: the copy starts with a cold workspace
  /// and zeroed stats (warm buffers are per-engine by construction).
  DetectionEngine(const DetectionEngine& other);
  DetectionEngine& operator=(const DetectionEngine& other);
  DetectionEngine(DetectionEngine&&) = default;
  DetectionEngine& operator=(DetectionEngine&&) = default;
  ~DetectionEngine() = default;

  int threads() const { return options_.threads; }
  void set_threads(int threads);

  /// The backend that will score the next frame: the shared `scorer` if one
  /// was injected, else the engine-owned backend for the resolved kind.
  score::BackendKind backend() const;

  /// Re-point scoring at `kind` (engine-owned backend, lazily rebuilt).
  /// Clears any injected scorer. kHwsim is rejected here — the device must
  /// come in through set_scorer().
  void set_backend(score::BackendKind kind);

  /// Share an externally owned backend (e.g. the runtime's backend or an
  /// hwsim device); nullptr reverts to the engine-owned backend.
  void set_scorer(score::ScoringBackend* scorer);

  /// Multi-scale detection over `frame`, semantically identical to
  /// detect_multiscale() (same spans and counters at threads == 1, same
  /// detections at any thread count). The returned reference points into the
  /// workspace and is valid until the next process()/score_window() call.
  const MultiscaleResult& process(const imgproc::ImageF& frame,
                                  const hog::HogParams& params,
                                  const svm::LinearModel& model,
                                  const MultiscaleOptions& options);

  /// The pyramid half of process(): the same shared inputs and level pass
  /// (image resize or feature down-scale, the too-small-level drop, block
  /// normalization) on the same lanes, stopping before the scan. Reads only
  /// the pyramid fields of `options` (scales, strategy, interpolations).
  /// Returns this frame's level slots in ladder order; a slot with `kept`
  /// set holds its `scale`, `stats.cells_x/cells_y` and normalized `blocks`.
  /// The span points into the workspace and is valid until the next
  /// process()/build_pyramid() call. Engine stats count process() frames
  /// only.
  std::span<const LevelWorkspace> build_pyramid(
      const imgproc::ImageF& frame, const hog::HogParams& params,
      const MultiscaleOptions& options);

  /// Score one window-sized image (center-cropped if larger), equal to
  /// hog::compute_window_descriptor + decision but through workspace scratch.
  float score_window(const imgproc::ImageF& window,
                     const hog::HogParams& params,
                     const svm::LinearModel& model);

  const EngineStats& stats() const { return stats_; }
  const FrameWorkspace& workspace() const { return workspace_; }

 private:
  /// Check the frame, build the shared inputs (native cells or octave
  /// anchors) on the calling thread, then run every level inline or on the
  /// lanes. A null `model` stops each level before the scan.
  void run_levels(const imgproc::ImageF& frame, const hog::HogParams& params,
                  const svm::LinearModel* model,
                  const MultiscaleOptions& options);
  void run_level(const imgproc::ImageF& frame, const hog::HogParams& params,
                 const svm::LinearModel* model,
                 const MultiscaleOptions& options, int index);
  void ensure_pool();

  /// Resolve the active backend, creating the engine-owned one on demand.
  /// Called from the process()/score_window() entry thread before any level
  /// lane runs, so lanes see a settled pointer.
  score::ScoringBackend& ensure_backend();

  EngineOptions options_;
  EngineStats stats_;
  std::size_t high_water_bytes_ = 0;
  FrameWorkspace workspace_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created, threads > 1
  std::unique_ptr<score::ScoringBackend> owned_backend_;
  score::ScoringBackend* active_scorer_ = nullptr;  ///< settled per frame
};

}  // namespace pdet::detect
