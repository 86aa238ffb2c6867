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
// A level becomes scores through one scan step (batch, scan_level_into on
// the engine's backend, level-to-frame mapping, LevelStats) and the levels
// are merged once, in scale order. process() runs the step on each level it
// builds; scan_pyramid() runs it for another model over the levels of the
// last build_pyramid(), which is how core::MultiClassDetector and
// core::ModelPyramidDetector score several models over one pyramid, as the
// paper runs several MACBAR classifiers against one NHOGMem; score_window()
// is a one-level pass over its crop.
//
// Per-level parallelism is opt-in (EngineOptions::threads). Each pyramid
// level owns its complete scratch set, so the arithmetic of a level is
// independent of which thread runs it; levels are merged in scale order, and
// the result is bit-identical to the single-threaded run for every
// PyramidStrategy. Level lanes record their own spans and counters (the
// trace/metrics layer is thread-safe, see trace.hpp); each level is visited
// exactly once, so the obs record of a frame is the same at every threads
// setting.
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
  /// thread; N > 1 runs them on a small internal pool with identical
  /// (bit-for-bit) results, spans and counters.
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
  std::vector<Detection> hits;         ///< last scan's detections, frame coords
  LevelStats stats;
  bool kept = false;                   ///< false = dropped (window too big)
  bool scanned = false;                ///< the last scan step scored it

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
  imgproc::ImageF win_crop;            ///< score_window's center crop

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
  /// detect_multiscale() (same detections, spans and counters at any thread
  /// count). The returned reference points into the workspace and is valid
  /// until the next process()/scan_pyramid()/score_window() call.
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
  /// process()/build_pyramid()/score_window() call. Engine stats count
  /// process() frames only.
  std::span<const LevelWorkspace> build_pyramid(
      const imgproc::ImageF& frame, const hog::HogParams& params,
      const MultiscaleOptions& options);

  /// Score `model` over the kept levels of the last build_pyramid() with
  /// process()'s scan step and merge, on the same lanes: process() equals
  /// build_pyramid() followed by this call, bit for bit. `params` may differ
  /// from the pyramid's only in the window size; a level that cannot hold
  /// the window is skipped (no per_level entry, no hits). Reads the scan and
  /// NMS fields of `options`; a level's stats.ms is its scan time. The
  /// reference is valid until the next call that builds or scans.
  const MultiscaleResult& scan_pyramid(const hog::HogParams& params,
                                       const svm::LinearModel& model,
                                       const MultiscaleOptions& options);

  /// Score one window-sized image (center-cropped if larger): a one-level
  /// pass over the crop, equal to hog::compute_window_descriptor + decision.
  /// Replaces the levels of the last build_pyramid().
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

  /// The scan step: score `model` over one kept level that can hold its
  /// window, map the hits to frame pixels and fill the level's stats.
  void scan_step(LevelWorkspace& level, const hog::HogParams& params,
                 const svm::LinearModel& model, const ScanOptions& scan);

  /// Gather the scanned levels in scale order into the workspace result,
  /// then NMS.
  const MultiscaleResult& merge(const MultiscaleOptions& options);

  /// The level pool when more than one lane can work on `count` levels,
  /// else nullptr (levels run inline).
  util::ThreadPool* lanes(int count);

  /// Resolve the active backend, creating the engine-owned one on demand.
  /// Called from the process()/score_window() entry thread before any level
  /// lane runs, so lanes see a settled pointer.
  score::ScoringBackend& ensure_backend();

  EngineOptions options_;
  EngineStats stats_;
  std::size_t high_water_bytes_ = 0;
  FrameWorkspace workspace_;
  int built_levels_ = 0;  ///< level slots the last run_levels() filled
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created, threads > 1
  std::unique_ptr<score::ScoringBackend> owned_backend_;
  score::ScoringBackend* active_scorer_ = nullptr;  ///< settled per frame
};

}  // namespace pdet::detect
