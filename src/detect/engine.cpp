#include "src/detect/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/detect/scanner.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/imgproc/resize.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"

namespace pdet::detect {
namespace {

/// Run `job(i)` for every level index in [0, count): on `pool`'s lanes, or
/// inline when there is none.
template <typename Job>
void for_each_level(util::ThreadPool* pool, int count, Job& job) {
  if (pool == nullptr) {
    for (int i = 0; i < count; ++i) job(i);
    return;
  }
  pool->parallel_for(
      count, +[](void* ctx, int index) { (*static_cast<Job*>(ctx))(index); },
      &job);
}

/// score_window's pass: one level at scale 1, every window's score kept.
const MultiscaleOptions& window_pass() {
  static const MultiscaleOptions options = [] {
    MultiscaleOptions o;
    o.scales = {1.0};
    o.scan.threshold = -std::numeric_limits<float>::infinity();
    return o;
  }();
  return options;
}

}  // namespace

std::size_t LevelWorkspace::capacity_bytes() const {
  return scaled.capacity_bytes() + grad.capacity_bytes() +
         cells.capacity_bytes() + blocks.capacity_bytes() +
         block_scratch.capacity() * sizeof(float) + batch.capacity_bytes() +
         hits.capacity() * sizeof(Detection);
}

std::size_t AnchorWorkspace::capacity_bytes() const {
  return scaled.capacity_bytes() + grad.capacity_bytes() +
         cells.capacity_bytes();
}

std::size_t FrameWorkspace::capacity_bytes() const {
  std::size_t total = base_grad.capacity_bytes() +
                      base_cells.capacity_bytes() +
                      levels.capacity() * sizeof(LevelWorkspace) +
                      anchors.capacity() * sizeof(AnchorWorkspace) +
                      nms_scratch.capacity() * sizeof(Detection);
  for (const LevelWorkspace& level : levels) total += level.capacity_bytes();
  for (const AnchorWorkspace& anchor : anchors) total += anchor.capacity_bytes();
  total += result.detections.capacity() * sizeof(Detection) +
           result.raw.capacity() * sizeof(Detection) +
           result.per_level.capacity() * sizeof(LevelStats);
  total += win_crop.capacity_bytes();
  return total;
}

DetectionEngine::DetectionEngine(EngineOptions options) : options_(options) {
  options_.threads = std::max(1, options_.threads);
}

DetectionEngine::DetectionEngine(const DetectionEngine& other)
    : options_(other.options_) {}

DetectionEngine& DetectionEngine::operator=(const DetectionEngine& other) {
  if (this != &other) {
    options_ = other.options_;
    stats_ = EngineStats{};
    high_water_bytes_ = 0;
    workspace_ = FrameWorkspace{};
    built_levels_ = 0;
    pool_.reset();
  }
  return *this;
}

void DetectionEngine::set_threads(int threads) {
  options_.threads = std::max(1, threads);
}

score::BackendKind DetectionEngine::backend() const {
  if (options_.scorer != nullptr) return options_.scorer->kind();
  return score::resolve(options_.backend);
}

void DetectionEngine::set_backend(score::BackendKind kind) {
  PDET_REQUIRE(score::resolve(kind) != score::BackendKind::kHwsim);
  options_.backend = kind;
  options_.scorer = nullptr;
  active_scorer_ = nullptr;
}

void DetectionEngine::set_scorer(score::ScoringBackend* scorer) {
  options_.scorer = scorer;
  active_scorer_ = nullptr;
}

util::ThreadPool* DetectionEngine::lanes(int count) {
  if (options_.threads <= 1 || count <= 1) return nullptr;
  if (!pool_ || pool_->threads() != options_.threads) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
  return pool_.get();
}

score::ScoringBackend& DetectionEngine::ensure_backend() {
  if (options_.scorer != nullptr) {
    active_scorer_ = options_.scorer;
  } else {
    const score::BackendKind kind = score::resolve(options_.backend);
    // A bare kind cannot conjure an offload device; hwsim arrives via the
    // scorer pointer (see EngineOptions::scorer).
    PDET_REQUIRE(kind != score::BackendKind::kHwsim);
    if (!owned_backend_ || owned_backend_->kind() != kind) {
      owned_backend_ = score::make_backend(kind);
    }
    active_scorer_ = owned_backend_.get();
  }
  stats_.backend = active_scorer_->kind();
  return *active_scorer_;
}

void DetectionEngine::run_level(const imgproc::ImageF& frame,
                                const hog::HogParams& params,
                                const svm::LinearModel* model,
                                const MultiscaleOptions& options, int index) {
  const util::Timer level_timer;
  FrameWorkspace& ws = workspace_;
  LevelWorkspace& level = ws.levels[static_cast<std::size_t>(index)];
  const double s = options.scales[static_cast<std::size_t>(index)];
  PDET_REQUIRE(s >= 1.0);
  level.scale = s;
  level.kept = false;
  level.scanned = false;
  level.hits.clear();

  // Feature source for this level; points either at a shared read-only grid
  // (native cells, an octave anchor) or at the level's own slot.
  const hog::CellGrid* cells = nullptr;
  switch (options.strategy) {
    case PyramidStrategy::kImage: {
      const imgproc::ImageF* src = &frame;
      if (s != 1.0) {
        imgproc::resize_scale_into(frame, 1.0 / s, options.image_interp,
                                   level.scaled);
        src = &level.scaled;
      }
      hog::compute_cell_grid_into(*src, params, level.grad, level.cells);
      cells = &level.cells;
      break;
    }
    case PyramidStrategy::kFeature: {
      if (s == 1.0) {
        cells = &ws.base_cells;
      } else {
        hog::downscale_cell_grid_into(ws.base_cells, s, options.feature_interp,
                                      level.cells);
        cells = &level.cells;
      }
      break;
    }
    case PyramidStrategy::kHybrid: {
      // Nearest anchor at or below s, so resampling only ever shrinks.
      const AnchorWorkspace* anchor = &ws.anchors.front();
      for (int k = 0; k < ws.anchor_count; ++k) {
        if (ws.anchors[static_cast<std::size_t>(k)].scale <= s + 1e-9) {
          anchor = &ws.anchors[static_cast<std::size_t>(k)];
        }
      }
      const double rel = s / anchor->scale;  // within one octave: [1, 2)
      if (rel <= 1.0 + 1e-9) {
        cells = &anchor->cells;
      } else {
        hog::downscale_cell_grid_into(anchor->cells, rel,
                                      options.feature_interp, level.cells);
        cells = &level.cells;
      }
      break;
    }
  }

  if (cells->cells_x() < params.cells_per_window_x() ||
      cells->cells_y() < params.cells_per_window_y()) {
    return;  // object larger than the remaining field of view: level dropped
  }

  hog::normalize_cells_into(*cells, params, level.block_scratch, level.blocks);
  level.stats = LevelStats{.scale = s,
                           .cells_x = cells->cells_x(),
                           .cells_y = cells->cells_y()};
  level.kept = true;

  if (model != nullptr) scan_step(level, params, *model, options.scan);
  level.stats.ms = level_timer.milliseconds();
}

void DetectionEngine::scan_step(LevelWorkspace& level,
                                const hog::HogParams& params,
                                const svm::LinearModel& model,
                                const ScanOptions& scan) {
  level.hits.clear();
  level.scanned = level.kept &&
                  level.blocks.blocks_x() >= params.blocks_per_window_x() &&
                  level.blocks.blocks_y() >= params.blocks_per_window_y();
  if (!level.scanned) return;
  level.batch.configure(static_cast<std::size_t>(params.descriptor_size()),
                        score::kDefaultBatchCapacity);
  scan_level_into(level.blocks, params, model, *active_scorer_, scan,
                  level.batch, level.hits);
  level.stats.windows =
      scan_window_count(level.blocks, params, scan.cell_stride);
  level.stats.detections = static_cast<long long>(level.hits.size());
  const double s = level.scale;
  for (Detection& d : level.hits) {
    // Map level coordinates back to the original frame — same arithmetic
    // for every strategy and every caller.
    d.x = static_cast<int>(std::lround(d.x * s));
    d.y = static_cast<int>(std::lround(d.y * s));
    d.width = static_cast<int>(std::lround(d.width * s));
    d.height = static_cast<int>(std::lround(d.height * s));
    d.scale = s;
  }
}

void DetectionEngine::run_levels(const imgproc::ImageF& frame,
                                 const hog::HogParams& params,
                                 const svm::LinearModel* model,
                                 const MultiscaleOptions& options) {
  params.validate();
  // Input frames must be cell-aligned (throws std::invalid_argument — see
  // hog::require_frame_alignment); resized pyramid *levels* of arbitrary
  // dimensions remain fine, truncation there is inherent to the pyramid.
  hog::require_frame_alignment(frame.width(), frame.height(), params);
  if (model != nullptr) {
    PDET_REQUIRE(model->dimension() ==
                 static_cast<std::size_t>(params.descriptor_size()));
    ensure_backend();  // settle the scorer before any level lane reads it
  }

  FrameWorkspace& ws = workspace_;
  const int n = static_cast<int>(options.scales.size());
  if (static_cast<int>(ws.levels.size()) < n) {
    ws.levels.resize(static_cast<std::size_t>(n));
  }

  // Shared inputs are prepared on the calling thread; levels only read them.
  ws.anchor_count = 0;
  if (options.strategy == PyramidStrategy::kFeature) {
    hog::compute_cell_grid_into(frame, params, ws.base_grad, ws.base_cells);
  } else if (options.strategy == PyramidStrategy::kHybrid) {
    double max_scale = 1.0;
    for (const double s : options.scales) {
      PDET_REQUIRE(s >= 1.0);
      max_scale = std::max(max_scale, s);
    }
    int k = 0;
    for (double a = 1.0; a <= max_scale + 1e-9; a *= 2.0) {
      if (static_cast<int>(ws.anchors.size()) <= k) {
        ws.anchors.resize(static_cast<std::size_t>(k) + 1);
      }
      AnchorWorkspace& anchor = ws.anchors[static_cast<std::size_t>(k)];
      const imgproc::ImageF* src = &frame;
      if (a != 1.0) {
        imgproc::resize_scale_into(frame, 1.0 / a, options.image_interp,
                                   anchor.scaled);
        src = &anchor.scaled;
      }
      if (src->width() < params.cell_size || src->height() < params.cell_size) {
        break;
      }
      anchor.scale = a;
      hog::compute_cell_grid_into(*src, params, anchor.grad, anchor.cells);
      ++k;
    }
    ws.anchor_count = k;
    PDET_REQUIRE(ws.anchor_count > 0);
  }

  built_levels_ = n;
  auto level_job = [&](int index) {
    run_level(frame, params, model, options, index);
  };
  for_each_level(lanes(n), n, level_job);
}

std::span<const LevelWorkspace> DetectionEngine::build_pyramid(
    const imgproc::ImageF& frame, const hog::HogParams& params,
    const MultiscaleOptions& options) {
  PDET_TRACE_SCOPE("detect/pyramid");
  run_levels(frame, params, nullptr, options);
  const std::span<const LevelWorkspace> levels(workspace_.levels.data(),
                                               options.scales.size());
  obs::counter_add("hog.pyramid_levels",
                   std::count_if(levels.begin(), levels.end(),
                                 [](const LevelWorkspace& level) {
                                   return level.kept;
                                 }));
  return levels;
}

const MultiscaleResult& DetectionEngine::process(
    const imgproc::ImageF& frame, const hog::HogParams& params,
    const svm::LinearModel& model, const MultiscaleOptions& options) {
  PDET_TRACE_SCOPE("detect/multiscale");
  const util::Timer frame_timer;
  run_levels(frame, params, &model, options);
  const MultiscaleResult& result = merge(options);

  obs::counter_add("hog.pyramid_levels", result.levels);
  obs::counter_add("detect.frames");
  obs::counter_add("detect.levels", result.levels);
  obs::counter_add("detect.windows_evaluated", result.windows_evaluated);
  obs::counter_add("detect.raw_detections",
                   static_cast<long long>(result.raw.size()));
  obs::counter_add("detect.detections",
                   static_cast<long long>(result.detections.size()));
  obs::observe("detect.frame_ms", frame_timer.milliseconds());

  ++stats_.frames;
  const std::size_t bytes = workspace_.capacity_bytes();
  if (bytes > high_water_bytes_) {
    high_water_bytes_ = bytes;
    ++stats_.grow_events;
  } else {
    ++stats_.reuse_hits;
  }
  stats_.alloc_bytes = high_water_bytes_;
  obs::gauge_set("engine.alloc_bytes",
                 static_cast<double>(stats_.alloc_bytes));
  obs::gauge_set("engine.reuse_hits",
                 static_cast<double>(stats_.reuse_hits));
  return result;
}

const MultiscaleResult& DetectionEngine::scan_pyramid(
    const hog::HogParams& params, const svm::LinearModel& model,
    const MultiscaleOptions& options) {
  PDET_TRACE_SCOPE("detect/scan_pyramid");
  params.validate();
  PDET_REQUIRE(model.dimension() ==
               static_cast<std::size_t>(params.descriptor_size()));
  ensure_backend();  // settle the scorer before any level lane reads it
  auto scan_job = [&](int index) {
    const util::Timer timer;
    LevelWorkspace& level = workspace_.levels[static_cast<std::size_t>(index)];
    scan_step(level, params, model, options.scan);
    level.stats.ms = timer.milliseconds();
  };
  for_each_level(lanes(built_levels_), built_levels_, scan_job);
  return merge(options);
}

const MultiscaleResult& DetectionEngine::merge(
    const MultiscaleOptions& options) {
  // Merge in level (scale) order: output is independent of which thread ran
  // which level, hence bit-identical to the single-threaded run.
  FrameWorkspace& ws = workspace_;
  MultiscaleResult& result = ws.result;
  result.raw.clear();
  result.per_level.clear();
  result.windows_evaluated = 0;
  for (int i = 0; i < built_levels_; ++i) {
    const LevelWorkspace& level = ws.levels[static_cast<std::size_t>(i)];
    if (!level.scanned) continue;
    result.per_level.push_back(level.stats);
    result.windows_evaluated += level.stats.windows;
    result.raw.insert(result.raw.end(), level.hits.begin(), level.hits.end());
  }
  result.levels = static_cast<int>(result.per_level.size());
  if (options.run_nms) {
    nms_into(result.raw, options.nms_iou, ws.nms_scratch, result.detections);
  } else {
    result.detections = result.raw;
  }
  return result;
}

float DetectionEngine::score_window(const imgproc::ImageF& window,
                                    const hog::HogParams& params,
                                    const svm::LinearModel& model) {
  PDET_TRACE_SCOPE("detect/score_window");
  PDET_REQUIRE(window.width() >= params.window_width);
  PDET_REQUIRE(window.height() >= params.window_height);
  const imgproc::ImageF* src = &window;
  if (window.width() != params.window_width ||
      window.height() != params.window_height) {
    const int x0 = (window.width() - params.window_width) / 2;
    const int y0 = (window.height() - params.window_height) / 2;
    window.crop_into(x0, y0, params.window_width, params.window_height,
                     workspace_.win_crop);
    src = &workspace_.win_crop;
  }
  // The crop is exactly one window, so its one level holds one hit.
  run_levels(*src, params, &model, window_pass());
  const std::vector<Detection>& hits = workspace_.levels.front().hits;
  return hits.empty() ? std::numeric_limits<float>::quiet_NaN()
                      : hits.front().score;
}

}  // namespace pdet::detect
