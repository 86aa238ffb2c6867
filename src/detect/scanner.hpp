// Sliding-window scan of one pyramid level.
//
// "Sliding each window by one cell either in vertical or horizontal
// direction results in a new detection window" (paper Figure 2): the scan
// stride is one cell (8 px at native scale), exactly what the hardware's
// 36-cycle window cadence implements.
#pragma once

#include <vector>

#include "src/detect/detection.hpp"
#include "src/imgproc/image.hpp"
#include "src/hog/descriptor.hpp"
#include "src/score/backend.hpp"
#include "src/svm/linear_svm.hpp"

namespace pdet::detect {

struct ScanOptions {
  float threshold = 0.0f;  ///< keep windows with score > threshold
  int cell_stride = 1;     ///< window step in cells (1 = paper's stride)
};

/// Scan every window position of `blocks` with `model`: `batch` (which the
/// caller has configure()d to `params.descriptor_size()` with its chosen
/// capacity) loads the level's window-minor planes once, then takes window
/// anchors row-major and is flushed through `backend` whenever it fills —
/// no descriptor is gathered, and every score is bitwise equal to
/// LinearModel::decision of the window's descriptor. Detections land in
/// `out` (cleared first) in row-major anchor order and in the *level's*
/// pixel coordinates; DetectionEngine's scan step maps them to the frame. A
/// warm batch and warm `out` make the scan allocation-free. Scoring metrics
/// (svm.dot_products, score.batches, score.batch_fill) are recorded here on
/// the calling thread — backends stay obs-silent so counters attribute to
/// the stream that owns the windows. Returns the number of batches flushed.
long long scan_level_into(const hog::BlockGrid& blocks,
                          const hog::HogParams& params,
                          const svm::LinearModel& model,
                          score::ScoringBackend& backend,
                          const ScanOptions& options, score::ScoreBatch& batch,
                          std::vector<Detection>& out);

/// Dense per-anchor score map of one level: pixel (cx, cy) of the returned
/// image is the SVM score of the window anchored at cell (cx, cy). Used for
/// visualising the detector's response surface.
imgproc::ImageF score_map(const hog::BlockGrid& blocks,
                          const hog::HogParams& params,
                          const svm::LinearModel& model);

/// Count of windows a scan of this level evaluates (for the complexity
/// accounting in the pipeline-speedup bench).
long long scan_window_count(const hog::BlockGrid& blocks,
                            const hog::HogParams& params, int cell_stride = 1);

}  // namespace pdet::detect
