// Multi-scale detection with interchangeable pyramid strategies.
//
// PyramidStrategy::kFeature is the paper's method (down-sample HOG features,
// Figure 3b / Figure 6); kImage is the conventional baseline it is measured
// against (down-sample the image and re-extract, Figure 3a). Both feed the
// identical scanner and SVM model, so any accuracy/throughput difference is
// attributable to the pyramid construction alone.
#pragma once

#include "src/detect/nms.hpp"
#include "src/detect/scanner.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/imgproc/resize.hpp"

namespace pdet::detect {

enum class PyramidStrategy {
  kImage,    ///< conventional: resize image, re-extract HOG per level
  kFeature,  ///< proposed: extract HOG once, down-sample features per level
  kHybrid,   ///< Dollar [4]: re-extract per octave, feature-scale within
};

struct MultiscaleOptions {
  std::vector<double> scales{1.0, 2.0};  ///< paper's 2-scale hardware config
  PyramidStrategy strategy = PyramidStrategy::kFeature;
  hog::FeatureInterp feature_interp = hog::FeatureInterp::kBilinear;
  imgproc::Interp image_interp = imgproc::Interp::kBilinear;
  ScanOptions scan;
  double nms_iou = 0.45;
  bool run_nms = true;
};

/// Per-level accounting, filled identically for every PyramidStrategy (and
/// by core::ModelPyramidDetector): one entry per level actually scanned,
/// after the engine drops levels smaller than one window.
struct LevelStats {
  double scale = 1.0;
  int cells_x = 0;            ///< cell-grid width of the scanned level
  int cells_y = 0;
  long long windows = 0;      ///< windows the scan evaluated at this level
  long long detections = 0;   ///< pre-NMS hits at this level
  double ms = 0.0;            ///< wall time spent on this level's pipeline
};

struct MultiscaleResult {
  std::vector<Detection> detections;   ///< final (post-NMS if enabled)
  std::vector<Detection> raw;          ///< pre-NMS responses
  std::vector<LevelStats> per_level;   ///< one entry per scanned level
  long long windows_evaluated = 0;     ///< sum of per_level[i].windows
  int levels = 0;                      ///< == per_level.size()
};

/// Detect pedestrians in `image` at every configured scale. Detections come
/// back in original-image coordinates (level coordinates scaled up by the
/// level's scale factor).
MultiscaleResult detect_multiscale(const imgproc::ImageF& image,
                                   const hog::HogParams& params,
                                   const svm::LinearModel& model,
                                   const MultiscaleOptions& options);

}  // namespace pdet::detect
