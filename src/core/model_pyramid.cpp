#include "src/core/model_pyramid.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/assert.hpp"
#include "src/util/logging.hpp"

namespace pdet::core {
namespace {

int round_to_cells(double pixels, int cell_size) {
  return std::max(
      cell_size,
      static_cast<int>(std::lround(pixels / cell_size)) * cell_size);
}

}  // namespace

ModelPyramidDetector::ModelPyramidDetector(ModelPyramidConfig config)
    : config_(std::move(config)) {
  config_.base.validate();
  PDET_REQUIRE(!config_.scales.empty());
}

const hog::HogParams& ModelPyramidDetector::model_params(std::size_t i) const {
  PDET_REQUIRE(i < models_.size());
  return models_[i].params;
}

void ModelPyramidDetector::train(const dataset::WindowSet& base_windows) {
  PDET_REQUIRE(base_windows.positives() > 0 && base_windows.negatives() > 0);
  models_.clear();
  for (const double s : config_.scales) {
    PDET_REQUIRE(s >= 1.0);
    ScaledModel sm;
    sm.scale = s;
    sm.params = config_.base;
    sm.params.window_width =
        round_to_cells(config_.base.window_width * s, config_.base.cell_size);
    sm.params.window_height =
        round_to_cells(config_.base.window_height * s, config_.base.cell_size);
    sm.params.validate();

    // Up-sample the training windows to this model's geometry — the offline
    // resampling that replaces all run-time pyramids.
    dataset::WindowSet scaled;
    scaled.labels = base_windows.labels;
    scaled.windows.reserve(base_windows.count());
    for (const auto& w : base_windows.windows) {
      scaled.windows.push_back(
          imgproc::resize(w, sm.params.window_width, sm.params.window_height,
                          imgproc::Interp::kBicubic));
    }
    const svm::Dataset data = dataset::to_svm_dataset(scaled, sm.params);
    sm.model = svm::train_dcd(data, config_.training);
    util::log_info("model pyramid: trained %dx%d model (scale %.2f, dim %zu)",
                   sm.params.window_width, sm.params.window_height, s,
                   sm.model.dimension());
    models_.push_back(std::move(sm));
  }
}

detect::MultiscaleResult ModelPyramidDetector::detect(
    const imgproc::ImageF& frame) const {
  PDET_REQUIRE(trained());
  // ONE extraction + normalization at the native scale; every model scans
  // the same level. The models' windows are scale-sized, so their boxes are
  // already in native pixels and only their scale names the model.
  detect::MultiscaleOptions native;
  native.scales = {1.0};
  native.scan.threshold = config_.threshold;
  native.run_nms = false;
  engine_.build_pyramid(frame, config_.base, native);

  detect::MultiscaleResult result;
  for (const ScaledModel& sm : models_) {
    const detect::MultiscaleResult& found =
        engine_.scan_pyramid(sm.params, sm.model, native);
    for (detect::LevelStats stats : found.per_level) {
      stats.scale = sm.scale;
      result.per_level.push_back(stats);
    }
    for (detect::Detection d : found.raw) {
      d.scale = sm.scale;
      result.raw.push_back(d);
    }
    result.windows_evaluated += found.windows_evaluated;
  }
  result.levels = static_cast<int>(result.per_level.size());
  result.detections = detect::nms(result.raw, config_.nms_iou);
  return result;
}

}  // namespace pdet::core
