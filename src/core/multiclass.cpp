#include "src/core/multiclass.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace pdet::core {

void MultiClassDetector::add_class(std::string name,
                                   const hog::HogParams& params,
                                   svm::LinearModel model, float threshold) {
  params.validate();
  PDET_REQUIRE(model.dimension() ==
               static_cast<std::size_t>(params.descriptor_size()));
  if (!classes_.empty()) {
    const hog::HogParams& ref = classes_.front().params;
    PDET_REQUIRE(params.cell_size == ref.cell_size);
    PDET_REQUIRE(params.bins == ref.bins);
    PDET_REQUIRE(params.norm == ref.norm);
    PDET_REQUIRE(params.layout == ref.layout);
    PDET_REQUIRE(params.gradient_op == ref.gradient_op);
    PDET_REQUIRE(params.spatial_interp == ref.spatial_interp);
    PDET_REQUIRE(params.orientation_interp == ref.orientation_interp);
    PDET_REQUIRE(params.normalize_epsilon == ref.normalize_epsilon);
    PDET_REQUIRE(params.l2hys_clip == ref.l2hys_clip);
    PDET_REQUIRE(params.presmooth_sigma == ref.presmooth_sigma);
  }
  classes_.push_back({std::move(name), params, std::move(model), threshold});
}

const std::string& MultiClassDetector::class_name(std::size_t i) const {
  PDET_REQUIRE(i < classes_.size());
  return classes_[i].name;
}

std::vector<ClassDetection> MultiClassDetector::detect(
    const imgproc::ImageF& frame, const MulticlassOptions& options) const {
  PDET_REQUIRE(!classes_.empty());
  // One feature pyramid for everyone — the paper's shared-NHOGMem economy.
  // Pyramid levels are kept as long as the *smallest* class window fits
  // (vehicles at 64x64 scan levels already too small for 64x128 people).
  hog::HogParams shared = classes_.front().params;
  for (const ObjectClass& cls : classes_) {
    shared.window_width = std::min(shared.window_width, cls.params.window_width);
    shared.window_height =
        std::min(shared.window_height, cls.params.window_height);
  }
  detect::MultiscaleOptions pyramid;
  pyramid.strategy = detect::PyramidStrategy::kFeature;
  pyramid.scales = options.scales;
  pyramid.feature_interp = options.feature_interp;
  pyramid.nms_iou = options.nms_iou;
  engine_.build_pyramid(frame, shared, pyramid);

  std::vector<ClassDetection> out;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const ObjectClass& cls = classes_[c];
    pyramid.scan.threshold = cls.threshold;
    const detect::MultiscaleResult& found =
        engine_.scan_pyramid(cls.params, cls.model, pyramid);
    for (const detect::Detection& d : found.detections) {
      out.push_back({static_cast<int>(c), cls.name, d});
    }
  }
  return out;
}

}  // namespace pdet::core
