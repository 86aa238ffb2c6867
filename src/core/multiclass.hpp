// Multi-class detection over a shared HOG feature pyramid.
//
// Paper Section 1: "Employing several instances of the SVM classifier could
// provide real-time multiple object detection capability which is highly
// demanded in applications such as driver assistance systems." This module
// realizes that architecture in software: the cell-histogram pyramid and
// block normalization are computed once per frame, and one SVM per object
// class (with its own window geometry — 64x128 pedestrians, 64x64 vehicles)
// scans the shared normalized features through the engine's one scan step
// (DetectionEngine::scan_pyramid), exactly as the hardware would run
// several MACBAR classifier instances against one NHOGMem.
#pragma once

#include <string>
#include <vector>

#include "src/detect/engine.hpp"
#include "src/svm/linear_svm.hpp"

namespace pdet::core {

struct ClassDetection {
  int class_index = 0;
  std::string class_name;
  detect::Detection box;
};

struct MulticlassOptions {
  std::vector<double> scales{1.0, 2.0};
  hog::FeatureInterp feature_interp = hog::FeatureInterp::kBilinear;
  double nms_iou = 0.45;  ///< NMS is per class (a car may contain a person)
};

class MultiClassDetector {
 public:
  MultiClassDetector() = default;

  /// Register a class. All classes must agree on every HogParams field but
  /// the window size (they share the cells and blocks of one feature
  /// pyramid); window geometry and model are per class.
  void add_class(std::string name, const hog::HogParams& params,
                 svm::LinearModel model, float threshold = 0.0f);

  std::size_t class_count() const { return classes_.size(); }
  const std::string& class_name(std::size_t i) const;

  /// Detect all registered classes in one pass: one feature pyramid, one
  /// normalization, then one DetectionEngine::scan_pyramid per class (its
  /// scan step, level-to-frame mapping and NMS). The frame must be
  /// cell-aligned (see hog::require_frame_alignment). Not safe for
  /// concurrent calls: the pyramid is built in one reusable engine
  /// workspace.
  std::vector<ClassDetection> detect(const imgproc::ImageF& frame,
                                     const MulticlassOptions& options = {}) const;

 private:
  struct ObjectClass {
    std::string name;
    hog::HogParams params;
    svm::LinearModel model;
    float threshold;
  };
  std::vector<ObjectClass> classes_;
  /// Builds the shared pyramid (kFeature, one lane) and scores each class
  /// over it; its warm workspace is scratch behind the const detect(), like
  /// PedestrianDetector's engine.
  mutable detect::DetectionEngine engine_;
};

}  // namespace pdet::core
