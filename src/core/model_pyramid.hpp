// Model-pyramid multi-scale detection (Benenson et al. [1], via Dollar [5]).
//
// The third family of multi-scale approaches the paper's related work
// covers: instead of resizing the image (baseline) or the features (the
// paper), train one SVM per object scale — with window sizes 64x128,
// 80x160, ... — and scan every model over the *single* native-resolution
// feature grid (one DetectionEngine level at scale 1, scored per model by
// the engine's scan step). All resampling moves into the (offline)
// training stage; detection needs no pyramid at all, which is how [1]
// reached 135 fps.
// Included here so the three strategies can be compared head to head on the
// same substrate.
#pragma once

#include <vector>

#include "src/dataset/builder.hpp"
#include "src/detect/engine.hpp"
#include "src/svm/train_dcd.hpp"

namespace pdet::core {

struct ModelPyramidConfig {
  /// Object scales to train models for (window = scale * 64x128, rounded to
  /// whole cells).
  std::vector<double> scales{1.0, 1.25, 1.5, 2.0};
  hog::HogParams base;            ///< geometry of the scale-1 model
  svm::DcdOptions training;
  float threshold = 0.0f;
  double nms_iou = 0.45;
};

class ModelPyramidDetector {
 public:
  explicit ModelPyramidDetector(ModelPyramidConfig config = {});

  /// Train one model per scale from base-scale (64x128) windows: each
  /// model's training set is the base set up-sampled to its window size
  /// (the resampling cost the approach pays once, offline).
  void train(const dataset::WindowSet& base_windows);

  bool trained() const { return !models_.empty(); }
  std::size_t model_count() const { return models_.size(); }
  const hog::HogParams& model_params(std::size_t i) const;

  /// Detect with every model over ONE feature extraction of the frame —
  /// no image or feature pyramid at run time: a one-level build_pyramid at
  /// scale 1, then one DetectionEngine::scan_pyramid per model. The frame
  /// must be cell-aligned (see hog::require_frame_alignment). Not safe for
  /// concurrent calls: the level is built in one reusable engine workspace.
  detect::MultiscaleResult detect(const imgproc::ImageF& frame) const;

 private:
  struct ScaledModel {
    double scale;
    hog::HogParams params;
    svm::LinearModel model;
  };
  ModelPyramidConfig config_;
  std::vector<ScaledModel> models_;
  /// Builds the native level and scores each model over it; its warm
  /// workspace is scratch behind the const detect().
  mutable detect::DetectionEngine engine_;
};

}  // namespace pdet::core
