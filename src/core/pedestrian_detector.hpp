// Public facade: the multi-scale HOG+SVM pedestrian detector.
//
// This is the API a downstream user programs against:
//
//   pdet::core::DetectorConfig config;                 // paper defaults
//   pdet::core::PedestrianDetector detector(config);
//   detector.train(training_windows);                  // or load_model(path)
//   auto result = detector.detect(frame);              // multi-scale + NMS
//
// Internally it wires the HOG feature pyramid (the paper's contribution),
// the linear SVM, the sliding-window scanner and NMS. Strategy can be
// flipped to the conventional image pyramid for comparisons.
#pragma once

#include <optional>
#include <string>

#include "src/dataset/builder.hpp"
#include "src/detect/engine.hpp"
#include "src/detect/multiscale.hpp"
#include "src/svm/train_dcd.hpp"

namespace pdet::core {

struct DetectorConfig {
  hog::HogParams hog;                      ///< 64x128 window, 9 bins, L2-Hys
  detect::MultiscaleOptions multiscale;    ///< 2 scales, feature pyramid
  svm::DcdOptions training;                ///< LIBLINEAR-style DCD
  int threads = 1;                         ///< pyramid-level lanes in detect()

  /// Scoring backend for detect()/score_window() (kAuto = scalar).
  score::BackendKind backend = score::BackendKind::kAuto;

  /// Externally owned backend overriding `backend` (e.g. an hwsim device);
  /// must outlive the detector.
  score::ScoringBackend* scorer = nullptr;
};

class PedestrianDetector {
 public:
  explicit PedestrianDetector(DetectorConfig config = {});

  /// Train the internal SVM on labelled 64x128 windows.
  svm::TrainReport train(const dataset::WindowSet& windows);

  /// Install / retrieve a model directly.
  void set_model(svm::LinearModel model);
  const svm::LinearModel& model() const;
  bool has_model() const { return model_.has_value(); }

  /// Load/save the model (text format, see svm/model_io.hpp).
  bool load_model(const std::string& path);
  bool save_model(const std::string& path) const;

  /// Multi-scale detection on a grayscale frame. Requires a model. Runs on
  /// an internal persistent DetectionEngine, so repeated calls on same-sized
  /// frames reuse every intermediate buffer (zero steady-state allocation in
  /// the pipeline itself; the returned result is an owned copy).
  detect::MultiscaleResult detect(const imgproc::ImageF& frame) const;

  /// Score a single window-sized image (positive score => pedestrian).
  /// Routed through the engine workspace — repeated calls do not reallocate
  /// the descriptor chain.
  float score_window(const imgproc::ImageF& window) const;

  const DetectorConfig& config() const { return config_; }
  DetectorConfig& mutable_config() { return config_; }

  /// Allocation/reuse accounting of the internal engine.
  const detect::EngineStats& engine_stats() const { return engine_.stats(); }

 private:
  DetectorConfig config_;
  std::optional<svm::LinearModel> model_;
  // detect()/score_window() stay logically const (config and model are
  // untouched); the engine is the reusable scratch behind them.
  mutable detect::DetectionEngine engine_;
};

}  // namespace pdet::core
