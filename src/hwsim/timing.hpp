// Closed-form timing model of the accelerator (paper Section 5).
//
// Key cadences, straight from the paper:
//  * The classifier "is capable of calculating the dot product for two block
//    columns every 72 clock cycles" => one block column per 36 cycles (16
//    MACs x 36 features per block x 16 blocks per column = 576 MACs / 16
//    units = 36 cycles).
//  * "after the initial 288 cycles required for the buffer to get full,
//    every 36 clock cycles one column of blocks is read" — 288 = 8 columns
//    (the window width in blocks) x 36 cycles to prime the 8 MACBAR stages.
//  * "another 288 cycles are required to fill the SVM buffer" at each row
//    wrap => per cell row: 288 + (columns - 1) * 36 cycles.
//  * HDTV: 135 cell rows x (288 + 239 * 36) = 135 x 8892 = 1,200,420 cycles
//    — exactly the paper's figure; < 10 ms at 125 MHz.
//  * The HOG front end ingests one pixel per cycle, so frame ingest takes
//    width x height cycles (1920x1080 / 125 MHz = 16.59 ms): the classifier
//    finishes well inside the frame period, which is what makes the 60 fps
//    HDTV claim work.
//
// The cycle-level circuit (streaming.hpp, run by Accelerator::stream) meets
// these figures: bench_throughput_hw exits 1 unless its sustained HDTV rate
// at two scales is >= 60 fps and its single-frame latency is within 1 % of
// frame_latency_cycles(). Its classifier sweeps each row in sweep_cycles().
#pragma once

#include <cstdint>
#include <span>

namespace pdet::hwsim {

struct TimingConstants {
  static constexpr int kMacsPerMacbar = 16;
  static constexpr int kMacbars = 8;
  static constexpr int kFeaturesPerBlock = 36;
  static constexpr int kBlocksPerColumn = 16;  ///< window height in blocks
  static constexpr int kColumnCycles = 36;     ///< steady-state column cadence
  static constexpr int kFillCycles = 288;      ///< kMacbars * kColumnCycles
};

struct TimingConfig {
  int frame_width = 1920;
  int frame_height = 1080;
  int cell_size = 8;
  double clock_hz = 125e6;

  int cell_cols() const { return frame_width / cell_size; }
  int cell_rows() const { return frame_height / cell_size; }
};

class TimingModel {
 public:
  explicit TimingModel(const TimingConfig& config = {});

  /// Cycles for one classifier sweep across a row of `cols` block columns.
  static std::uint64_t sweep_cycles(int cols);

  /// Classifier cycles for the whole frame (all cell rows swept).
  std::uint64_t classifier_frame_cycles() const;

  /// Classifier cycles for a down-scaled level (grid shrunk by `scale`,
  /// each side rounded to the nearest cell); 0 for a level smaller than the
  /// 8 x 16-cell window, which the accelerator drops
  /// (FixedHogPipeline::level_size).
  std::uint64_t classifier_frame_cycles_at_scale(double scale) const;

  /// Front-end ingest cycles (one pixel per cycle).
  std::uint64_t extractor_frame_cycles() const;

  /// End-to-end cycles to finish a frame with extraction and classification
  /// pipelined: bounded by the slower of the two stages.
  std::uint64_t frame_latency_cycles() const;

  double classifier_frame_ms() const;
  double frame_latency_ms() const;
  double max_fps() const;

  /// True when the configuration sustains `target_fps` (paper: 60 fps HDTV).
  bool meets_fps(double target_fps) const;

  const TimingConfig& config() const { return config_; }

 private:
  TimingConfig config_;
};

/// Timing config for an arbitrary software frame: dimensions are rounded
/// down to whole cells (matching compute_cell_grid's drop of trailing
/// partial cells) so the model accepts any image the detector accepts.
TimingConfig timing_config_for_frame(int width, int height, int cell_size = 8,
                                     double clock_hz = 125e6);

/// Publish the model's cycle accounting into the obs metrics registry so the
/// modeled-hardware view sits beside the host-time metrics in one report:
///   hwsim.cycles.classifier_frame / extractor_frame / frame_latency /
///   column_sweep, hwsim.cycles.classifier_level.<i> per scale, plus
///   hwsim.classifier_frame_ms / frame_latency_ms / max_fps.
/// No-op unless obs::metrics_enabled().
void publish_timing_metrics(const TimingModel& model,
                            std::span<const double> scales = {});

}  // namespace pdet::hwsim
