// Top-level accelerator model: fixed-point multi-scale detection, the
// cycle-level streaming run that produces it, and the resource and
// closed-form timing reports for a frame size.
//
// This is the object the examples and benches instantiate. stream() wires
// the clocked units of streaming.hpp into the paper's circuit for the
// configured scale list and answers both "what does the hardware detect"
// and "when": one simulated run yields every level's window scores and the
// cycle counts. detect() is the cheap batch path over FixedHogPipeline; it
// gives the same raw detections without simulating cycles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/detect/detection.hpp"
#include "src/hwsim/fixed_pipeline.hpp"
#include "src/hwsim/resources.hpp"
#include "src/hwsim/streaming.hpp"
#include "src/hwsim/timing.hpp"

namespace pdet::sim {
class VcdWriter;
}  // namespace pdet::sim

namespace pdet::hwsim {

struct AcceleratorConfig {
  hog::HogParams hog;                  ///< layout must be kCellGroups
  FixedPointConfig fixed;
  std::vector<double> scales{1.0, 2.0};  ///< paper hardware: two scales
  int nhogmem_rows = 18;               ///< ring depth; >= a window's cell rows
  double clock_hz = 125e6;
  float threshold = 0.0f;              ///< detection operating point
};

/// One level of a streamed run: its grid and what its chain did.
struct StreamLevel {
  double scale = 1.0;
  LevelSize grid;
  std::vector<WindowScore> scores;  ///< every frame's windows, in pass order
  int nhog_max_occupancy = 0;
  std::uint64_t min_bank_reads = 0;
  std::uint64_t max_bank_reads = 0;
};

/// What one streamed run reports: the scores and the timing of one circuit.
struct StreamingResult {
  /// The configured scales in order, less those too small for a window;
  /// levels[0] is the native grid.
  std::vector<StreamLevel> levels;
  std::uint64_t total_cycles = 0;
  int nhog_capacity = 0;
  /// Cycle at which each frame's last window pass finished, on every level.
  std::vector<std::uint64_t> frame_done_cycles;
  /// Median frame-to-frame completion period; 0 for a single frame.
  std::uint64_t sustained_period_cycles = 0;
  double utilization_gradient = 0.0;    ///< gradient-unit busy / total cycles
  double utilization_classifier = 0.0;  ///< native classifier busy / total
  double frame_ms = 0.0;                ///< total cycles per frame at clock_hz
  double fps = 0.0;                     ///< 1000 / frame_ms
};

struct FrameResult {
  std::vector<detect::Detection> detections;  ///< post-NMS, frame coordinates
  std::vector<detect::Detection> raw;
  StreamingResult timing;
};

class Accelerator {
 public:
  Accelerator(const AcceleratorConfig& config, const svm::LinearModel& model);

  /// Stream `frames` (all one size, the native level holding a window) back
  /// to back through the cycle-level circuit: the extractor's cell rows fan
  /// out to one [scaler →] normalizer → NHOGMem → classifier chain per
  /// level. The pixel source is never stalled; if the circuit cannot keep up
  /// the run aborts with a pixel FIFO overrun. With `vcd`, FIFO and ring
  /// occupancy are sampled every cycle (keep the frame small).
  StreamingResult stream(std::span<const imgproc::ImageU8> frames,
                         sim::VcdWriter* vcd = nullptr) const;

  /// One frame through stream(): its detections and its timing come from
  /// the same simulated frame. `raw` equals detect(frame).
  FrameResult process_frame(const imgproc::ImageU8& frame) const;

  /// The batch path: the same raw detections, no cycle simulation.
  std::vector<detect::Detection> detect(const imgproc::ImageU8& frame) const;

  /// Resource report for this configuration.
  ResourceModel resources(int frame_width, int frame_height) const;

  /// Closed-form timing for this configuration.
  TimingModel timing(int frame_width, int frame_height) const;

  const AcceleratorConfig& config() const { return config_; }
  const QuantizedModel& quantized_model() const { return qmodel_; }

 private:
  AcceleratorConfig config_;
  FixedHogPipeline pipeline_;
  QuantizedModel qmodel_;
};

}  // namespace pdet::hwsim
