#include "src/hwsim/timing.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"
#include "src/util/strings.hpp"

namespace pdet::hwsim {

TimingModel::TimingModel(const TimingConfig& config) : config_(config) {
  PDET_REQUIRE(config.cell_size >= 2);
  PDET_REQUIRE(config.frame_width % config.cell_size == 0);
  PDET_REQUIRE(config.frame_height % config.cell_size == 0);
  PDET_REQUIRE(config.clock_hz > 0);
}

std::uint64_t TimingModel::sweep_cycles(int cols) {
  PDET_REQUIRE(cols >= 1);
  return static_cast<std::uint64_t>(TimingConstants::kFillCycles) +
         static_cast<std::uint64_t>(cols - 1) * TimingConstants::kColumnCycles;
}

std::uint64_t TimingModel::classifier_frame_cycles() const {
  return static_cast<std::uint64_t>(config_.cell_rows()) *
         sweep_cycles(config_.cell_cols());
}

std::uint64_t TimingModel::classifier_frame_cycles_at_scale(double scale) const {
  PDET_REQUIRE(scale >= 1.0);
  const auto rows = static_cast<int>(std::lround(config_.cell_rows() / scale));
  const auto cols = static_cast<int>(std::lround(config_.cell_cols() / scale));
  // A level smaller than the 8 x 16-cell window is dropped, never swept.
  if (cols < TimingConstants::kMacbars ||
      rows < TimingConstants::kBlocksPerColumn) {
    return 0;
  }
  return static_cast<std::uint64_t>(rows) * sweep_cycles(cols);
}

std::uint64_t TimingModel::extractor_frame_cycles() const {
  return static_cast<std::uint64_t>(config_.frame_width) *
         static_cast<std::uint64_t>(config_.frame_height);
}

std::uint64_t TimingModel::frame_latency_cycles() const {
  // Stages are pipelined (Figure 5): the classifier chases the extractor
  // through NHOGMem, so frame latency is the slower stage plus the final
  // sweep that can only start once the last cell row lands.
  return std::max(extractor_frame_cycles(),
                  classifier_frame_cycles()) +
         sweep_cycles(config_.cell_cols());
}

double TimingModel::classifier_frame_ms() const {
  return 1e3 * static_cast<double>(classifier_frame_cycles()) / config_.clock_hz;
}

double TimingModel::frame_latency_ms() const {
  return 1e3 * static_cast<double>(frame_latency_cycles()) / config_.clock_hz;
}

double TimingModel::max_fps() const {
  // Throughput is set by the bottleneck stage (frames stream back to back);
  // the +1-sweep latency term affects delay, not rate.
  const std::uint64_t bottleneck =
      std::max(extractor_frame_cycles(), classifier_frame_cycles());
  return config_.clock_hz / static_cast<double>(bottleneck);
}

bool TimingModel::meets_fps(double target_fps) const {
  return max_fps() >= target_fps;
}

TimingConfig timing_config_for_frame(int width, int height, int cell_size,
                                     double clock_hz) {
  PDET_REQUIRE(width >= cell_size && height >= cell_size);
  TimingConfig config;
  config.cell_size = cell_size;
  config.frame_width = (width / cell_size) * cell_size;
  config.frame_height = (height / cell_size) * cell_size;
  config.clock_hz = clock_hz;
  return config;
}

void publish_timing_metrics(const TimingModel& model,
                            std::span<const double> scales) {
  obs::gauge_set("hwsim.cycles.classifier_frame",
                 static_cast<double>(model.classifier_frame_cycles()));
  obs::gauge_set("hwsim.cycles.extractor_frame",
                 static_cast<double>(model.extractor_frame_cycles()));
  obs::gauge_set("hwsim.cycles.frame_latency",
                 static_cast<double>(model.frame_latency_cycles()));
  obs::gauge_set("hwsim.cycles.column_sweep",
                 static_cast<double>(
                     TimingModel::sweep_cycles(model.config().cell_cols())));
  for (std::size_t i = 0; i < scales.size(); ++i) {
    obs::gauge_set(
        util::format("hwsim.cycles.classifier_level.%zu", i),
        static_cast<double>(
            model.classifier_frame_cycles_at_scale(scales[i])));
  }
  obs::gauge_set("hwsim.classifier_frame_ms", model.classifier_frame_ms());
  obs::gauge_set("hwsim.frame_latency_ms", model.frame_latency_ms());
  obs::gauge_set("hwsim.max_fps", model.max_fps());
}

}  // namespace pdet::hwsim
