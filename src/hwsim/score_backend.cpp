#include "src/hwsim/score_backend.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "src/hwsim/timing.hpp"
#include "src/util/assert.hpp"

namespace pdet::hwsim {

HwsimScoreBackend::HwsimScoreBackend(HwsimBackendOptions options)
    : options_(options) {
  PDET_REQUIRE(options_.clock_hz > 0.0);
}

double HwsimScoreBackend::modeled_busy_seconds() const {
  std::lock_guard<std::mutex> lock(device_);
  return static_cast<double>(busy_cycles_) / options_.clock_hz;
}

void HwsimScoreBackend::kernel(const svm::LinearModel& model,
                               score::ScoreBatch& batch) {
  std::lock_guard<std::mutex> lock(device_);

  // (Re)load the model into the MAC array when it changes. Keyed on the
  // weight storage identity: the runtime shares one model across streams,
  // so steady state quantizes once and never allocates.
  if (model_key_ != model.weights.data() ||
      model_dim_ != model.weights.size()) {
    quantized_ = QuantizedModel::quantize(model, options_.fixed);
    model_key_ = model.weights.data();
    model_dim_ = model.weights.size();
  }
  const std::size_t dim = batch.dimension();
  if (row_.size() < dim) row_.resize(dim);
  if (q_row_.size() < dim) q_row_.resize(dim);
  const std::span<float> row(row_.data(), dim);

  // Device-boundary quantization mirrors the weight path in
  // QuantizedModel::quantize: round-to-nearest into Q(norm_frac_bits).
  const double fscale = std::ldexp(1.0, options_.fixed.norm_frac_bits);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.window(i, row);
    for (std::size_t j = 0; j < dim; ++j) {
      q_row_[j] = static_cast<std::int32_t>(
          std::llround(static_cast<double>(row[j]) * fscale));
    }
    batch.set_score(i, static_cast<float>(quantized_.decision(
                           std::span<const std::int32_t>(q_row_.data(), dim))));
  }

  // Charge the batch what the RTL would pay: one pipeline fill plus one
  // column cadence per window (timing.hpp, paper Section 5).
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(TimingConstants::kFillCycles) +
      static_cast<std::uint64_t>(batch.size()) *
          static_cast<std::uint64_t>(TimingConstants::kColumnCycles);
  busy_cycles_ += cycles;
  if (options_.simulate_latency) {
    const double seconds = static_cast<double>(cycles) / options_.clock_hz;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

}  // namespace pdet::hwsim
