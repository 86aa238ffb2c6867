// Accelerator offload scoring backend (pdet::hwsim::HwsimScoreBackend).
//
// Plugs the MACBAR fixed-point classifier (fixed_pipeline.hpp) into the
// pdet::score seam as an "offload device": each window's float descriptor,
// read out of the batch's planes through ScoreBatch::window, is quantized
// to Q(norm_frac_bits) at the device boundary, scored by the
// quantized-weight integer dot product, and — when simulate_latency is on —
// the closed-form timing model (timing.hpp) charges the batch the cycles
// the RTL would spend:
//
//   batch latency = (kFillCycles + count * kColumnCycles) / clock_hz
//
// i.e. one MACBAR fill to prime the pipeline, then one column cadence per
// window. Every score() call pays its own kFillCycles, whichever engine or
// stream makes the call: batches are never merged across callers.
//
// The device serializes internally (one mutex = one datapath, held while the
// modeled latency sleeps), so the runtime's engines call it directly and
// queue on that mutex the way frames queue on the paper's single MACBAR
// pipeline. Scores are deterministic regardless of how many engine lanes or
// streams share it, and differ from the float backends by quantization
// (Q.14 features and weights), not by batch composition.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/hwsim/fixed_pipeline.hpp"
#include "src/score/backend.hpp"

namespace pdet::hwsim {

struct HwsimBackendOptions {
  FixedPointConfig fixed;          ///< quantization of features + weights
  double clock_hz = 125e6;         ///< paper clock for the latency model
  bool simulate_latency = true;    ///< sleep the modeled batch latency
};

class HwsimScoreBackend final : public score::BackendBase {
 public:
  explicit HwsimScoreBackend(HwsimBackendOptions options = {});

  score::BackendKind kind() const override {
    return score::BackendKind::kHwsim;
  }

  const HwsimBackendOptions& options() const { return options_; }

  /// Modeled device-busy time accumulated so far, seconds. Counts the
  /// fill + column cycles of every batch whether or not simulate_latency
  /// actually sleeps them — so benches can report modeled device time while
  /// running the arithmetic at host speed.
  double modeled_busy_seconds() const;

 protected:
  void kernel(const svm::LinearModel& model, score::ScoreBatch& batch) override;

 private:
  HwsimBackendOptions options_;

  mutable std::mutex device_;      ///< one datapath: batches serialize
  const float* model_key_ = nullptr;  ///< weights identity of quantized_
  std::size_t model_dim_ = 0;
  QuantizedModel quantized_;
  std::vector<float> row_;            ///< window descriptor scratch
  std::vector<std::int32_t> q_row_;   ///< quantized feature scratch
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace pdet::hwsim
