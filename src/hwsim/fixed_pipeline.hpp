// Fixed-point functional model of the accelerator datapath.
//
// This layer reproduces the *arithmetic* of the RTL: 8-bit pixels in,
// integer centered-difference gradients, CORDIC magnitude/orientation,
// integer histogram accumulation, integer L2-Hys block normalization
// (Newton-iteration isqrt), shift-and-add bilinear feature down-scaling,
// and a quantized-weight MAC array for the SVM dot product. It computes a
// whole frame at once: the *values* the hardware computes, so the test suite
// can bound the accuracy cost of fixed-point quantization against the
// double-precision software chain (src/hog + src/svm). The cycle-level model
// in streaming.hpp streams the same arithmetic and is checked bit for bit
// against this one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/fixedpoint/cordic.hpp"
#include "src/fixedpoint/shiftadd.hpp"
#include "src/hog/params.hpp"
#include "src/imgproc/image.hpp"
#include "src/svm/linear_svm.hpp"

namespace pdet::hwsim {

struct FixedPointConfig {
  int cordic_iterations = 12;
  int hist_frac_bits = 8;     ///< cell-histogram fractional bits (Q.8)
  int norm_frac_bits = 14;    ///< normalized feature Q.14 (values < 2)
  int weight_frac_bits = 14;  ///< SVM weight quantization Q.14
  int scale_frac_bits = 8;    ///< down-scaler coefficient quantization Q.8
};

/// Cell histograms in integer Q(hist_frac_bits).
struct IntCellGrid {
  int cells_x = 0;
  int cells_y = 0;
  int bins = 0;
  std::vector<std::int64_t> data;

  std::span<std::int64_t> hist(int cx, int cy);
  std::span<const std::int64_t> hist(int cx, int cy) const;
};

/// Normalized cell-group features in integer Q(norm_frac_bits)
/// (kCellGroups layout: 36 values per cell).
struct IntBlockGrid {
  int cells_x = 0;
  int cells_y = 0;
  int feature_len = 0;
  std::vector<std::int32_t> data;

  std::span<const std::int32_t> features(int cx, int cy) const;
  std::span<std::int32_t> features(int cx, int cy);
};

/// Cell-grid size of one pyramid level.
struct LevelSize {
  int cells_x = 0;
  int cells_y = 0;
};

/// SVM model with weights quantized for the MAC array.
struct QuantizedModel {
  std::vector<std::int32_t> weights;  ///< Q(weight_frac_bits)
  std::int64_t bias = 0;              ///< Q(weight_frac + norm_frac)
  int weight_frac_bits = 14;
  int norm_frac_bits = 14;

  static QuantizedModel quantize(const svm::LinearModel& model,
                                 const FixedPointConfig& config);

  /// Integer dot product + bias, returned in the float score domain
  /// (directly comparable to svm::LinearModel::decision).
  double decision(std::span<const std::int32_t> features) const;
};

/// One output sample of the separable bilinear down-scaler: it reads source
/// samples i0 and i1, weighted by CSD shift-and-add constants (no
/// multiplier), as the paper's scaling modules do.
struct ScaleTap {
  int i0;
  int i1;
  fixedpoint::ShiftAddConstant w0;
  fixedpoint::ShiftAddConstant w1;

  /// out[k] = round((w0 * a[k] + w1 * b[k]) / 2^frac_bits): the scaler's one
  /// arithmetic step, on a cell's bins.
  void blend(std::span<const std::int64_t> a, std::span<const std::int64_t> b,
             std::span<std::int64_t> out) const;
};

/// Taps mapping `src_n` samples onto `out_n` <= src_n, pixel centres aligned.
std::vector<ScaleTap> scale_taps(int out_n, int src_n, int frac_bits);

/// Integer square root: floor(sqrt(v)) by Newton iteration, the standard
/// FPGA-friendly form (converges in < 40 iterations for 64-bit inputs; the
/// RTL pipelines this across cycles).
std::int64_t isqrt64(std::int64_t v);

class FixedHogPipeline {
 public:
  FixedHogPipeline(const hog::HogParams& params,
                   const FixedPointConfig& config = {});

  const hog::HogParams& params() const { return params_; }
  const FixedPointConfig& config() const { return config_; }

  /// Gradient + CORDIC + integer histogram voting over an 8-bit image.
  IntCellGrid compute_cells(const imgproc::ImageU8& image) const;

  /// Shift-and-add bilinear down-scaling of the integer cell grid — the
  /// hardware scaling module of paper Figure 6.
  IntCellGrid downscale_cells(const IntCellGrid& src, int out_cells_x,
                              int out_cells_y) const;

  /// The level at `scale` over a `base` grid: each side divided by `scale`
  /// and rounded to the nearest cell. A level too small to hold one window
  /// is dropped (nullopt), never stretched to fit.
  std::optional<LevelSize> level_size(LevelSize base, double scale) const;

  /// Integer block normalization into the NHOGMem cell-group layout.
  IntBlockGrid normalize(const IntCellGrid& cells) const;

  /// Gather a window descriptor (Q.norm ints), anchor at cell (cx, cy).
  std::vector<std::int32_t> extract_window(const IntBlockGrid& blocks, int cx,
                                           int cy) const;

  /// Full fixed-point window classification (float-domain score out).
  double classify_window(const IntBlockGrid& blocks, const QuantizedModel& model,
                         int cx, int cy) const;

 private:
  hog::HogParams params_;
  FixedPointConfig config_;
  fixedpoint::Cordic cordic_;
};

}  // namespace pdet::hwsim
