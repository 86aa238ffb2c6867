// Fixed-point functional model of the accelerator datapath.
//
// This layer reproduces the *arithmetic* of the RTL: 8-bit pixels in,
// integer centered-difference gradients, CORDIC magnitude/orientation,
// integer histogram accumulation, integer L2-Hys block normalization
// (Newton-iteration isqrt), shift-and-add bilinear feature down-scaling,
// and a quantized-weight MAC array for the SVM dot product.
//
// Each stage's arithmetic lives here once: vote() bins one pixel's gradient,
// deposit() adds a vote to the cells it touches, normalize_group()
// normalizes one 2x2 cell group (its four member cells read the result via
// read_groups()), and ScaleTap::blend() is the scaler's step. Two callers
// use them. The whole-frame loops below (compute_cells, downscale_cells,
// normalize) are the batch oracle behind Accelerator::detect, the
// quantization study and the bit-identity tests. The clocked units of
// streaming.hpp call the same functions at the hardware's cadence, so the
// streamed circuit is bit-identical to this batch path. The accuracy cost
// of the fixed-point word lengths is bounded by tests against the
// double-precision software chain (src/hog + src/svm).
#pragma once

#include <algorithm>
#include <cmath>
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
};

/// Cell-grid size of one pyramid level.
struct LevelSize {
  int cells_x = 0;
  int cells_y = 0;
};

/// One pixel's gradient vote: its orientation bin pair and magnitude. (x, y)
/// are frame coordinates; a zero magnitude votes nowhere.
struct GradientVote {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int16_t bin0 = 0;
  std::int16_t bin1 = 0;
  std::int64_t mag_q = 0;  ///< CORDIC magnitude, Q.hist
  std::int64_t w1_q8 = 0;  ///< orientation weight of bin1, Q8
};

/// 2x2 cell groups along an axis of `cells` >= 1 cells: one starts at every
/// cell but the last, and a one-cell axis has one group, its cell repeated.
inline int group_count(int cells) { return std::max(cells - 1, 1); }

/// The group a cell's feature slot reads along one axis: slot offset `o`
/// (0 or 1) of cell `c` reads the group starting at c - o, clamped to the
/// axis. The cell's quadrant in that group is c - group_of(c, o, cells).
inline int group_of(int c, int o, int cells) {
  return std::clamp(c - o, 0, group_count(cells) - 1);
}

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

  /// The vote of pixel (x, y) whose centered differences on raw 8-bit
  /// pixels are (dx, dy): CORDIC magnitude and angle, the magnitude in
  /// Q.hist, the orientation bin pair and bin1's Q8 weight.
  GradientVote vote(int x, int y, int dx, int dy) const;

  /// Adds `vote` to the histograms of the cells it touches in a `grid`-sized
  /// level: with spatial interpolation, the up to four cells around the
  /// pixel, bilinearly weighted in Q8. `row(cy)` returns cell row cy's
  /// histograms (cells_x * bins), so a caller may hold only the rows a vote
  /// can reach. Pixels past the last whole cell vote nowhere.
  template <typename RowOf>
  void deposit(const GradientVote& vote, LevelSize grid, RowOf&& row) const;

  /// Normalizes the 2x2 cell group whose top-left cell is column `bx` of
  /// cell row `top` and whose lower cells are in `bottom` (cells_x * bins
  /// histograms each; a one-cell-wide row repeats its cell) into `out`:
  /// 4 * bins Q.norm values, member (dx, dy) at (2 * dy + dx) * bins.
  void normalize_group(std::span<const std::int64_t> top,
                       std::span<const std::int64_t> bottom, int bx,
                       std::span<std::int32_t> out) const;

  /// Cell row `cy`'s features (cells_x * 4 * bins, kCellGroups layout) from
  /// the normalized groups it belongs to: `above` is group row
  /// group_of(cy, 1, cells_y) and `at` is group row group_of(cy, 0,
  /// cells_y), each group_count(cells_x) groups of normalize_group's output.
  /// Slot 2 * oy + ox of cell cx holds its quadrant of group
  /// group_of(cx, ox, cells_x) in row `oy ? above : at`.
  void read_groups(int cy, int cells_y, std::span<const std::int32_t> above,
                   std::span<const std::int32_t> at,
                   std::span<std::int32_t> out) const;

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

  /// Integer block normalization into the NHOGMem cell-group layout: every
  /// group of the level once, then each cell row reads its groups.
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
  // Normalization constants. The software chain uses eps = 1e-3 on
  // [0, 1]-range images; raw histograms carry an extra 255 * 2^hist_frac.
  std::int64_t eps_raw_;    ///< eps in the raw histogram domain
  std::int64_t one_norm_;   ///< 1.0 in Q.norm
  std::int64_t clip_norm_;  ///< L2-Hys clip in Q.norm
  std::int64_t eps2_norm_;  ///< eps of the second L2-Hys pass, Q.norm
};

template <typename RowOf>
void FixedHogPipeline::deposit(const GradientVote& vote, LevelSize grid,
                               RowOf&& row) const {
  const int cell = params_.cell_size;
  if (vote.mag_q == 0 || vote.x >= grid.cells_x * cell ||
      vote.y >= grid.cells_y * cell) {
    return;
  }
  constexpr std::int64_t kOneQ8 = 256;
  const auto bins = static_cast<std::size_t>(params_.bins);
  const auto add = [&](int cx, int cy, std::int64_t wsp_q8) {
    if (cx < 0 || cx >= grid.cells_x || cy < 0 || cy >= grid.cells_y) return;
    if (wsp_q8 == 0) return;
    const std::span<std::int64_t> h = std::span<std::int64_t>(row(cy)).subspan(
        static_cast<std::size_t>(cx) * bins, bins);
    // mag_q (Q.hist) * w (Q8) * wsp (Q8) >> 16 keeps Q.hist.
    const std::int64_t base = vote.mag_q * wsp_q8;
    h[static_cast<std::size_t>(vote.bin0)] +=
        (base * (kOneQ8 - vote.w1_q8)) >> 16;
    if (vote.w1_q8 > 0) {
      h[static_cast<std::size_t>(vote.bin1)] += (base * vote.w1_q8) >> 16;
    }
  };
  if (!params_.spatial_interp) {
    add(vote.x / cell, vote.y / cell, kOneQ8);
    return;
  }
  const double fx = (vote.x + 0.5) / cell - 0.5;
  const double fy = (vote.y + 0.5) / cell - 0.5;
  const int cx0 = static_cast<int>(std::floor(fx));
  const int cy0 = static_cast<int>(std::floor(fy));
  const std::int64_t wx1 = std::llround((fx - cx0) * 256.0);
  const std::int64_t wy1 = std::llround((fy - cy0) * 256.0);
  add(cx0, cy0, ((kOneQ8 - wx1) * (kOneQ8 - wy1)) >> 8);
  add(cx0 + 1, cy0, (wx1 * (kOneQ8 - wy1)) >> 8);
  add(cx0, cy0 + 1, ((kOneQ8 - wx1) * wy1) >> 8);
  add(cx0 + 1, cy0 + 1, (wx1 * wy1) >> 8);
}

}  // namespace pdet::hwsim
