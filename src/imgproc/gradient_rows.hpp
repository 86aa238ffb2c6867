// The streaming row pass behind the gradient and cell-histogram stages.
//
// Gradients are computed one image row at a time from three
// border-replicated input rows held in a ring — the way the paper's line
// buffers feed its gradient unit — instead of into full-frame planes. The
// row kernels are dual-compiled behind the util::simd seam, and both
// compute_gradients_into and hog::compute_cell_grid_into run them.
//
// Rows are padded to whole kRowSpan spans and the kernels have no scalar
// tail, so every pixel runs the same instruction sequence wherever it sits
// in its row. That keeps a tile's features bit-identical to the same pixels
// of the untiled frame: a vector body and a scalar epilogue could otherwise
// round differently (GCC contracts a*b+c into FMA where the ISA has it).
#pragma once

#include <cstddef>

#include "src/imgproc/gradient.hpp"
#include "src/util/simd.hpp"

namespace pdet::imgproc {

/// Pixels per kernel span (one 8-float AVX2 vector). Row lengths handed to
/// the kernels are multiples of it.
inline constexpr int kRowSpan = 8;

/// Error bound of GradientKernels::polar's orientation, in radians: the
/// circular distance to fold_unsigned(std::atan2(dy, dx)) never exceeds it.
inline constexpr float kOrientationMaxError = 1e-6f;

/// One ISA's copy of the row kernels; `n` is a multiple of kRowSpan.
struct GradientKernels {
  /// dx and dy of n pixels under `op`. `above`, `row` and `below` point at
  /// pixel 0 of border-replicated rows readable on [-1, n].
  void (*stencil)(GradientOp op, const float* above, const float* row,
                  const float* below, int n, float* dx, float* dy);
  /// Magnitude sqrt(dx^2 + dy^2) and unsigned orientation in [0, pi) of n
  /// pixels. The orientation is a range-reduced odd polynomial for atan (no
  /// std::atan2, no fmod), within kOrientationMaxError; a zero gradient gets
  /// orientation 0. The baseline copy's magnitudes and stencil values equal
  /// the plain formulas bit for bit; the AVX2 copy may fuse multiply-adds.
  void (*polar)(const float* dx, const float* dy, int n, float* magnitude,
                float* orientation);
};

const util::simd::Kernels<GradientKernels>& gradient_kernels();

/// Streams the gradients of columns [0, cols) of an image, row by row,
/// through one ISA's kernels. Every buffer is carved from caller-owned
/// scratch, so a warm stream allocates nothing.
class GradientRows {
 public:
  /// Padded row length: `cols` rounded up to whole spans.
  static int span_for(int cols);
  /// Floats of scratch a stream over `cols` columns uses. A multiple of 16,
  /// so buffers carved after it keep the scratch's 64-byte alignment.
  static std::size_t scratch_floats(int cols);

  /// `scratch` holds scratch_floats(cols) floats. Columns of `src` past
  /// `cols` still feed the stencil, as they would the full frame's gradient.
  GradientRows(const ImageF& src, GradientOp op, int cols,
               const GradientKernels& kernels, float* scratch);

  /// Compute row `y` (0 <= y < src.height(), increasing across calls).
  /// Magnitudes of the padding columns [cols, span()) are zero, so those
  /// columns vote nothing.
  void compute(int y);

  int span() const { return span_; }
  const float* dx() const { return dx_; }
  const float* dy() const { return dy_; }
  const float* magnitude() const { return magnitude_; }
  const float* orientation() const { return orientation_; }

 private:
  /// Image row `y`, border-replicated into its ring slot (loaded once).
  const float* input_row(int y);

  const ImageF& src_;
  GradientOp op_;
  int cols_;
  int span_;
  const GradientKernels& kernels_;
  std::size_t in_stride_;
  float* in_;
  int held_[3] = {-1, -1, -1};  ///< image row each ring slot holds
  float* dx_;
  float* dy_;
  float* magnitude_;
  float* orientation_;
};

}  // namespace pdet::imgproc
