#include "src/imgproc/gradient.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/imgproc/gradient_rows.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace pdet::imgproc {
namespace {

constexpr float kPi = std::numbers::pi_v<float>;
// Range-reduction threshold of the orientation polynomial, tan(pi/8).
constexpr float kTanPi8 = 0.41421356237309503f;
// atan(t) ~= t + t^3 (c3 + c5 t^2 + c7 t^4 + c9 t^6) for |t| <= tan(pi/8):
// the Cephes atanf minimax coefficients (relative error ~2e-7).
constexpr float kAtanC3 = -3.33329491539e-1f;
constexpr float kAtanC5 = 1.99777106478e-1f;
constexpr float kAtanC7 = -1.38776856032e-1f;
constexpr float kAtanC9 = 8.05374449538e-2f;

using util::simd::padded_floats;

// Floats before pixel 0 of an input row: x = -1 stays readable and pixel 0
// stays 32-byte aligned.
constexpr int kLead = 8;

std::size_t input_stride(int span) {
  return padded_floats(static_cast<std::size_t>(kLead + span + 1));
}

#define PDET_SIMD_KERNEL_FILE "src/imgproc/gradient_kernels.inc"
#include "src/util/simd_clone.inc"

}  // namespace

const util::simd::Kernels<GradientKernels>& gradient_kernels() {
  static const util::simd::Kernels<GradientKernels> table{
      {stencil_base, polar_base},
#ifdef PDET_SIMD_AVX2_CLONE
      {stencil_avx2, polar_avx2},
#else
      {stencil_base, polar_base},
#endif
  };
  return table;
}

int GradientRows::span_for(int cols) {
  return (cols + kRowSpan - 1) / kRowSpan * kRowSpan;
}

std::size_t GradientRows::scratch_floats(int cols) {
  const int span = span_for(cols);
  return 3 * input_stride(span) +
         4 * padded_floats(static_cast<std::size_t>(span));
}

GradientRows::GradientRows(const ImageF& src, GradientOp op, int cols,
                           const GradientKernels& kernels, float* scratch)
    : src_(src),
      op_(op),
      cols_(cols),
      span_(span_for(cols)),
      kernels_(kernels),
      in_stride_(input_stride(span_)),
      in_(scratch) {
  PDET_REQUIRE(!src.empty() && cols >= 1 && cols <= src.width());
  const std::size_t out_stride = padded_floats(static_cast<std::size_t>(span_));
  float* out = scratch + 3 * in_stride_;
  dx_ = out;
  dy_ = out + out_stride;
  magnitude_ = out + 2 * out_stride;
  orientation_ = out + 3 * out_stride;
}

const float* GradientRows::input_row(int y) {
  const auto slot = static_cast<std::size_t>(y % 3);
  float* dst = in_ + slot * in_stride_ + kLead;
  if (held_[slot] != y) {
    const float* s = src_.row(y);
    const int w = src_.width();
    const int copied = std::min(w, span_ + 1);
    dst[-1] = s[0];
    std::copy(s, s + copied, dst);
    std::fill(dst + copied, dst + span_ + 1, s[w - 1]);
    held_[slot] = y;
  }
  return dst;
}

void GradientRows::compute(int y) {
  PDET_ASSERT(y >= 0 && y < src_.height());
  const float* above = input_row(std::max(y - 1, 0));
  const float* row = input_row(y);
  const float* below = input_row(std::min(y + 1, src_.height() - 1));
  kernels_.stencil(op_, above, row, below, span_, dx_, dy_);
  kernels_.polar(dx_, dy_, span_, magnitude_, orientation_);
  std::fill(magnitude_ + cols_, magnitude_ + span_, 0.0f);
}

std::size_t GradientField::capacity_bytes() const {
  return fx.capacity_bytes() + fy.capacity_bytes() +
         magnitude.capacity_bytes() + angle.capacity_bytes() +
         rows.capacity() * sizeof(float) + smoothed.capacity_bytes() +
         blur.capacity_bytes();
}

float fold_unsigned(float angle_radians) {
  float a = std::fmod(angle_radians, kPi);
  if (a < 0.0f) a += kPi;
  // fmod can return exactly pi for inputs like -1e-8 after the correction.
  if (a >= kPi) a -= kPi;
  return a;
}

GradientField compute_gradients(const ImageF& src, GradientOp op) {
  GradientField g;
  compute_gradients_into(src, op, g);
  return g;
}

void compute_gradients_into(const ImageF& src, GradientOp op,
                            GradientField& g) {
  PDET_TRACE_SCOPE("imgproc/gradient");
  PDET_REQUIRE(!src.empty());
  const int w = src.width();
  const int h = src.height();
  obs::counter_add("imgproc.gradient_pixels",
                   static_cast<long long>(w) * static_cast<long long>(h));
  g.fx.reset(w, h);
  g.fy.reset(w, h);
  g.magnitude.reset(w, h);
  g.angle.reset(w, h);
  GradientRows rows(
      src, op, w, gradient_kernels().active(),
      util::simd::aligned_floats(g.rows, GradientRows::scratch_floats(w)));
  const auto n = static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    rows.compute(y);
    std::copy_n(rows.dx(), n, g.fx.row(y));
    std::copy_n(rows.dy(), n, g.fy.row(y));
    std::copy_n(rows.magnitude(), n, g.magnitude.row(y));
    std::copy_n(rows.orientation(), n, g.angle.row(y));
  }
}

}  // namespace pdet::imgproc
