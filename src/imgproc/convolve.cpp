#include "src/imgproc/convolve.hpp"

#include <algorithm>
#include <cmath>

namespace pdet::imgproc {
namespace {

void gaussian_kernel_into(double sigma, Kernel1D& k) {
  PDET_REQUIRE(sigma > 0.0);
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  k.resize(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-(static_cast<double>(i) * i) / (2.0 * sigma * sigma));
    k[static_cast<std::size_t>(i + radius)] = static_cast<float>(v);
    sum += v;
  }
  for (float& v : k) v = static_cast<float>(v / sum);
}

}  // namespace

Kernel1D gaussian_kernel(double sigma) {
  Kernel1D k;
  gaussian_kernel_into(sigma, k);
  return k;
}

ImageF separable_convolve(const ImageF& src, const Kernel1D& kx,
                          const Kernel1D& ky) {
  ImageF mid;
  ImageF out;
  separable_convolve_into(src, kx, ky, mid, out);
  return out;
}

void separable_convolve_into(const ImageF& src, const Kernel1D& kx,
                             const Kernel1D& ky, ImageF& mid, ImageF& out) {
  PDET_REQUIRE(!src.empty());
  PDET_REQUIRE(kx.size() % 2 == 1 && ky.size() % 2 == 1);
  PDET_REQUIRE(&out != &src && &mid != &src);
  const int w = src.width();
  const int h = src.height();
  const int rx = static_cast<int>(kx.size()) / 2;
  const int ry = static_cast<int>(ky.size()) / 2;

  mid.reset(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int i = -rx; i <= rx; ++i) {
        acc += kx[static_cast<std::size_t>(i + rx)] * src.at_clamped(x + i, y);
      }
      mid.at(x, y) = acc;
    }
  }
  out.reset(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int i = -ry; i <= ry; ++i) {
        acc += ky[static_cast<std::size_t>(i + ry)] * mid.at_clamped(x, y + i);
      }
      out.at(x, y) = acc;
    }
  }
}

ImageF gaussian_blur(const ImageF& src, double sigma) {
  if (sigma <= 0.0) return src;
  BlurScratch scratch;
  ImageF out;
  gaussian_blur_into(src, sigma, scratch, out);
  return out;
}

void gaussian_blur_into(const ImageF& src, double sigma, BlurScratch& scratch,
                        ImageF& out) {
  if (sigma <= 0.0) {
    out = src;
    return;
  }
  gaussian_kernel_into(sigma, scratch.taps);
  separable_convolve_into(src, scratch.taps, scratch.taps, scratch.horizontal,
                          out);
}

}  // namespace pdet::imgproc
