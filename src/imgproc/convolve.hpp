// Separable convolution and Gaussian smoothing.
//
// Dalal & Triggs explicitly evaluated Gaussian pre-smoothing before gradient
// computation (and found sigma = 0, i.e. none, best for HOG — an ablation
// the bench suite reproduces); the kernels also serve the dataset's
// photometric augmentations.
#pragma once

#include <cstddef>
#include <vector>

#include "src/imgproc/image.hpp"

namespace pdet::imgproc {

/// 1-D convolution kernel (odd length), center at size()/2.
using Kernel1D = std::vector<float>;

/// Caller-owned buffers of gaussian_blur_into. Reused across calls, so a
/// warm scratch blurs without allocating.
struct BlurScratch {
  Kernel1D taps;      ///< the Gaussian taps for the last sigma
  ImageF horizontal;  ///< the separable pass's intermediate

  std::size_t capacity_bytes() const {
    return taps.capacity() * sizeof(float) + horizontal.capacity_bytes();
  }
};

/// Normalized Gaussian taps; radius = ceil(3 sigma), length 2r+1.
Kernel1D gaussian_kernel(double sigma);

/// Separable convolution with border replication: horizontal pass with
/// `kx`, vertical with `ky`. Kernels must have odd length.
ImageF separable_convolve(const ImageF& src, const Kernel1D& kx,
                          const Kernel1D& ky);

/// `separable_convolve` into caller-owned images: `mid` receives the
/// horizontal pass, `out` the result. `out` must not alias `src`.
void separable_convolve_into(const ImageF& src, const Kernel1D& kx,
                             const Kernel1D& ky, ImageF& mid, ImageF& out);

/// Gaussian blur; sigma <= 0 returns the input unchanged.
ImageF gaussian_blur(const ImageF& src, double sigma);

/// `gaussian_blur` into caller-owned buffers (sigma <= 0 copies `src`).
void gaussian_blur_into(const ImageF& src, double sigma, BlurScratch& scratch,
                        ImageF& out);

}  // namespace pdet::imgproc
