#include "src/hwsim/fixed_pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "src/fixedpoint/shiftadd.hpp"
#include "src/util/assert.hpp"

namespace pdet::hwsim {
namespace {

constexpr double kPi = std::numbers::pi;

std::size_t grid_offset(int x, int y, int width, int stride) {
  return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
          static_cast<std::size_t>(x)) *
         static_cast<std::size_t>(stride);
}

}  // namespace

std::span<std::int64_t> IntCellGrid::hist(int cx, int cy) {
  PDET_ASSERT(cx >= 0 && cx < cells_x && cy >= 0 && cy < cells_y);
  return std::span<std::int64_t>(data).subspan(
      grid_offset(cx, cy, cells_x, bins), static_cast<std::size_t>(bins));
}

std::span<const std::int64_t> IntCellGrid::hist(int cx, int cy) const {
  PDET_ASSERT(cx >= 0 && cx < cells_x && cy >= 0 && cy < cells_y);
  return std::span<const std::int64_t>(data).subspan(
      grid_offset(cx, cy, cells_x, bins), static_cast<std::size_t>(bins));
}

std::span<const std::int32_t> IntBlockGrid::features(int cx, int cy) const {
  PDET_ASSERT(cx >= 0 && cx < cells_x && cy >= 0 && cy < cells_y);
  return std::span<const std::int32_t>(data).subspan(
      grid_offset(cx, cy, cells_x, feature_len),
      static_cast<std::size_t>(feature_len));
}

std::span<std::int32_t> IntBlockGrid::features(int cx, int cy) {
  PDET_ASSERT(cx >= 0 && cx < cells_x && cy >= 0 && cy < cells_y);
  return std::span<std::int32_t>(data).subspan(
      grid_offset(cx, cy, cells_x, feature_len),
      static_cast<std::size_t>(feature_len));
}

std::int64_t isqrt64(std::int64_t v) {
  PDET_REQUIRE(v >= 0);
  if (v < 2) return v;
  const auto uv = static_cast<std::uint64_t>(v);
  // Initial guess: 2^(ceil(bits/2)), always >= sqrt(v).
  const int bits = 64 - std::countl_zero(uv);
  std::uint64_t x = std::uint64_t{1} << ((bits + 1) / 2);
  while (true) {
    const std::uint64_t next = (x + uv / x) / 2;
    if (next >= x) break;
    x = next;
  }
  return static_cast<std::int64_t>(x);
}

QuantizedModel QuantizedModel::quantize(const svm::LinearModel& model,
                                        const FixedPointConfig& config) {
  QuantizedModel q;
  q.weight_frac_bits = config.weight_frac_bits;
  q.norm_frac_bits = config.norm_frac_bits;
  q.weights.resize(model.weights.size());
  const double wscale = std::ldexp(1.0, config.weight_frac_bits);
  for (std::size_t i = 0; i < model.weights.size(); ++i) {
    q.weights[i] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(model.weights[i]) * wscale));
  }
  q.bias = std::llround(
      static_cast<double>(model.bias) *
      std::ldexp(1.0, config.weight_frac_bits + config.norm_frac_bits));
  return q;
}

double QuantizedModel::decision(std::span<const std::int32_t> features) const {
  PDET_REQUIRE(features.size() == weights.size());
  std::int64_t acc = bias;
  for (std::size_t i = 0; i < features.size(); ++i) {
    acc += static_cast<std::int64_t>(weights[i]) * features[i];
  }
  return static_cast<double>(acc) /
         std::ldexp(1.0, weight_frac_bits + norm_frac_bits);
}

FixedHogPipeline::FixedHogPipeline(const hog::HogParams& params,
                                   const FixedPointConfig& config)
    : params_(params), config_(config), cordic_(config.cordic_iterations) {
  params_.validate();
  PDET_REQUIRE(params_.layout == hog::DescriptorLayout::kCellGroups);
  PDET_REQUIRE(params_.norm == hog::BlockNorm::kL2 ||
               params_.norm == hog::BlockNorm::kL2Hys);
  PDET_REQUIRE(config.hist_frac_bits >= 1 && config.hist_frac_bits <= 16);
  PDET_REQUIRE(config.norm_frac_bits >= 4 && config.norm_frac_bits <= 20);
}

IntCellGrid FixedHogPipeline::compute_cells(const imgproc::ImageU8& image) const {
  const int cell = params_.cell_size;
  IntCellGrid grid;
  grid.cells_x = image.width() / cell;
  grid.cells_y = image.height() / cell;
  grid.bins = params_.bins;
  grid.data.assign(static_cast<std::size_t>(grid.cells_x) * static_cast<std::size_t>(grid.cells_y) *
                       static_cast<std::size_t>(grid.bins),
                   0);
  if (grid.cells_x == 0 || grid.cells_y == 0) return grid;

  const int width = grid.cells_x * cell;
  const int height = grid.cells_y * cell;
  const double bin_width = kPi / params_.bins;
  const std::int64_t one_q8 = 256;  // Q8 unit used for vote weights

  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Centered differences on raw 8-bit pixels (range [-255, 255]).
      const int dx = static_cast<int>(image.at_clamped(x + 1, y)) -
                     static_cast<int>(image.at_clamped(x - 1, y));
      const int dy = static_cast<int>(image.at_clamped(x, y + 1)) -
                     static_cast<int>(image.at_clamped(x, y - 1));
      if (dx == 0 && dy == 0) continue;
      const auto cr = cordic_.vectoring(dx, dy);
      // Magnitude quantized to Q(hist_frac).
      const std::int64_t mag_q = std::llround(
          cr.magnitude * std::ldexp(1.0, config_.hist_frac_bits));
      if (mag_q == 0) continue;

      int bin0;
      int bin1;
      std::int64_t w1_q8;  // Q8 weight of bin1
      if (params_.orientation_interp) {
        const double pos = cr.angle / bin_width - 0.5;
        const double fl = std::floor(pos);
        bin0 = static_cast<int>(fl);
        w1_q8 = std::llround((pos - fl) * 256.0);
        bin1 = bin0 + 1;
        if (bin0 < 0) bin0 += params_.bins;
        if (bin1 >= params_.bins) bin1 -= params_.bins;
      } else {
        bin0 = std::min(static_cast<int>(cr.angle / bin_width), params_.bins - 1);
        bin1 = bin0;
        w1_q8 = 0;
      }

      auto vote = [&](int cx, int cy, std::int64_t wsp_q8) {
        if (cx < 0 || cx >= grid.cells_x || cy < 0 || cy >= grid.cells_y) return;
        if (wsp_q8 == 0) return;
        auto h = grid.hist(cx, cy);
        // mag_q (Q.hist) * w (Q8) * wsp (Q8) >> 16 keeps Q.hist.
        const std::int64_t base = mag_q * wsp_q8;
        h[static_cast<std::size_t>(bin0)] += (base * (one_q8 - w1_q8)) >> 16;
        if (w1_q8 > 0) {
          h[static_cast<std::size_t>(bin1)] += (base * w1_q8) >> 16;
        }
      };

      if (params_.spatial_interp) {
        const double fx = (x + 0.5) / cell - 0.5;
        const double fy = (y + 0.5) / cell - 0.5;
        const int cx0 = static_cast<int>(std::floor(fx));
        const int cy0 = static_cast<int>(std::floor(fy));
        const std::int64_t wx1 = std::llround((fx - cx0) * 256.0);
        const std::int64_t wy1 = std::llround((fy - cy0) * 256.0);
        vote(cx0, cy0, ((one_q8 - wx1) * (one_q8 - wy1)) >> 8);
        vote(cx0 + 1, cy0, (wx1 * (one_q8 - wy1)) >> 8);
        vote(cx0, cy0 + 1, ((one_q8 - wx1) * wy1) >> 8);
        vote(cx0 + 1, cy0 + 1, (wx1 * wy1) >> 8);
      } else {
        vote(x / cell, y / cell, one_q8);
      }
    }
  }
  return grid;
}

void ScaleTap::blend(std::span<const std::int64_t> a,
                     std::span<const std::int64_t> b,
                     std::span<std::int64_t> out) const {
  const int frac_bits = w0.frac_bits();
  const std::int64_t half = std::int64_t{1} << (frac_bits - 1);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = (w0.apply_scaled(a[k]) + w1.apply_scaled(b[k]) + half) >> frac_bits;
  }
}

std::vector<ScaleTap> scale_taps(int out_n, int src_n, int frac_bits) {
  PDET_REQUIRE(out_n >= 1 && out_n <= src_n);
  std::vector<ScaleTap> taps;
  taps.reserve(static_cast<std::size_t>(out_n));
  const double ratio = static_cast<double>(src_n) / out_n;
  for (int o = 0; o < out_n; ++o) {
    const double f = (o + 0.5) * ratio - 0.5;
    const double fl = std::floor(f);
    int i0 = static_cast<int>(fl);
    double w = f - fl;
    int i1 = i0 + 1;
    if (i0 < 0) {
      i0 = 0;
      i1 = 0;
      w = 0.0;
    }
    if (i1 >= src_n) {
      i1 = src_n - 1;
      if (i0 >= src_n) i0 = src_n - 1;
    }
    taps.push_back({i0, i1, fixedpoint::ShiftAddConstant(1.0 - w, frac_bits),
                    fixedpoint::ShiftAddConstant(w, frac_bits)});
  }
  return taps;
}

IntCellGrid FixedHogPipeline::downscale_cells(const IntCellGrid& src,
                                              int out_cells_x,
                                              int out_cells_y) const {
  PDET_REQUIRE(out_cells_x >= 1 && out_cells_y >= 1);
  PDET_REQUIRE(out_cells_x <= src.cells_x && out_cells_y <= src.cells_y);

  const int frac_bits = config_.scale_frac_bits;
  const auto xtaps = scale_taps(out_cells_x, src.cells_x, frac_bits);
  const auto ytaps = scale_taps(out_cells_y, src.cells_y, frac_bits);
  const int bins = src.bins;

  // Horizontal pass.
  IntCellGrid mid;
  mid.cells_x = out_cells_x;
  mid.cells_y = src.cells_y;
  mid.bins = bins;
  mid.data.assign(static_cast<std::size_t>(out_cells_x) * static_cast<std::size_t>(src.cells_y) *
                      static_cast<std::size_t>(bins),
                  0);
  for (int cy = 0; cy < src.cells_y; ++cy) {
    for (int ox = 0; ox < out_cells_x; ++ox) {
      const ScaleTap& t = xtaps[static_cast<std::size_t>(ox)];
      t.blend(src.hist(t.i0, cy), src.hist(t.i1, cy), mid.hist(ox, cy));
    }
  }

  // Vertical pass.
  IntCellGrid out;
  out.cells_x = out_cells_x;
  out.cells_y = out_cells_y;
  out.bins = bins;
  out.data.assign(static_cast<std::size_t>(out_cells_x) * static_cast<std::size_t>(out_cells_y) *
                      static_cast<std::size_t>(bins),
                  0);
  for (int oy = 0; oy < out_cells_y; ++oy) {
    const ScaleTap& t = ytaps[static_cast<std::size_t>(oy)];
    for (int ox = 0; ox < out_cells_x; ++ox) {
      t.blend(mid.hist(ox, t.i0), mid.hist(ox, t.i1), out.hist(ox, oy));
    }
  }
  return out;
}

std::optional<LevelSize> FixedHogPipeline::level_size(LevelSize base,
                                                      double scale) const {
  PDET_REQUIRE(scale > 0.0);
  const LevelSize level{
      static_cast<int>(std::lround(base.cells_x / scale)),
      static_cast<int>(std::lround(base.cells_y / scale))};
  if (level.cells_x < params_.cells_per_window_x() ||
      level.cells_y < params_.cells_per_window_y()) {
    return std::nullopt;
  }
  return level;
}

IntBlockGrid FixedHogPipeline::normalize(const IntCellGrid& cells) const {
  const int bins = cells.bins;
  IntBlockGrid out;
  out.cells_x = cells.cells_x;
  out.cells_y = cells.cells_y;
  out.feature_len = 4 * bins;
  out.data.assign(static_cast<std::size_t>(out.cells_x) * static_cast<std::size_t>(out.cells_y) *
                      static_cast<std::size_t>(out.feature_len),
                  0);

  // Epsilon in the raw histogram domain: the software chain uses eps = 1e-3
  // on [0,1]-range images; raw values carry an extra 255 * 2^hist_frac.
  const std::int64_t eps_raw = std::max<std::int64_t>(
      1, std::llround(static_cast<double>(params_.normalize_epsilon) * 255.0 *
                      std::ldexp(1.0, config_.hist_frac_bits)));
  const std::int64_t one_norm = std::int64_t{1} << config_.norm_frac_bits;
  const std::int64_t clip_norm =
      std::llround(static_cast<double>(params_.l2hys_clip) *
                   static_cast<double>(one_norm));
  const std::int64_t eps2_norm = std::max<std::int64_t>(
      1, std::llround(static_cast<double>(params_.normalize_epsilon) *
                      static_cast<double>(one_norm)));

  std::vector<std::int64_t> gathered(static_cast<std::size_t>(4 * bins));
  std::vector<std::int64_t> normed(static_cast<std::size_t>(4 * bins));

  auto normalize_group = [&](int bx, int by, int cell_cx, int cell_cy,
                             std::span<std::int32_t> dst) {
    bx = std::clamp(bx, 0, std::max(cells.cells_x - 2, 0));
    by = std::clamp(by, 0, std::max(cells.cells_y - 2, 0));
    int k = 0;
    for (int dy2 = 0; dy2 < 2; ++dy2) {
      for (int dx2 = 0; dx2 < 2; ++dx2) {
        const auto h = cells.hist(std::min(bx + dx2, cells.cells_x - 1),
                                  std::min(by + dy2, cells.cells_y - 1));
        for (int b = 0; b < bins; ++b) {
          gathered[static_cast<std::size_t>(k++)] = h[static_cast<std::size_t>(b)];
        }
      }
    }
    // First L2 pass in the raw domain.
    std::int64_t sumsq = eps_raw * eps_raw;
    for (const std::int64_t v : gathered) sumsq += v * v;
    const std::int64_t norm = std::max<std::int64_t>(1, isqrt64(sumsq));
    for (std::size_t i = 0; i < gathered.size(); ++i) {
      normed[i] = (gathered[i] * one_norm) / norm;  // Q(norm_frac), < ~1
    }
    if (params_.norm == hog::BlockNorm::kL2Hys) {
      std::int64_t sumsq2 = eps2_norm * eps2_norm;
      for (std::int64_t& v : normed) {
        v = std::min(v, clip_norm);
        sumsq2 += v * v;
      }
      // sumsq2 is Q(2*norm_frac); isqrt gives Q(norm_frac).
      const std::int64_t norm2 = std::max<std::int64_t>(1, isqrt64(sumsq2));
      for (std::int64_t& v : normed) v = (v * one_norm) / norm2;
    }
    const int dxc = std::clamp(cell_cx - bx, 0, 1);
    const int dyc = std::clamp(cell_cy - by, 0, 1);
    const auto offset = static_cast<std::size_t>((dyc * 2 + dxc) * bins);
    for (int b = 0; b < bins; ++b) {
      dst[static_cast<std::size_t>(b)] =
          static_cast<std::int32_t>(normed[offset + static_cast<std::size_t>(b)]);
    }
  };

  for (int cy = 0; cy < cells.cells_y; ++cy) {
    for (int cx = 0; cx < cells.cells_x; ++cx) {
      auto feat = out.features(cx, cy);
      const auto nb = static_cast<std::size_t>(bins);
      normalize_group(cx, cy, cx, cy, feat.subspan(0, nb));
      normalize_group(cx - 1, cy, cx, cy, feat.subspan(nb, nb));
      normalize_group(cx, cy - 1, cx, cy, feat.subspan(2 * nb, nb));
      normalize_group(cx - 1, cy - 1, cx, cy, feat.subspan(3 * nb, nb));
    }
  }
  return out;
}

std::vector<std::int32_t> FixedHogPipeline::extract_window(
    const IntBlockGrid& blocks, int cx, int cy) const {
  const int bw = params_.cells_per_window_x();
  const int bh = params_.cells_per_window_y();
  PDET_REQUIRE(cx >= 0 && cy >= 0);
  PDET_REQUIRE(cx + bw <= blocks.cells_x && cy + bh <= blocks.cells_y);
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(params_.descriptor_size()));
  for (int j = 0; j < bh; ++j) {
    for (int i = 0; i < bw; ++i) {
      const auto f = blocks.features(cx + i, cy + j);
      out.insert(out.end(), f.begin(), f.end());
    }
  }
  return out;
}

double FixedHogPipeline::classify_window(const IntBlockGrid& blocks,
                                         const QuantizedModel& model,
                                         int cx, int cy) const {
  const auto desc = extract_window(blocks, cx, cy);
  return model.decision(desc);
}

}  // namespace pdet::hwsim
