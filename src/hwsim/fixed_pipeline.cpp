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
  const auto eps = static_cast<double>(params_.normalize_epsilon);
  eps_raw_ = std::max<std::int64_t>(
      1, std::llround(eps * 255.0 * std::ldexp(1.0, config_.hist_frac_bits)));
  one_norm_ = std::int64_t{1} << config_.norm_frac_bits;
  clip_norm_ = std::llround(static_cast<double>(params_.l2hys_clip) *
                            static_cast<double>(one_norm_));
  eps2_norm_ = std::max<std::int64_t>(
      1, std::llround(eps * static_cast<double>(one_norm_)));
}

GradientVote FixedHogPipeline::vote(int x, int y, int dx, int dy) const {
  GradientVote v;
  v.x = x;
  v.y = y;
  if (dx == 0 && dy == 0) return v;
  const auto cr = cordic_.vectoring(dx, dy);
  v.mag_q =
      std::llround(cr.magnitude * std::ldexp(1.0, config_.hist_frac_bits));
  const double bin_width = kPi / params_.bins;
  if (params_.orientation_interp) {
    const double pos = cr.angle / bin_width - 0.5;
    const double fl = std::floor(pos);
    int bin0 = static_cast<int>(fl);
    int bin1 = bin0 + 1;
    if (bin0 < 0) bin0 += params_.bins;
    if (bin1 >= params_.bins) bin1 -= params_.bins;
    v.bin0 = static_cast<std::int16_t>(bin0);
    v.bin1 = static_cast<std::int16_t>(bin1);
    v.w1_q8 = std::llround((pos - fl) * 256.0);
  } else {
    v.bin0 = static_cast<std::int16_t>(
        std::min(static_cast<int>(cr.angle / bin_width), params_.bins - 1));
    v.bin1 = v.bin0;
  }
  return v;
}

IntCellGrid FixedHogPipeline::compute_cells(const imgproc::ImageU8& image) const {
  const int cell = params_.cell_size;
  IntCellGrid grid;
  grid.cells_x = image.width() / cell;
  grid.cells_y = image.height() / cell;
  grid.bins = params_.bins;
  const std::size_t row_len = static_cast<std::size_t>(grid.cells_x) *
                              static_cast<std::size_t>(grid.bins);
  grid.data.assign(row_len * static_cast<std::size_t>(grid.cells_y), 0);
  const auto row = [&](int cy) {
    return std::span<std::int64_t>(grid.data).subspan(
        static_cast<std::size_t>(cy) * row_len, row_len);
  };
  const LevelSize size{grid.cells_x, grid.cells_y};
  for (int y = 0; y < grid.cells_y * cell; ++y) {
    for (int x = 0; x < grid.cells_x * cell; ++x) {
      // Centered differences on raw 8-bit pixels (range [-255, 255]).
      const int dx = static_cast<int>(image.at_clamped(x + 1, y)) -
                     static_cast<int>(image.at_clamped(x - 1, y));
      const int dy = static_cast<int>(image.at_clamped(x, y + 1)) -
                     static_cast<int>(image.at_clamped(x, y - 1));
      deposit(vote(x, y, dx, dy), size, row);
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

void FixedHogPipeline::normalize_group(std::span<const std::int64_t> top,
                                       std::span<const std::int64_t> bottom,
                                       int bx,
                                       std::span<std::int32_t> out) const {
  const auto bins = static_cast<std::size_t>(params_.bins);
  const auto x0 = static_cast<std::size_t>(bx) * bins;
  // The right-hand cells; a one-cell-wide row repeats its cell.
  const std::size_t x1 = std::min(x0 + bins, top.size() - bins);
  const std::span<const std::int64_t> members[4] = {
      top.subspan(x0, bins), top.subspan(x1, bins), bottom.subspan(x0, bins),
      bottom.subspan(x1, bins)};
  // First L2 pass in the raw domain. Each quotient lies within
  // [-one_norm, one_norm], since a member's square never exceeds the sum it
  // is in, so it fits the int32 output.
  std::int64_t sumsq = eps_raw_ * eps_raw_;
  for (const auto& m : members) {
    for (const std::int64_t v : m) sumsq += v * v;
  }
  const std::int64_t norm = std::max<std::int64_t>(1, isqrt64(sumsq));
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t b = 0; b < bins; ++b) {
      out[k * bins + b] =
          static_cast<std::int32_t>((members[k][b] * one_norm_) / norm);
    }
  }
  if (params_.norm == hog::BlockNorm::kL2Hys) {
    std::int64_t sumsq2 = eps2_norm_ * eps2_norm_;
    for (std::int32_t& v : out) {
      v = static_cast<std::int32_t>(std::min<std::int64_t>(v, clip_norm_));
      sumsq2 += std::int64_t{v} * v;
    }
    // sumsq2 is Q(2*norm_frac); isqrt gives Q(norm_frac).
    const std::int64_t norm2 = std::max<std::int64_t>(1, isqrt64(sumsq2));
    for (std::int32_t& v : out) {
      v = static_cast<std::int32_t>((std::int64_t{v} * one_norm_) / norm2);
    }
  }
}

void FixedHogPipeline::read_groups(int cy, int cells_y,
                                   std::span<const std::int32_t> above,
                                   std::span<const std::int32_t> at,
                                   std::span<std::int32_t> out) const {
  const auto bins = static_cast<std::size_t>(params_.bins);
  const std::size_t group_len = 4 * bins;
  const auto cells_x = static_cast<int>(out.size() / group_len);
  for (int cx = 0; cx < cells_x; ++cx) {
    for (int s = 0; s < 4; ++s) {
      const int ox = s & 1;
      const int oy = s >> 1;
      const int bx = group_of(cx, ox, cells_x);
      const int quadrant = 2 * (cy - group_of(cy, oy, cells_y)) + cx - bx;
      const std::size_t offset = static_cast<std::size_t>(bx) * group_len +
                                 static_cast<std::size_t>(quadrant) * bins;
      const auto src = (oy == 1 ? above : at).subspan(offset, bins);
      const auto dst =
          out.subspan(static_cast<std::size_t>(4 * cx + s) * bins, bins);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

IntBlockGrid FixedHogPipeline::normalize(const IntCellGrid& cells) const {
  PDET_REQUIRE(cells.bins == params_.bins);
  IntBlockGrid out;
  out.cells_x = cells.cells_x;
  out.cells_y = cells.cells_y;
  out.feature_len = 4 * cells.bins;
  const std::size_t out_row_len = static_cast<std::size_t>(out.cells_x) *
                                  static_cast<std::size_t>(out.feature_len);
  out.data.assign(out_row_len * static_cast<std::size_t>(out.cells_y), 0);
  if (out.data.empty()) return out;

  const std::size_t cell_row_len = static_cast<std::size_t>(cells.cells_x) *
                                   static_cast<std::size_t>(cells.bins);
  const auto cell_row = [&](int cy) {
    return std::span<const std::int64_t>(cells.data)
        .subspan(static_cast<std::size_t>(cy) * cell_row_len, cell_row_len);
  };
  const auto group_len = static_cast<std::size_t>(out.feature_len);
  const int gx = group_count(cells.cells_x);
  const std::size_t group_row_len = static_cast<std::size_t>(gx) * group_len;
  std::vector<std::int32_t> groups(
      group_row_len * static_cast<std::size_t>(group_count(cells.cells_y)));
  const auto group_row = [&](int by) {
    return std::span<std::int32_t>(groups).subspan(
        static_cast<std::size_t>(by) * group_row_len, group_row_len);
  };
  for (int by = 0; by < group_count(cells.cells_y); ++by) {
    const auto top = cell_row(by);
    const auto bottom = cell_row(std::min(by + 1, cells.cells_y - 1));
    for (int bx = 0; bx < gx; ++bx) {
      const auto dst =
          group_row(by).subspan(static_cast<std::size_t>(bx) * group_len,
                                group_len);
      normalize_group(top, bottom, bx, dst);
    }
  }
  for (int cy = 0; cy < cells.cells_y; ++cy) {
    read_groups(cy, cells.cells_y, group_row(group_of(cy, 1, cells.cells_y)),
                group_row(group_of(cy, 0, cells.cells_y)),
                std::span<std::int32_t>(out.data).subspan(
                    static_cast<std::size_t>(cy) * out_row_len, out_row_len));
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
