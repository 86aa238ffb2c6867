#include "src/score/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/fault/injector.hpp"
#include "src/util/assert.hpp"

namespace pdet::score {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kBatch:
      return "batch";
    case BackendKind::kHwsim:
      return "hwsim";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, BackendKind& out) {
  if (name == "auto") {
    out = BackendKind::kAuto;
  } else if (name == "scalar") {
    out = BackendKind::kScalar;
  } else if (name == "batch") {
    out = BackendKind::kBatch;
  } else if (name == "hwsim") {
    out = BackendKind::kHwsim;
  } else {
    return false;
  }
  return true;
}

BackendKind resolve(BackendKind requested) {
  return requested == BackendKind::kAuto ? BackendKind::kScalar : requested;
}

// --- ScoreBatch --------------------------------------------------------

void ScoreBatch::configure(std::size_t dim, std::size_t capacity) {
  PDET_REQUIRE(dim > 0);
  PDET_REQUIRE(capacity > 0);
  dim_ = dim;
  capacity_ = capacity;
  count_ = 0;
  if (anchors_.size() < capacity_) anchors_.resize(capacity_);
  if (scores_.size() < capacity_) scores_.resize(capacity_);
}

void ScoreBatch::load(const hog::BlockGrid& blocks,
                      const hog::HogParams& params) {
  PDET_REQUIRE(blocks.layout() == params.layout);
  const int bw = params.blocks_per_window_x();
  const int bh = params.blocks_per_window_y();
  const int flen = blocks.feature_len();
  PDET_REQUIRE(static_cast<std::size_t>(bw) * static_cast<std::size_t>(bh) *
                   static_cast<std::size_t>(flen) ==
               dim_);
  const auto gx = static_cast<std::size_t>(blocks.blocks_x());
  const auto gy = static_cast<std::size_t>(blocks.blocks_y());
  const auto channels = static_cast<std::size_t>(flen);
  windows_x_ = std::max(0, blocks.blocks_x() - bw + 1);
  windows_y_ = std::max(0, blocks.blocks_y() - bh + 1);
  const std::size_t pitch = util::simd::padded_floats(gx + kWindowLanes - 1);
  geometry_ = PlaneGeometry{bw, bh, flen, pitch};
  count_ = 0;
  base_ = util::simd::aligned_floats(planes_, gy * channels * pitch);

  // Grid row y, channel f becomes plane row y * flen + f; the padding
  // columns are rewritten with zeros on every load.
  const float* src = blocks.data().data();
  for (std::size_t y = 0; y < gy; ++y) {
    const float* grid_row = src + y * gx * channels;
    for (std::size_t f = 0; f < channels; ++f) {
      float* dst = base_ + (y * channels + f) * pitch;
      for (std::size_t x = 0; x < gx; ++x) dst[x] = grid_row[x * channels + f];
      std::fill(dst + gx, dst + pitch, 0.0f);
    }
  }
}

void ScoreBatch::push(int x, int y) {
  PDET_REQUIRE(count_ < capacity_);
  PDET_REQUIRE(x >= 0 && x < windows_x_ && y >= 0 && y < windows_y_);
  anchors_[count_++] = Anchor{x, y};
}

const float* ScoreBatch::plane_at(std::size_t i) const {
  PDET_ASSERT(i < count_);
  const Anchor a = anchors_[i];
  return base_ +
         static_cast<std::size_t>(a.y) *
             static_cast<std::size_t>(geometry_.feature_len) * geometry_.pitch +
         static_cast<std::size_t>(a.x);
}

void ScoreBatch::window(std::size_t i, std::span<float> out) const {
  PDET_REQUIRE(i < count_);
  PDET_REQUIRE(out.size() == dim_);
  const float* x = plane_at(i);
  const PlaneGeometry& g = geometry_;
  const auto flen = static_cast<std::size_t>(g.feature_len);
  std::size_t k = 0;
  for (int j = 0; j < g.window_y; ++j) {
    const float* row = x + static_cast<std::size_t>(j) * flen * g.pitch;
    for (int bx = 0; bx < g.window_x; ++bx) {
      for (std::size_t f = 0; f < flen; ++f) {
        out[k++] = row[f * g.pitch + static_cast<std::size_t>(bx)];
      }
    }
  }
}

// --- the window kernel -------------------------------------------------

namespace {

#define PDET_SIMD_KERNEL_FILE "src/score/backend_kernels.inc"
#include "src/util/simd_clone.inc"

}  // namespace

const util::simd::Kernels<WindowKernels>& window_kernels() {
  static const util::simd::Kernels<WindowKernels> table{
      {score_pass_base},
#ifdef PDET_SIMD_AVX2_CLONE
      {score_pass_avx2},
#else
      {score_pass_base},
#endif
  };
  return table;
}

void score_windows(const WindowKernels& kernels, const svm::LinearModel& model,
                   ScoreBatch& batch) {
  PDET_REQUIRE(model.dimension() == batch.dimension());
  const float* w = model.weights.data();
  float lanes[kWindowLanes];
  std::size_t i = 0;
  while (i < batch.size()) {
    const ScoreBatch::Anchor first = batch.anchor(i);
    kernels.score_pass(w, model.bias, batch.plane_at(i), batch.geometry(),
                       lanes);
    // The pass covered every anchor of this row in [first.x, first.x + 16).
    ScoreBatch::Anchor a = first;
    do {
      batch.set_score(i, lanes[a.x - first.x]);
      if (++i == batch.size()) break;
      a = batch.anchor(i);
    } while (a.y == first.y && a.x >= first.x &&
             a.x < first.x + kWindowLanes);
  }
}

// --- BackendBase -------------------------------------------------------

void BackendBase::score(const svm::LinearModel& model, ScoreBatch& batch) {
  PDET_REQUIRE(model.dimension() == batch.dimension());
  if (batch.empty()) return;
  if (fault::check("score.batch").fire) {
    throw std::runtime_error("injected fault: score.batch");
  }
  kernel(model, batch);
  batches_.fetch_add(1, std::memory_order_relaxed);
  windows_.fetch_add(static_cast<long long>(batch.size()),
                     std::memory_order_relaxed);
  capacity_sum_.fetch_add(static_cast<long long>(batch.capacity()),
                          std::memory_order_relaxed);
}

BackendStats BackendBase::stats() const {
  BackendStats out;
  out.batches = batches_.load(std::memory_order_relaxed);
  out.windows = windows_.load(std::memory_order_relaxed);
  out.capacity_sum = capacity_sum_.load(std::memory_order_relaxed);
  return out;
}

// --- CpuBackend --------------------------------------------------------

CpuBackend::CpuBackend(BackendKind kind) : kind_(kind) {
  PDET_REQUIRE(kind == BackendKind::kScalar || kind == BackendKind::kBatch);
}

void CpuBackend::kernel(const svm::LinearModel& model, ScoreBatch& batch) {
  score_windows(window_kernels().active(), model, batch);
}

std::unique_ptr<ScoringBackend> make_backend(BackendKind kind) {
  const BackendKind resolved = resolve(kind);
  if (resolved == BackendKind::kHwsim) {
    return nullptr;  // construct via pdet_hwsim and share it
  }
  return std::make_unique<CpuBackend>(resolved);
}

}  // namespace pdet::score
