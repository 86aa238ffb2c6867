#include "src/score/backend.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

#include "src/fault/injector.hpp"
#include "src/util/assert.hpp"
#include "src/util/simd.hpp"

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

namespace {

// PDET_SCORE_BACKEND applies only to kAuto requests, so a test (or user)
// that pins a backend explicitly is never silently overridden by CI's
// forced-batch matrix entry. Only CPU backends are accepted: hwsim needs a
// constructed device, which an env var cannot conjure.
BackendKind env_default() {
  static const BackendKind cached = [] {
    const char* env = std::getenv("PDET_SCORE_BACKEND");
    if (env == nullptr || *env == '\0') return BackendKind::kScalar;
    BackendKind parsed = BackendKind::kScalar;
    if (parse_backend(env, parsed) && (parsed == BackendKind::kScalar ||
                                       parsed == BackendKind::kBatch)) {
      return parsed;
    }
    std::fprintf(stderr,
                 "pdet: ignoring PDET_SCORE_BACKEND=%s (want scalar|batch)\n",
                 env);
    return BackendKind::kScalar;
  }();
  return cached;
}

}  // namespace

BackendKind resolve(BackendKind requested) {
  return requested == BackendKind::kAuto ? env_default() : requested;
}

// --- ScoreBatch --------------------------------------------------------

namespace {
constexpr std::size_t kRowAlignFloats = 16;  // 64 bytes
}

void ScoreBatch::configure(std::size_t dim, std::size_t capacity) {
  PDET_REQUIRE(dim > 0);
  PDET_REQUIRE(capacity > 0);
  dim_ = dim;
  stride_ = (dim + kRowAlignFloats - 1) / kRowAlignFloats * kRowAlignFloats;
  capacity_ = capacity;
  count_ = 0;
  base_ = util::simd::aligned_floats(features_, stride_ * capacity_);
  if (tags_.size() < capacity_) tags_.resize(capacity_);
  if (scores_.size() < capacity_) scores_.resize(capacity_);
}

std::span<float> ScoreBatch::push(std::uint64_t tag) {
  PDET_REQUIRE(count_ < capacity_);
  tags_[count_] = tag;
  float* dst = base_ + count_ * stride_;
  ++count_;
  return {dst, dim_};
}

std::span<const float> ScoreBatch::row(std::size_t i) const {
  PDET_REQUIRE(i < count_);
  return {base_ + i * stride_, dim_};
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

// --- ScalarBackend -----------------------------------------------------

void ScalarBackend::kernel(const svm::LinearModel& model, ScoreBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.set_score(i, model.decision(batch.row(i)));
  }
}

// --- BatchBackend ------------------------------------------------------

namespace {

// The kernel bodies live in backend_kernels.inc and are compiled twice
// through the util::simd seam: at the build's baseline ISA and as an
// AVX2+FMA copy, one of which runs per process (the seam's CPUID pick,
// shared with the HOG front end). Same source, same fold order in both
// copies: scores stay deterministic on any given machine.
#define PDET_SIMD_KERNEL_FILE "src/score/backend_kernels.inc"
#include "src/util/simd_clone.inc"

struct DotKernels {
  float (*dot)(const float*, const float*, std::size_t, float);
  void (*pair)(const float*, const float*, const float*, std::size_t, float,
               float*, float*);
};

const util::simd::Kernels<DotKernels>& dot_kernels() {
  static const util::simd::Kernels<DotKernels> table{
      {dot_unrolled_base, dot_pair_base},
#ifdef PDET_SIMD_AVX2_CLONE
      {dot_unrolled_avx2, dot_pair_avx2},
#else
      {dot_unrolled_base, dot_pair_base},
#endif
  };
  return table;
}

}  // namespace

void BatchBackend::kernel(const svm::LinearModel& model, ScoreBatch& batch) {
  const float* w = model.weights.data();
  const std::size_t n = batch.dimension();
  const std::size_t count = batch.size();
  const DotKernels& k = dot_kernels().active();
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    float ya = 0.0f, yb = 0.0f;
    k.pair(w, batch.row(i).data(), batch.row(i + 1).data(), n, model.bias,
           &ya, &yb);
    batch.set_score(i, ya);
    batch.set_score(i + 1, yb);
  }
  if (i < count) {
    batch.set_score(i, k.dot(w, batch.row(i).data(), n, model.bias));
  }
}

std::unique_ptr<ScoringBackend> make_backend(BackendKind kind) {
  switch (resolve(kind)) {
    case BackendKind::kScalar:
      return std::make_unique<ScalarBackend>();
    case BackendKind::kBatch:
      return std::make_unique<BatchBackend>();
    default:
      return nullptr;  // hwsim: construct via pdet_hwsim and share it
  }
}

}  // namespace pdet::score
