// Tests for pdet::score: the ScoreBatch scratch container (window-minor
// planes + anchors, the window accessor), backend selection/parsing, the
// window kernel (every ISA copy bitwise equal to LinearModel::decision
// across geometries), the CPU and hwsim backends alone and shared by
// concurrent callers, and the backend seam end to end through the engine
// and the runtime server (including the "score.batch" fault site riding the
// poison-frame path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "src/detect/engine.hpp"
#include "src/detect/multiscale.hpp"
#include "src/detect/scanner.hpp"
#include "src/fault/injector.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/hwsim/score_backend.hpp"
#include "src/hwsim/timing.hpp"
#include "src/imgproc/resize.hpp"
#include "src/runtime/server.hpp"
#include "src/score/backend.hpp"
#include "src/svm/linear_svm.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd.hpp"

namespace pdet::score {
namespace {

using Anchor = ScoreBatch::Anchor;

svm::LinearModel make_model(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(dim);
  for (float& w : model.weights) {
    w = static_cast<float>(rng.normal(0.0, 0.05));
  }
  model.bias = 0.125f;
  return model;
}

hog::HogParams make_params(int bins, hog::DescriptorLayout layout) {
  hog::HogParams params;
  params.bins = bins;
  params.layout = layout;
  return params;
}

/// Window of 4x4 cells: small descriptors for the concurrency and fault
/// tests.
hog::HogParams small_params() {
  hog::HogParams params;
  params.window_width = 32;
  params.window_height = 32;
  return params;
}

std::size_t dim_of(const hog::HogParams& params) {
  return static_cast<std::size_t>(params.descriptor_size());
}

/// A random `bx` x `by` block grid. Values span a dozen binades, so any
/// change to decision's summation order would show in the low bits.
hog::BlockGrid random_grid(int bx, int by, const hog::HogParams& params,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  hog::BlockGrid grid(bx, by, params.block_feature_len(), params.layout);
  for (int y = 0; y < by; ++y) {
    for (int x = 0; x < bx; ++x) {
      for (float& v : grid.block(x, y)) {
        v = static_cast<float>(std::ldexp(rng.uniform(),
                                          -rng.uniform_int(0, 12)));
      }
    }
  }
  return grid;
}

/// Make `model` and `grid` sensitive to summation order. Channel 0 of every
/// block becomes 1, and the weights of the first and the last block's
/// channel 0 become +2^40 and -2^40: every window's running sum climbs to
/// ~2^40 at its first term and falls back at its last, so the terms between
/// are rounded at 2^-12. In double, a reordered sum — or the bias added
/// last instead of first — then differs at float precision, which plain
/// random inputs (29 spare bits) almost never show.
void make_order_sensitive(svm::LinearModel& model, hog::BlockGrid& grid,
                          const hog::HogParams& params) {
  for (int y = 0; y < grid.blocks_y(); ++y) {
    for (int x = 0; x < grid.blocks_x(); ++x) grid.block(x, y)[0] = 1.0f;
  }
  const auto last_block = static_cast<std::size_t>(
      params.blocks_per_window_x() * params.blocks_per_window_y() - 1);
  model.weights.front() = 0x1p40f;
  model.weights[last_block * static_cast<std::size_t>(
                                 params.block_feature_len())] = -0x1p40f;
}

/// The grid's windows in scan order: row-major, `stride` cells apart.
std::vector<Anchor> scan_anchors(const hog::BlockGrid& grid,
                                 const hog::HogParams& params, int stride) {
  std::vector<Anchor> anchors;
  const int nx = hog::window_positions_x(grid, params);
  const int ny = hog::window_positions_y(grid, params);
  for (int y = 0; y < ny; y += stride) {
    for (int x = 0; x < nx; x += stride) anchors.push_back({x, y});
  }
  return anchors;
}

/// The reference every scoring path is pinned to.
float reference(const svm::LinearModel& model, const hog::BlockGrid& grid,
                const hog::HogParams& params, Anchor a) {
  return model.decision(hog::extract_window(grid, params, a.x, a.y));
}

/// Load `grid` and push `anchors` (at most capacity of them).
void fill(ScoreBatch& batch, const hog::BlockGrid& grid,
          const hog::HogParams& params, const std::vector<Anchor>& anchors) {
  batch.load(grid, params);
  for (const Anchor a : anchors) batch.push(a.x, a.y);
}

std::vector<util::simd::Isa> isa_copies() {
  // The AVX2 copy is skipped on hosts whose CPUID lacks it.
  std::vector<util::simd::Isa> isas{util::simd::Isa::kBaseline};
  if (util::simd::supported(util::simd::Isa::kAvx2)) {
    isas.push_back(util::simd::Isa::kAvx2);
  }
  return isas;
}

// --- ScoreBatch -------------------------------------------------------------

TEST(ScoreBatch, AnchorsPlanesAndWindowAccessor) {
  for (const hog::DescriptorLayout layout :
       {hog::DescriptorLayout::kCellGroups, hog::DescriptorLayout::kDalalBlocks}) {
    const hog::HogParams params = make_params(9, layout);
    const hog::BlockGrid grid = random_grid(13, 19, params, 1);
    ScoreBatch batch;
    batch.configure(dim_of(params), 5);
    EXPECT_EQ(batch.dimension(), dim_of(params));
    EXPECT_EQ(batch.capacity(), 5u);
    EXPECT_TRUE(batch.empty());
    EXPECT_DOUBLE_EQ(batch.fill(), 0.0);

    const std::vector<Anchor> anchors{{0, 0}, {5, 0}, {1, 3}, {4, 2}, {0, 1}};
    fill(batch, grid, params, anchors);
    EXPECT_TRUE(batch.full());
    EXPECT_DOUBLE_EQ(batch.fill(), 1.0);

    // Plane rows start 64-byte aligned and carry at least 15 padding columns.
    const PlaneGeometry& g = batch.geometry();
    EXPECT_EQ(g.pitch % util::simd::kAlignFloats, 0u);
    EXPECT_GE(g.pitch, static_cast<std::size_t>(grid.blocks_x()) +
                           static_cast<std::size_t>(kWindowLanes - 1));
    EXPECT_EQ(g.window_x, params.blocks_per_window_x());
    EXPECT_EQ(g.window_y, params.blocks_per_window_y());
    const float* origin = batch.plane_at(1) - anchors[1].x;  // (0, 0) anchor row
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(origin) % 64, 0u);

    std::vector<float> window(dim_of(params));
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      EXPECT_EQ(batch.anchor(i).x, anchors[i].x);
      EXPECT_EQ(batch.anchor(i).y, anchors[i].y);
      batch.window(i, window);
      EXPECT_EQ(window, hog::extract_window(grid, params, anchors[i].x,
                                            anchors[i].y))
          << "window " << i;
    }
    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.capacity(), 5u);  // storage and shape survive clear()
  }
}

TEST(ScoreBatch, PushRejectsAnchorsOutsideTheGrid) {
  const hog::HogParams params = small_params();
  const hog::BlockGrid grid = random_grid(6, 5, params, 2);
  ScoreBatch batch;
  batch.configure(dim_of(params), 4);
  batch.load(grid, params);
  batch.push(2, 1);  // the last valid anchor
  EXPECT_DEATH(batch.push(3, 0), "precondition");
}

TEST(ScoreBatch, ConfigureReusesStorageAndNeverShrinks) {
  const hog::HogParams big = make_params(9, hog::DescriptorLayout::kCellGroups);
  const hog::BlockGrid big_grid = random_grid(40, 30, big, 3);
  ScoreBatch batch;
  batch.configure(dim_of(big), 64);
  fill(batch, big_grid, big, scan_anchors(big_grid, big, 8));
  const std::size_t high_water = batch.capacity_bytes();
  ASSERT_GT(high_water, 0u);

  // Smaller shape: same storage, no release.
  const hog::HogParams small = small_params();
  const hog::BlockGrid small_grid = random_grid(6, 5, small, 4);
  batch.configure(dim_of(small), 4);
  EXPECT_TRUE(batch.empty());
  fill(batch, small_grid, small, {{0, 0}, {1, 0}, {2, 1}, {0, 1}});
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.capacity_bytes(), high_water);

  // Back to the big shape: still the same storage.
  batch.configure(dim_of(big), 64);
  batch.load(big_grid, big);
  EXPECT_EQ(batch.capacity_bytes(), high_water);
}

// --- parsing / resolution ---------------------------------------------------

TEST(BackendKind, ParseAcceptsCliSpellingsAndRejectsJunk) {
  BackendKind kind = BackendKind::kHwsim;
  EXPECT_TRUE(parse_backend("scalar", kind));
  EXPECT_EQ(kind, BackendKind::kScalar);
  EXPECT_TRUE(parse_backend("batch", kind));
  EXPECT_EQ(kind, BackendKind::kBatch);
  EXPECT_TRUE(parse_backend("hwsim", kind));
  EXPECT_EQ(kind, BackendKind::kHwsim);
  EXPECT_TRUE(parse_backend("auto", kind));
  EXPECT_EQ(kind, BackendKind::kAuto);

  kind = BackendKind::kBatch;
  EXPECT_FALSE(parse_backend("gpu", kind));
  EXPECT_EQ(kind, BackendKind::kBatch);  // left untouched on failure
  EXPECT_FALSE(parse_backend("", kind));

  EXPECT_STREQ(to_string(BackendKind::kScalar), "scalar");
  EXPECT_STREQ(to_string(BackendKind::kBatch), "batch");
  EXPECT_STREQ(to_string(BackendKind::kHwsim), "hwsim");
  EXPECT_STREQ(to_string(BackendKind::kAuto), "auto");
}

TEST(BackendKind, ResolvePinsExplicitKindsAndGroundsAuto) {
  EXPECT_EQ(resolve(BackendKind::kScalar), BackendKind::kScalar);
  EXPECT_EQ(resolve(BackendKind::kBatch), BackendKind::kBatch);
  EXPECT_EQ(resolve(BackendKind::kHwsim), BackendKind::kHwsim);
  EXPECT_EQ(resolve(BackendKind::kAuto), BackendKind::kScalar);
}

TEST(BackendKind, MakeBackendConstructsCpuKindsOnly) {
  const auto scalar = make_backend(BackendKind::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->kind(), BackendKind::kScalar);
  const auto batch = make_backend(BackendKind::kBatch);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->kind(), BackendKind::kBatch);
  const auto automatic = make_backend(BackendKind::kAuto);
  ASSERT_NE(automatic, nullptr);
  EXPECT_EQ(automatic->kind(), BackendKind::kScalar);
  // hwsim is a device, not a bare enum: construct via pdet_hwsim instead.
  EXPECT_EQ(make_backend(BackendKind::kHwsim), nullptr);
}

// --- the window kernel: bitwise equal to decision ---------------------------

TEST(CpuBackend, BothNamesBitIdenticalToLinearModelDecision) {
  const hog::HogParams params =
      make_params(9, hog::DescriptorLayout::kCellGroups);
  const hog::BlockGrid grid = random_grid(29, 21, params, 5);
  const svm::LinearModel model = make_model(dim_of(params), 6);
  // Nine windows from the end of row 0 into row 1: the batch straddles a row
  // and both runs end mid-lane-group.
  std::vector<Anchor> anchors;
  for (int x = 16; x < 22; ++x) anchors.push_back({x, 0});
  for (int x = 0; x < 3; ++x) anchors.push_back({x, 1});

  hog::BlockGrid sensitive_grid = grid;
  svm::LinearModel sensitive_model = model;
  make_order_sensitive(sensitive_model, sensitive_grid, params);

  for (const BackendKind kind : {BackendKind::kScalar, BackendKind::kBatch}) {
    const std::unique_ptr<ScoringBackend> backend = make_backend(kind);
    ScoreBatch batch;
    batch.configure(dim_of(params), 9);
    fill(batch, grid, params, anchors);
    backend->score(model, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.score(i), reference(model, grid, params, anchors[i]))
          << to_string(kind) << " window " << i;
    }
    fill(batch, sensitive_grid, params, anchors);
    backend->score(sensitive_model, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.score(i), reference(sensitive_model, sensitive_grid,
                                          params, anchors[i]))
          << to_string(kind) << " order-sensitive window " << i;
    }
    const BackendStats stats = backend->stats();
    EXPECT_EQ(stats.batches, 2);
    EXPECT_EQ(stats.windows, 18);
    EXPECT_EQ(stats.capacity_sum, 18);
    EXPECT_DOUBLE_EQ(stats.mean_fill(), 1.0);
  }
}

TEST(WindowKernel, EveryCopyBitwiseEqualsDecisionAcrossGeometries) {
  // Random grids x bins x both layouts x stride 1/2 x widths whose window
  // rows end mid-lane-group, scored in batches that straddle rows (64) and
  // in partial ones (5), through each ISA copy of the kernel — with plain
  // and with order-sensitive inputs.
  std::uint64_t seed = 100;
  long long checked = 0;
  for (const int bins : {4, 9, 12}) {
    for (const hog::DescriptorLayout layout :
         {hog::DescriptorLayout::kCellGroups,
          hog::DescriptorLayout::kDalalBlocks}) {
      const hog::HogParams params = make_params(bins, layout);
      const int bw = params.blocks_per_window_x();
      const int bh = params.blocks_per_window_y();
      for (const int stride : {1, 2}) {
        // Window positions per row: 1, 5, 16, 17, 38.
        for (const int extra : {0, 4, 15, 16, 37}) {
          ++seed;
          hog::BlockGrid grid =
              random_grid(bw + extra, bh + (extra % 7) + 1, params, seed);
          svm::LinearModel model = make_model(dim_of(params), seed);
          if (seed % 2 == 0) make_order_sensitive(model, grid, params);
          const std::vector<Anchor> anchors =
              scan_anchors(grid, params, stride);
          std::vector<float> want;
          for (const Anchor a : anchors) {
            want.push_back(reference(model, grid, params, a));
          }
          for (const util::simd::Isa isa : isa_copies()) {
            const WindowKernels& kernels = window_kernels().at(isa);
            for (const std::size_t capacity : {std::size_t{5}, std::size_t{64}}) {
              ScoreBatch batch;
              batch.configure(dim_of(params), capacity);
              batch.load(grid, params);
              int mismatches = 0;
              std::size_t next = 0;
              for (std::size_t k = 0; k < anchors.size(); ++k) {
                batch.push(anchors[k].x, anchors[k].y);
                if (!batch.full() && k + 1 < anchors.size()) continue;
                score_windows(kernels, model, batch);
                for (std::size_t i = 0; i < batch.size(); ++i, ++next) {
                  if (batch.score(i) != want[next]) ++mismatches;
                }
                batch.clear();
              }
              ASSERT_EQ(next, anchors.size());
              EXPECT_EQ(mismatches, 0)
                  << util::simd::to_string(isa) << " seed " << seed << " bins "
                  << bins << " layout " << static_cast<int>(layout) << " stride "
                  << stride << " grid " << grid.blocks_x() << "x"
                  << grid.blocks_y() << " capacity " << capacity;
              checked += static_cast<long long>(anchors.size());
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(CpuBackend, ScoresAreIndependentOfBatchComposition) {
  // The ScoringBackend contract: a window's score never depends on what else
  // shares its batch or which lane it lands in, so a frame's results never
  // depend on how its windows were batched — bitwise, not approximately.
  const hog::HogParams params =
      make_params(9, hog::DescriptorLayout::kCellGroups);
  hog::BlockGrid grid = random_grid(30, 20, params, 21);
  svm::LinearModel model = make_model(dim_of(params), 22);
  make_order_sensitive(model, grid, params);
  std::vector<Anchor> anchors = scan_anchors(grid, params, 1);
  util::Rng rng(23);
  for (std::size_t i = anchors.size() - 1; i > 0; --i) {  // shuffle
    std::swap(anchors[i],
              anchors[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<int>(i)))]);
  }
  anchors.resize(40);
  // Neighbours in one row, so they share a pass.
  anchors.push_back({3, 2});
  anchors.push_back({4, 2});
  anchors.push_back({17, 2});

  CpuBackend backend;
  ScoreBatch all;
  all.configure(dim_of(params), anchors.size());
  fill(all, grid, params, anchors);
  backend.score(model, all);
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    ScoreBatch solo;
    solo.configure(dim_of(params), 1);
    fill(solo, grid, params, {anchors[i]});
    backend.score(model, solo);
    EXPECT_EQ(solo.score(0), all.score(i)) << "window " << i;
    EXPECT_EQ(all.score(i), reference(model, grid, params, anchors[i]));
  }
}

TEST(BackendBase, ScoreBatchFaultSiteThrowsBeforeTheKernel) {
  const hog::HogParams params = small_params();
  const hog::BlockGrid grid = random_grid(6, 5, params, 30);
  const svm::LinearModel model = make_model(dim_of(params), 31);
  ScoreBatch batch;
  batch.configure(dim_of(params), 2);
  fill(batch, grid, params, {{0, 0}, {1, 0}});

  CpuBackend backend(BackendKind::kBatch);
  fault::ScopedPlan plan(fault::Plan{.seed = 5}.with("score.batch", 1.0));
  EXPECT_THROW(backend.score(model, batch), std::runtime_error);
  // The batch was never scored, and stats did not count the failed call.
  EXPECT_EQ(backend.stats().batches, 0);
}

// --- hwsim backend ----------------------------------------------------------

TEST(HwsimBackend, QuantizedScoresTrackFloatWithinTolerance) {
  const hog::HogParams params =
      make_params(9, hog::DescriptorLayout::kCellGroups);
  const hog::BlockGrid grid = random_grid(19, 17, params, 40);
  const svm::LinearModel model = make_model(dim_of(params), 41);
  ScoreBatch batch;
  batch.configure(dim_of(params), 16);
  std::vector<Anchor> anchors = scan_anchors(grid, params, 1);
  anchors.resize(16);  // row 0 and the start of row 1
  fill(batch, grid, params, anchors);

  hwsim::HwsimBackendOptions opts;
  opts.simulate_latency = false;
  hwsim::HwsimScoreBackend device(opts);
  EXPECT_EQ(device.kind(), BackendKind::kHwsim);
  device.score(model, batch);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const float want = reference(model, grid, params, anchors[i]);
    // Q.14 features and weights: quantization error, not batch effects.
    EXPECT_NEAR(batch.score(i), want, 0.05f) << "window " << i;
  }
  // Modeled device time accrues even with the sleep off: one fill plus one
  // column cadence per window.
  EXPECT_GT(device.modeled_busy_seconds(), 0.0);
}

// --- shared backends -------------------------------------------------------
// The runtime hands one backend to every pooled and tiled engine, which call
// it directly from their own threads.

constexpr int kThreads = 4;
constexpr int kBatchesPerThread = 25;
constexpr long long kBatches = kThreads * kBatchesPerThread;
const std::vector<Anchor> kThreadAnchors{{0, 0}, {3, 1}, {1, 2}};
const long long kWindows =
    kBatches * static_cast<long long>(kThreadAnchors.size());

/// Thread `t`'s batch `b`: three windows of their own random grid.
hog::BlockGrid thread_grid(const hog::HogParams& params, int t, int b) {
  return random_grid(7, 6, params, static_cast<std::uint64_t>(t * 1000 + b));
}

/// Every thread's windows scored serially by `score(grid, anchor)`, in the
/// order the thread pushes them.
template <class Score>
std::vector<std::vector<float>> serial_scores(const hog::HogParams& params,
                                              Score score) {
  std::vector<std::vector<float>> out(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int b = 0; b < kBatchesPerThread; ++b) {
      const hog::BlockGrid grid = thread_grid(params, t, b);
      for (const Anchor a : kThreadAnchors) {
        out[static_cast<std::size_t>(t)].push_back(score(grid, a));
      }
    }
  }
  return out;
}

/// Score every thread's batches through the one `backend` from kThreads
/// concurrent threads. Returns, per thread, how many scores differ from
/// that thread's `expected` ones.
std::vector<int> concurrent_mismatches(
    ScoringBackend& backend, const svm::LinearModel& model,
    const hog::HogParams& params,
    const std::vector<std::vector<float>>& expected) {
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto slot = static_cast<std::size_t>(t);
      ScoreBatch batch;
      std::size_t next = 0;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        const hog::BlockGrid grid = thread_grid(params, t, b);
        batch.configure(dim_of(params), kThreadAnchors.size());
        fill(batch, grid, params, kThreadAnchors);
        backend.score(model, batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch.score(i) != expected[slot][next++]) ++mismatches[slot];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return mismatches;
}

TEST(SharedBackend, CpuBackendScoresConcurrentCallersExactly) {
  const hog::HogParams params = small_params();
  const svm::LinearModel model = make_model(dim_of(params), 61);
  const auto expected =
      serial_scores(params, [&](const hog::BlockGrid& grid, Anchor a) {
        return reference(model, grid, params, a);
      });

  CpuBackend backend;
  const std::vector<int> mismatches =
      concurrent_mismatches(backend, model, params, expected);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const BackendStats stats = backend.stats();
  EXPECT_EQ(stats.batches, kBatches);
  EXPECT_EQ(stats.windows, kWindows);
}

TEST(SharedBackend, HwsimDeviceScoresConcurrentCallersExactly) {
  const hog::HogParams params = small_params();
  const svm::LinearModel model = make_model(dim_of(params), 62);
  hwsim::HwsimBackendOptions options;
  options.simulate_latency = false;
  // Reference: a private device scoring one window per call, serially.
  hwsim::HwsimScoreBackend serial(options);
  const auto expected =
      serial_scores(params, [&](const hog::BlockGrid& grid, Anchor a) {
        ScoreBatch one;
        one.configure(dim_of(params), 1);
        fill(one, grid, params, {a});
        serial.score(model, one);
        return one.score(0);
      });

  hwsim::HwsimScoreBackend device(options);
  const std::vector<int> mismatches =
      concurrent_mismatches(device, model, params, expected);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const BackendStats stats = device.stats();
  EXPECT_EQ(stats.batches, kBatches);
  EXPECT_EQ(stats.windows, kWindows);
  // Every score() call pays its own pipeline fill: calls are never merged.
  const double cycles =
      static_cast<double>(kBatches * hwsim::TimingConstants::kFillCycles +
                          kWindows * hwsim::TimingConstants::kColumnCycles);
  EXPECT_DOUBLE_EQ(device.modeled_busy_seconds(),
                   cycles / options.clock_hz);
}

// --- engine seam ------------------------------------------------------------

imgproc::ImageF make_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

/// One pyramid level of the reference chain.
struct ChainLevel {
  double scale = 1.0;
  bool kept = false;  ///< false: smaller than one window, dropped
  hog::BlockGrid blocks;
};

/// The engine's pyramid half written out with the one-shot stage functions:
/// each level's cells come from a resized frame (kImage), a down-scale of
/// the native grid (kFeature) or a down-scale of the octave anchor at or
/// below the scale (kHybrid); levels smaller than one window are dropped;
/// the rest are normalized.
std::vector<ChainLevel> chain_levels(const imgproc::ImageF& frame,
                                     const hog::HogParams& params,
                                     const detect::MultiscaleOptions& ms) {
  const auto extract_at = [&](double s) {
    return hog::compute_cell_grid(
        s == 1.0 ? frame : imgproc::resize_scale(frame, 1.0 / s,
                                                 ms.image_interp),
        params);
  };
  std::vector<ChainLevel> levels;
  for (const double s : ms.scales) {
    hog::CellGrid cells;
    switch (ms.strategy) {
      case detect::PyramidStrategy::kImage:
        cells = extract_at(s);
        break;
      case detect::PyramidStrategy::kFeature:
        // A factor of 1 resamples to the same size, which is a copy.
        cells = hog::downscale_cell_grid(extract_at(1.0), s,
                                         ms.feature_interp);
        break;
      case detect::PyramidStrategy::kHybrid: {
        double octave = 1.0;
        while (octave * 2.0 <= s + 1e-9) octave *= 2.0;
        cells = hog::downscale_cell_grid(extract_at(octave), s / octave,
                                         ms.feature_interp);
        break;
      }
    }
    ChainLevel level;
    level.scale = s;
    level.kept = cells.cells_x() >= params.cells_per_window_x() &&
                 cells.cells_y() >= params.cells_per_window_y();
    if (level.kept) level.blocks = hog::normalize_cells(cells, params);
    levels.push_back(std::move(level));
  }
  return levels;
}

/// The scan half: every window's decision(extract_window) through
/// score_map, thresholded, then mapped to frame pixels by lround(x * s).
std::vector<detect::Detection> chain_hits(const std::vector<ChainLevel>& levels,
                                          const hog::HogParams& params,
                                          const svm::LinearModel& model,
                                          float threshold) {
  std::vector<detect::Detection> raw;
  for (const ChainLevel& level : levels) {
    if (!level.kept) continue;
    const imgproc::ImageF map = detect::score_map(level.blocks, params, model);
    const double s = level.scale;
    for (int cy = 0; cy < map.height(); ++cy) {
      for (int cx = 0; cx < map.width(); ++cx) {
        if (!(map.at(cx, cy) > threshold)) continue;
        detect::Detection d;
        d.x = static_cast<int>(std::lround(cx * params.cell_size * s));
        d.y = static_cast<int>(std::lround(cy * params.cell_size * s));
        d.width = static_cast<int>(std::lround(params.window_width * s));
        d.height = static_cast<int>(std::lround(params.window_height * s));
        d.score = map.at(cx, cy);
        d.scale = s;
        raw.push_back(d);
      }
    }
  }
  return raw;
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(EngineBackend, ScalarEngineBitIdenticalToStageChain) {
  // A seeded sweep over all three strategies, random cell-aligned frames
  // and random ladders (every fourth ends with a level too small to keep),
  // on a warm one-lane and a warm two-lane engine. The kept levels' blocks
  // and the raw hits must equal the written-out chain bit for bit.
  hog::HogParams params;
  const svm::LinearModel model = make_model(dim_of(params), 71);
  constexpr detect::PyramidStrategy kStrategies[] = {
      detect::PyramidStrategy::kImage, detect::PyramidStrategy::kFeature,
      detect::PyramidStrategy::kHybrid};
  detect::DetectionEngine one_lane(
      detect::EngineOptions{.threads = 1, .backend = BackendKind::kScalar});
  detect::DetectionEngine two_lanes(
      detect::EngineOptions{.threads = 2, .backend = BackendKind::kScalar});
  util::Rng rng(72);
  int dropped = 0;
  std::size_t hits = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const int width = params.cell_size * rng.uniform_int(8, 40);
    const int height = params.cell_size * rng.uniform_int(16, 40);
    const imgproc::ImageF frame = make_frame(width, height, rng.next_u64());
    detect::MultiscaleOptions ms;
    ms.strategy = kStrategies[trial % 3];
    ms.scan.threshold = model.bias;  // about half the windows pass
    // Every strategy meets each ladder shape: with the native level 1,
    // without it, and with the exact hybrid octave 2 as well.
    const int shape = trial / 3;
    if (shape != 2) ms.scales.push_back(1.0);
    if (shape == 1) ms.scales.push_back(2.0);
    const int n = rng.uniform_int(1, 3);
    for (int i = 0; i < n; ++i) ms.scales.push_back(rng.uniform(1.0, 2.6));
    std::sort(ms.scales.begin(), ms.scales.end());
    if (trial % 4 == 0) {
      // Fewer cell rows than one window at this scale.
      ms.scales.push_back(height / static_cast<double>(params.window_height) +
                          0.5);
    }
    const std::vector<ChainLevel> want = chain_levels(frame, params, ms);
    const std::vector<detect::Detection> want_raw =
        chain_hits(want, params, model, ms.scan.threshold);
    for (const ChainLevel& level : want) dropped += level.kept ? 0 : 1;
    hits += want_raw.size();

    for (detect::DetectionEngine* engine : {&one_lane, &two_lanes}) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << ", " << width << "x" << height
                   << ", lanes " << engine->threads());
      const auto levels = engine->build_pyramid(frame, params, ms);
      ASSERT_EQ(levels.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(levels[i].scale, want[i].scale);
        ASSERT_EQ(levels[i].kept, want[i].kept) << "level " << i;
        if (!want[i].kept) continue;
        EXPECT_EQ(levels[i].blocks.blocks_x(), want[i].blocks.blocks_x());
        EXPECT_EQ(levels[i].blocks.blocks_y(), want[i].blocks.blocks_y());
        EXPECT_TRUE(bitwise_equal(levels[i].blocks.data(),
                                  want[i].blocks.data()))
            << "level " << i;
      }

      const detect::MultiscaleResult& got =
          engine->process(frame, params, model, ms);
      ASSERT_EQ(got.raw.size(), want_raw.size());
      for (std::size_t i = 0; i < want_raw.size(); ++i) {
        EXPECT_EQ(got.raw[i].x, want_raw[i].x);
        EXPECT_EQ(got.raw[i].y, want_raw[i].y);
        EXPECT_EQ(got.raw[i].width, want_raw[i].width);
        EXPECT_EQ(got.raw[i].height, want_raw[i].height);
        EXPECT_EQ(got.raw[i].scale, want_raw[i].scale);
        EXPECT_EQ(got.raw[i].score, want_raw[i].score);  // bitwise, not "near"
      }
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(one_lane.stats().backend, BackendKind::kScalar);
  EXPECT_EQ(two_lanes.stats().backend, BackendKind::kScalar);
}

TEST(EngineBackend, BatchEngineBitIdenticalToScalar) {
  // Both CPU names run the one window kernel: raw windows, scores and
  // post-NMS boxes are identical, not merely close.
  hog::HogParams params;
  const auto dim = static_cast<std::size_t>(params.descriptor_size());
  for (const std::uint64_t seed : {81u, 82u, 83u}) {
    const svm::LinearModel model = make_model(dim, seed);
    const imgproc::ImageF frame = make_frame(192, 160, seed + 10);
    detect::MultiscaleOptions ms;
    ms.scales = {1.0, 1.5, 2.0};
    ms.scan.threshold = -1.0f;

    detect::DetectionEngine scalar_engine(
        detect::EngineOptions{.backend = BackendKind::kScalar});
    detect::DetectionEngine batch_engine(
        detect::EngineOptions{.backend = BackendKind::kBatch});
    const detect::MultiscaleResult a =
        scalar_engine.process(frame, params, model, ms);
    const detect::MultiscaleResult b =
        batch_engine.process(frame, params, model, ms);
    EXPECT_EQ(batch_engine.stats().backend, BackendKind::kBatch);

    ASSERT_EQ(a.raw.size(), b.raw.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.raw.size(); ++i) {
      EXPECT_EQ(a.raw[i].x, b.raw[i].x);
      EXPECT_EQ(a.raw[i].y, b.raw[i].y);
      EXPECT_EQ(a.raw[i].scale, b.raw[i].scale);
      EXPECT_EQ(a.raw[i].score, b.raw[i].score);
    }
    ASSERT_EQ(a.detections.size(), b.detections.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.detections.size(); ++i) {
      EXPECT_EQ(a.detections[i].x, b.detections[i].x);
      EXPECT_EQ(a.detections[i].y, b.detections[i].y);
      EXPECT_EQ(a.detections[i].width, b.detections[i].width);
      EXPECT_EQ(a.detections[i].height, b.detections[i].height);
      EXPECT_EQ(a.detections[i].score, b.detections[i].score);
    }
  }
}

// --- runtime seam -----------------------------------------------------------

runtime::ServerOptions server_options(BackendKind backend, int workers) {
  runtime::ServerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 8;
  opts.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.scheduler.max_level = 0;  // lossless: these tests assert determinism
  opts.multiscale.scales = {1.0, 1.5, 2.0};
  opts.backend = backend;
  return opts;
}

TEST(RuntimeBackend, SharedBackendKeepsPerStreamResultsIdentical) {
  const runtime::ServerOptions opts =
      server_options(BackendKind::kBatch, /*workers=*/2);
  const auto dim = static_cast<std::size_t>(opts.hog.descriptor_size());
  const svm::LinearModel model = make_model(dim, 91);
  constexpr int kStreams = 4;
  constexpr int kFrames = 3;
  std::vector<imgproc::ImageF> frames;
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(make_frame(160, 160, 900 + static_cast<std::uint64_t>(i)));
  }

  // Reference: one engine, its own backend, no concurrency.
  detect::DetectionEngine reference(
      detect::EngineOptions{.backend = BackendKind::kBatch});
  std::vector<std::vector<detect::Detection>> expected;
  for (const imgproc::ImageF& f : frames) {
    expected.push_back(
        reference.process(f, opts.hog, model, opts.multiscale).detections);
  }

  runtime::DetectionServer server(model, opts);
  std::vector<std::vector<std::vector<detect::Detection>>> got(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    auto& sink = got[static_cast<std::size_t>(s)];
    server.add_stream("cam" + std::to_string(s),
                      [&sink](const runtime::StreamResult& r) {
                        sink.push_back(r.detections);
                      });
  }
  server.start();
  for (int i = 0; i < kFrames; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      ASSERT_EQ(server.submit(s, frames[static_cast<std::size_t>(i)]),
                runtime::SubmitStatus::kAccepted);
    }
  }
  server.drain();
  server.stop();

  for (int s = 0; s < kStreams; ++s) {
    const auto& sink = got[static_cast<std::size_t>(s)];
    ASSERT_EQ(sink.size(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      const auto& want = expected[static_cast<std::size_t>(i)];
      const auto& have = sink[static_cast<std::size_t>(i)];
      ASSERT_EQ(have.size(), want.size()) << "stream " << s << " frame " << i;
      for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(have[d].x, want[d].x);
        EXPECT_EQ(have[d].y, want[d].y);
        EXPECT_EQ(have[d].score, want[d].score);  // sharing never perturbs
      }
    }
  }

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.backend, BackendKind::kBatch);
  EXPECT_EQ(stats.submitted, kStreams * kFrames);
  EXPECT_EQ(stats.completed, kStreams * kFrames);
  EXPECT_EQ(stats.dropped_queue + stats.dropped_deadline + stats.errors, 0);
  EXPECT_GT(stats.score_batches, 0);
  EXPECT_GT(stats.score_windows, 0);
  EXPECT_GT(stats.score_fill, 0.0);
}

TEST(RuntimeBackend, HwsimDeviceServesAllStreamsThroughOneLane) {
  runtime::ServerOptions opts =
      server_options(BackendKind::kHwsim, /*workers=*/2);
  opts.multiscale.scales = {1.0, 2.0};
  const auto dim = static_cast<std::size_t>(opts.hog.descriptor_size());
  const svm::LinearModel model = make_model(dim, 101);

  runtime::DetectionServer server(model, opts);
  EXPECT_EQ(server.backend(), BackendKind::kHwsim);

  std::vector<int> delivered(2, 0);
  for (int s = 0; s < 2; ++s) {
    int* count = &delivered[static_cast<std::size_t>(s)];
    server.add_stream("cam" + std::to_string(s),
                      [count](const runtime::StreamResult& r) {
                        if (r.status == runtime::FrameStatus::kOk) ++*count;
                      });
  }
  server.start();
  const imgproc::ImageF frame = make_frame(160, 160, 102);
  constexpr int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    for (int s = 0; s < 2; ++s) {
      ASSERT_EQ(server.submit(s, frame), runtime::SubmitStatus::kAccepted);
    }
  }
  server.drain();
  // Health is sampled before stop(): stopping reads as kDraining by design.
  EXPECT_EQ(server.health(), runtime::HealthState::kHealthy);
  server.stop();

  EXPECT_EQ(delivered[0], kFrames);
  EXPECT_EQ(delivered[1], kFrames);
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.backend, BackendKind::kHwsim);
  EXPECT_EQ(stats.completed, 2 * kFrames);
}

TEST(RuntimeBackend, ScoreBatchChaosPoisonsFramesNotTheServer) {
  runtime::ServerOptions opts =
      server_options(BackendKind::kBatch, /*workers=*/2);
  opts.multiscale.scales = {1.0, 2.0};
  opts.recovery_frames = 2;
  const auto dim = static_cast<std::size_t>(opts.hog.descriptor_size());
  const svm::LinearModel model = make_model(dim, 111);

  runtime::DetectionServer server(model, opts);
  std::vector<std::uint64_t> sequences;
  std::vector<runtime::FrameStatus> statuses;
  server.add_stream("cam0", [&](const runtime::StreamResult& r) {
    sequences.push_back(r.sequence);
    statuses.push_back(r.status);
  });
  server.start();

  constexpr int kFrames = 10;
  const imgproc::ImageF frame = make_frame(160, 160, 112);
  {
    // Every 64-window batch check has a 30% chance to throw: with only a
    // handful of batches per 160x160 two-scale frame that faults several
    // frames while leaving others clean, exercising retry + poison without
    // killing every frame.
    fault::ScopedPlan plan(
        fault::Plan{.seed = 9}.with("score.batch", 0.3));
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_EQ(server.submit(0, frame), runtime::SubmitStatus::kAccepted);
    }
    server.drain();
  }
  server.stop();

  // Exactly-once, in-order delivery holds through backend failures.
  ASSERT_EQ(sequences.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(sequences[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kFrames);
  EXPECT_EQ(stats.completed + stats.errors, kFrames);
  EXPECT_GT(stats.worker_faults, 0) << "chaos plan never fired";
  // Every kError delivery traces back to a contained fault (a poison frame,
  // or a faulted frame whose retry found the queue full); faults that were
  // retried successfully end as completed instead.
  EXPECT_LE(stats.errors, stats.worker_faults);
  EXPECT_LE(stats.poison_frames, stats.errors);
}

}  // namespace
}  // namespace pdet::score
