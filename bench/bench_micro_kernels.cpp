// Experiment E7 — google-benchmark micro kernels for every stage of the
// detection chain (software and fixed-point hardware arithmetic), plus the
// wire CRC-32 every served frame is signed and checked with.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/detect/nms.hpp"
#include "src/detect/scanner.hpp"
#include "src/fixedpoint/cordic.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/hwsim/accelerator.hpp"
#include "src/hwsim/fixed_pipeline.hpp"
#include "src/hwsim/score_backend.hpp"
#include "src/score/backend.hpp"
#include "src/imgproc/convert.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/imgproc/resize.hpp"
#include "src/svm/linear_svm.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd.hpp"

namespace {

using namespace pdet;

imgproc::ImageF random_image(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(w, h);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

void BM_Gradient960x540(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imgproc::compute_gradients(img));
  }
}
BENCHMARK(BM_Gradient960x540);

void BM_CellGridWindow(benchmark::State& state) {
  const imgproc::ImageF img = random_image(64, 128, 2);
  const hog::HogParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::compute_cell_grid(img, params));
  }
}
BENCHMARK(BM_CellGridWindow);

void BM_CellGridFrame960x540(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 3);
  const hog::HogParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::compute_cell_grid(img, params));
  }
}
BENCHMARK(BM_CellGridFrame960x540);

// --- tile-size sweep: gradient + histogram kernels at candidate tile dims ---
// The UHD pipeline (pdet::tile) picks a core tile size; these rows show what
// the two dominant per-pixel kernels cost per candidate: VGA-class 640x480,
// the default 960x544 tile (plus halo it crops ~1200x800, dominated by the
// same per-pixel cost), and 720p-class 1280x720. Pixels/sec should be flat —
// all three fit streaming access patterns — so the tile size choice is about
// halo overhead, not kernel efficiency (see DESIGN.md tiling section).
void BM_GradientTileSweep(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int h = static_cast<int>(state.range(1));
  const imgproc::ImageF img = random_image(w, h, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imgproc::compute_gradients(img));
  }
  state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_GradientTileSweep)
    ->Args({640, 480})
    ->Args({960, 544})
    ->Args({1280, 720});

void BM_CellGridTileSweep(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int h = static_cast<int>(state.range(1));
  const imgproc::ImageF img = random_image(w, h, 22);
  const hog::HogParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::compute_cell_grid(img, params));
  }
  state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_CellGridTileSweep)
    ->Args({640, 480})
    ->Args({960, 544})
    ->Args({1280, 720});

void BM_NormalizeCellsFrame(benchmark::State& state) {
  const hog::HogParams params;
  const hog::CellGrid cells =
      hog::compute_cell_grid(random_image(960, 540, 4), params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::normalize_cells(cells, params));
  }
}
BENCHMARK(BM_NormalizeCellsFrame);

void BM_FeatureDownscaleFrame(benchmark::State& state) {
  const hog::HogParams params;
  const hog::CellGrid cells =
      hog::compute_cell_grid(random_image(960, 540, 5), params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hog::downscale_cell_grid(cells, 2.0, hog::FeatureInterp::kBilinear));
  }
}
BENCHMARK(BM_FeatureDownscaleFrame);

void BM_ImageResizeHalfFrame(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        imgproc::resize_scale(img, 0.5, imgproc::Interp::kBilinear));
  }
}
BENCHMARK(BM_ImageResizeHalfFrame);

void BM_ImageResizeBicubicHalfFrame(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        imgproc::resize_scale(img, 0.5, imgproc::Interp::kBicubic));
  }
}
BENCHMARK(BM_ImageResizeBicubicHalfFrame);

void BM_SvmDecision4608(benchmark::State& state) {
  util::Rng rng(7);
  svm::LinearModel model;
  model.weights.resize(4608);
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  std::vector<float> x(4608);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.decision(x));
  }
}
BENCHMARK(BM_SvmDecision4608);

// --- window scoring: windows/sec vs batch size ---
// One grid-backed ScoreBatch: the block grid of a 640x480 level (80x60
// cells, random features) loaded once, then the first `batch` windows of
// its scan order pushed and scored — the scanner's shape. Kernel is the one
// CPU window kernel (both backend names); Decision is the reference it is
// pinned to, each window read out through the batch's accessor and scored
// by LinearModel::decision; hwsim runs the quantized MACBAR model with
// latency simulation off so the measurement is host arithmetic, not
// modeled device time. LoadPlanes is the once-per-level transpose.
svm::LinearModel scoring_model(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(dim);
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  model.bias = 0.1f;
  return model;
}

hog::BlockGrid scoring_grid(const hog::HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  hog::BlockGrid grid(80, 60, params.block_feature_len(), params.layout);
  for (int y = 0; y < grid.blocks_y(); ++y) {
    for (int x = 0; x < grid.blocks_x(); ++x) {
      for (float& v : grid.block(x, y)) {
        v = static_cast<float>(rng.uniform(0.0, 0.2));
      }
    }
  }
  return grid;
}

void load_batch(score::ScoreBatch& batch, const hog::BlockGrid& grid,
                const hog::HogParams& params, std::size_t count) {
  batch.configure(static_cast<std::size_t>(params.descriptor_size()), count);
  batch.load(grid, params);
  const auto nx =
      static_cast<std::size_t>(hog::window_positions_x(grid, params));
  for (std::size_t i = 0; i < count; ++i) {
    batch.push(static_cast<int>(i % nx), static_cast<int>(i / nx));
  }
}

void score_backend_bench(benchmark::State& state,
                         score::ScoringBackend& backend) {
  const hog::HogParams params;
  const svm::LinearModel model = scoring_model(
      static_cast<std::size_t>(params.descriptor_size()), 13);
  const hog::BlockGrid grid = scoring_grid(params, 14);
  const auto count = static_cast<std::size_t>(state.range(0));
  score::ScoreBatch batch;
  load_batch(batch, grid, params, count);
  for (auto _ : state) {
    backend.score(model, batch);
    benchmark::DoNotOptimize(batch.score(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void BM_ScoreKernel(benchmark::State& state) {
  score::CpuBackend backend;
  score_backend_bench(state, backend);
}
BENCHMARK(BM_ScoreKernel)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ScoreDecision(benchmark::State& state) {
  const hog::HogParams params;
  const auto dim = static_cast<std::size_t>(params.descriptor_size());
  const svm::LinearModel model = scoring_model(dim, 13);
  const hog::BlockGrid grid = scoring_grid(params, 14);
  const auto count = static_cast<std::size_t>(state.range(0));
  score::ScoreBatch batch;
  load_batch(batch, grid, params, count);
  std::vector<float> row(dim);
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      batch.window(i, row);
      benchmark::DoNotOptimize(model.decision(row));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ScoreDecision)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ScoreLoadPlanes(benchmark::State& state) {
  const hog::HogParams params;
  const hog::BlockGrid grid = scoring_grid(params, 14);
  score::ScoreBatch batch;
  batch.configure(static_cast<std::size_t>(params.descriptor_size()), 64);
  for (auto _ : state) {
    batch.load(grid, params);
    benchmark::DoNotOptimize(batch.geometry().pitch);
  }
}
BENCHMARK(BM_ScoreLoadPlanes);

void BM_ScoreHwsim(benchmark::State& state) {
  hwsim::HwsimBackendOptions opts;
  opts.simulate_latency = false;
  hwsim::HwsimScoreBackend backend(opts);
  score_backend_bench(state, backend);
}
BENCHMARK(BM_ScoreHwsim)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ScanLevel960x540(benchmark::State& state) {
  const hog::HogParams params;
  util::Rng rng(8);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  const hog::CellGrid cells =
      hog::compute_cell_grid(random_image(960, 540, 9), params);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, params);
  detect::ScanOptions scan;
  scan.threshold = 1e9f;
  score::CpuBackend backend;
  score::ScoreBatch batch;
  batch.configure(static_cast<std::size_t>(params.descriptor_size()),
                  score::kDefaultBatchCapacity);
  std::vector<detect::Detection> hits;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::scan_level_into(blocks, params, model,
                                                     backend, scan, batch,
                                                     hits));
  }
}
BENCHMARK(BM_ScanLevel960x540);

void BM_CordicVectoring(benchmark::State& state) {
  const fixedpoint::Cordic cordic(static_cast<int>(state.range(0)));
  double fx = 113.0;
  double fy = -77.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cordic.vectoring(fx, fy));
  }
}
BENCHMARK(BM_CordicVectoring)->Arg(8)->Arg(12)->Arg(16);

void BM_LibmAtan2Hypot(benchmark::State& state) {
  double fx = 113.0;
  double fy = -77.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::atan2(fy, fx) + std::hypot(fx, fy));
  }
}
BENCHMARK(BM_LibmAtan2Hypot);

void BM_FixedPipelineWindow(benchmark::State& state) {
  const hog::HogParams params;
  const hwsim::FixedHogPipeline pipe(params);
  const imgproc::ImageU8 img = imgproc::to_u8(random_image(64, 128, 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.normalize(pipe.compute_cells(img)));
  }
}
BENCHMARK(BM_FixedPipelineWindow);

// One 256x256 frame through the streamed circuit at scales {1, 2}.
void BM_CyclePipeline256(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(hog::HogParams{}.descriptor_size());
  const hwsim::Accelerator accel({}, scoring_model(dim, 12));
  const imgproc::ImageU8 img = imgproc::to_u8(random_image(256, 256, 12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.stream({&img, 1}));
  }
}
BENCHMARK(BM_CyclePipeline256);

void BM_Nms(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<detect::Detection> dets;
  for (int i = 0; i < 500; ++i) {
    detect::Detection d;
    d.x = rng.uniform_int(0, 800);
    d.y = rng.uniform_int(0, 400);
    d.width = 64;
    d.height = 128;
    d.score = static_cast<float>(rng.uniform(-1, 1));
    dets.push_back(d);
  }
  for (auto _ : state) {
    auto copy = dets;
    benchmark::DoNotOptimize(detect::nms(std::move(copy), 0.45));
  }
}
BENCHMARK(BM_Nms);

// Both copies of the wire CRC-32 (util::crc_kernels) at a Result's size
// (200 B), a roi_fleet SubmitFrame (81,952 B) and a 640x480 one
// (1,228,816 B). The AVX2 copy reports an error where CPUID lacks it.
void BM_Crc32(benchmark::State& state, util::simd::Isa isa) {
  if (!util::simd::supported(isa)) {
    state.SkipWithError("copy not supported on this CPU");
    return;
  }
  const util::CrcKernels& kernels = util::crc_kernels().at(isa);
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(31);
  std::vector<std::uint8_t> buf(n);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.crc32(buf, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Crc32, baseline, util::simd::Isa::kBaseline)
    ->Arg(200)
    ->Arg(81952)
    ->Arg(1228816);
BENCHMARK_CAPTURE(BM_Crc32, avx2, util::simd::Isa::kAvx2)
    ->Arg(200)
    ->Arg(81952)
    ->Arg(1228816);

}  // namespace
