#include "src/detect/scanner.hpp"

#include <algorithm>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"

namespace pdet::detect {
namespace {

/// Score the batch's windows and emit detections in push (row-major) order.
/// Scoring metrics are recorded here, on the thread that owns the scan
/// (backends keep only their own BackendStats).
void flush_batch(const svm::LinearModel& model, score::ScoringBackend& backend,
                 const ScanOptions& options, const hog::HogParams& params,
                 score::ScoreBatch& batch, std::vector<Detection>& out) {
  {
    PDET_TRACE_SCOPE("svm/score");
    backend.score(model, batch);
  }
  obs::counter_add("svm.dot_products", static_cast<long long>(batch.size()));
  obs::counter_add("score.batches");
  obs::observe("score.batch_fill", batch.fill());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const float score = batch.score(i);
    if (score > options.threshold) {
      const score::ScoreBatch::Anchor a = batch.anchor(i);
      Detection d;
      d.x = a.x * params.cell_size;
      d.y = a.y * params.cell_size;
      d.width = params.window_width;
      d.height = params.window_height;
      d.score = score;
      out.push_back(d);
    }
  }
  batch.clear();
}

}  // namespace

long long scan_level_into(const hog::BlockGrid& blocks,
                          const hog::HogParams& params,
                          const svm::LinearModel& model,
                          score::ScoringBackend& backend,
                          const ScanOptions& options, score::ScoreBatch& batch,
                          std::vector<Detection>& out) {
  PDET_TRACE_SCOPE("detect/scan_level");
  params.validate();
  PDET_REQUIRE(options.cell_stride >= 1);
  PDET_REQUIRE(model.dimension() ==
               static_cast<std::size_t>(params.descriptor_size()));
  PDET_REQUIRE(batch.dimension() ==
               static_cast<std::size_t>(params.descriptor_size()));
  PDET_REQUIRE(batch.empty());
  out.clear();

  const int nx = hog::window_positions_x(blocks, params);
  const int ny = hog::window_positions_y(blocks, params);
  if (nx <= 0 || ny <= 0) return 0;

  // One transpose per level; windows then enter the batch as anchors only,
  // row-major, and the batch is scored whenever it fills.
  {
    PDET_TRACE_SCOPE("score/load_planes");
    batch.load(blocks, params);
  }
  long long batches = 0;
  for (int cy = 0; cy < ny; cy += options.cell_stride) {
    for (int cx = 0; cx < nx; cx += options.cell_stride) {
      batch.push(cx, cy);
      if (batch.full()) {
        flush_batch(model, backend, options, params, batch, out);
        ++batches;
      }
    }
  }
  if (!batch.empty()) {
    flush_batch(model, backend, options, params, batch, out);
    ++batches;
  }
  return batches;
}

imgproc::ImageF score_map(const hog::BlockGrid& blocks,
                          const hog::HogParams& params,
                          const svm::LinearModel& model) {
  params.validate();
  PDET_REQUIRE(model.dimension() ==
               static_cast<std::size_t>(params.descriptor_size()));
  const int nx = hog::window_positions_x(blocks, params);
  const int ny = hog::window_positions_y(blocks, params);
  imgproc::ImageF map(std::max(nx, 0), std::max(ny, 0));
  std::vector<float> desc(static_cast<std::size_t>(params.descriptor_size()));
  for (int cy = 0; cy < ny; ++cy) {
    for (int cx = 0; cx < nx; ++cx) {
      hog::extract_window(blocks, params, cx, cy, desc);
      map.at(cx, cy) = model.decision(desc);
    }
  }
  return map;
}

long long scan_window_count(const hog::BlockGrid& blocks,
                            const hog::HogParams& params, int cell_stride) {
  PDET_REQUIRE(cell_stride >= 1);
  const int nx = hog::window_positions_x(blocks, params);
  const int ny = hog::window_positions_y(blocks, params);
  const long long sx = (nx + cell_stride - 1) / cell_stride;
  const long long sy = (ny + cell_stride - 1) / cell_stride;
  return sx * sy;
}

}  // namespace pdet::detect
