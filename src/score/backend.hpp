// Pluggable batched window scoring (pdet::score).
//
// The paper's real-time budget is dominated by per-window SVM classification.
// Its classifier never re-reads a window: the MACBAR stages take each block
// column once and share it with every window that overlaps it. GPU
// detectors (Campmany et al., PAPERS.md) are organised the same way — many
// windows scored in parallel over one shared feature map. This layer is that
// organisation on the CPU, and the seam that makes accelerator offload a
// configuration choice: the scanner loads a level's BlockGrid into a
// ScoreBatch once — transposed into window-minor feature planes — and then
// pushes window anchors; a ScoringBackend turns the batch into scores.
//
//   BlockGrid ──load──▶ ScoreBatch ──▶ ScoringBackend ──▶ scores
//                      (planes+anchors)  scalar = batch | hwsim
//
// Backends score windows independently, so a window's score never depends
// on what else shares its batch or on which thread scores it — the property
// that lets every engine of a server call one shared backend without
// perturbing per-stream results.
//
// Contract notes:
//  * ScoreBatch storage is plain reusable scratch in the engine workspace
//    style: configure() and load() re-shape in place and never release, so
//    a warm batch makes scoring allocation-free.
//  * Backends keep their own lock-free BackendStats; obs metrics for scoring
//    (svm.dot_products, score.batches, score.batch_fill) are recorded at the
//    *call site* (the scanner), not here — so a muted engine lane's counts
//    can be compensated exactly.
//  * The fault site "score.batch" (see fault/injector.hpp) fires inside
//    score(), on the thread that owns the batch: a backend failure surfaces
//    as an exception in that batch's frame and rides the runtime's
//    poison-frame path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/hog/block_grid.hpp"
#include "src/svm/linear_svm.hpp"
#include "src/util/simd.hpp"

namespace pdet::score {

/// Which scoring implementation serves a pipeline. `scalar` and `batch` are
/// two names for the one CPU window kernel (score_windows); both stay
/// spellable so configurations and stats keep their vocabulary.
enum class BackendKind : std::uint8_t {
  kAuto = 0,   ///< resolves to kScalar
  kScalar = 1, ///< the window kernel (bitwise equal to LinearModel::decision)
  kBatch = 2,  ///< second name for the same kernel
  kHwsim = 3,  ///< MACBAR offload model (quantized, simulated latency)
};

const char* to_string(BackendKind kind);

/// Parse a CLI spelling ("scalar" | "batch" | "hwsim" | "auto"). Returns
/// false on anything else, leaving `out` untouched.
bool parse_backend(std::string_view name, BackendKind& out);

/// Resolve kAuto to kScalar; explicit kinds pass through untouched.
BackendKind resolve(BackendKind requested);

/// Windows per scoring batch on every scan path. Large enough to amortize
/// per-batch costs (backend call, fault check); a batch holds only anchors
/// and scores, the features stay in its planes.
inline constexpr std::size_t kDefaultBatchCapacity = 64;

/// Horizontally adjacent windows one kernel pass scores.
inline constexpr int kWindowLanes = 16;

/// Where a window kernel pass reads. The planes hold one row of `pitch`
/// floats per (grid row, feature channel), values running along grid x and
/// zero-padded by at least kWindowLanes - 1 columns, so a pass anchored at
/// any window reads inside the buffer. A window's descriptor element
/// (j, i, f) — block row, block column, channel, the order
/// LinearModel::decision consumes — sits at
/// `anchor + (j * feature_len + f) * pitch + i`.
struct PlaneGeometry {
  int window_x = 0;         ///< blocks per window along x
  int window_y = 0;         ///< blocks per window along y
  int feature_len = 0;      ///< channels per block
  std::size_t pitch = 0;    ///< floats between consecutive plane rows
};

/// A batch of candidate windows over one loaded BlockGrid: the grid's
/// window-minor planes, the anchor of each pushed window, and a parallel
/// score row filled by the backend. Reusable scratch: configure() and
/// load() keep storage.
class ScoreBatch {
 public:
  /// Window anchor in grid cells (top-left block).
  struct Anchor {
    int x = 0;
    int y = 0;
  };

  /// Re-shape for `dim`-float descriptors and `capacity` windows; clears
  /// the count. Never shrinks storage (engine-workspace reuse discipline).
  void configure(std::size_t dim, std::size_t capacity);

  /// Transpose `blocks` into the batch's planes (see PlaneGeometry) and
  /// clear the count. `params` fixes the window's extent in blocks; the
  /// descriptor size must equal dimension().
  void load(const hog::BlockGrid& blocks, const hog::HogParams& params);

  std::size_t dimension() const { return dim_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }

  /// Append the window anchored at block (x, y) of the loaded grid.
  /// Requires !full() and a window that fits the grid.
  void push(int x, int y);

  Anchor anchor(std::size_t i) const { return anchors_[i]; }
  float score(std::size_t i) const { return scores_[i]; }
  void set_score(std::size_t i, float s) { scores_[i] = s; }

  /// Window i's descriptor, in LinearModel order (= hog::extract_window),
  /// copied into `out` (dimension() floats). For backends that consume
  /// whole descriptors (hwsim) and for references.
  void window(std::size_t i, std::span<float> out) const;

  const PlaneGeometry& geometry() const { return geometry_; }
  /// First plane element of window i (its (0, 0, 0) descriptor element).
  const float* plane_at(std::size_t i) const;

  /// Fraction of capacity used — the batch-fill metric.
  double fill() const {
    return capacity_ > 0
               ? static_cast<double>(count_) / static_cast<double>(capacity_)
               : 0.0;
  }

  /// Forget the windows (planes and storage kept) — called after scores
  /// are consumed.
  void clear() { count_ = 0; }

  std::size_t capacity_bytes() const {
    return planes_.capacity() * sizeof(float) +
           anchors_.capacity() * sizeof(Anchor) +
           scores_.capacity() * sizeof(float);
  }

 private:
  std::size_t dim_ = 0;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  int windows_x_ = 0;  ///< valid anchors along x of the loaded grid
  int windows_y_ = 0;
  PlaneGeometry geometry_;
  float* base_ = nullptr;  ///< 64-byte aligned start of the planes
  std::vector<float> planes_;
  std::vector<Anchor> anchors_;
  std::vector<float> scores_;
};

/// One ISA's copy of the window kernel.
struct WindowKernels {
  /// Score kWindowLanes horizontally adjacent windows, the first anchored
  /// at `x`: lane m gets bias + sum of w[k] * x_m[k], accumulated in double
  /// in k order exactly as LinearModel::decision does, rounded to float.
  void (*score_pass)(const float* w, float bias, const float* x,
                     const PlaneGeometry& g, float* out);
};

/// The kernel's copies (util::simd seam); CPU backends run active().
const util::simd::Kernels<WindowKernels>& window_kernels();

/// Score every window of `batch` with one copy of the kernel. Runs of
/// windows in one grid row whose anchors lie within kWindowLanes columns of
/// the run's first share a pass; each score is bitwise equal to
/// `model.decision` of the window's descriptor on every copy, whichever
/// lane the window lands in.
void score_windows(const WindowKernels& kernels, const svm::LinearModel& model,
                   ScoreBatch& batch);

/// Lifetime accounting of one backend instance (relaxed atomics inside, so
/// concurrent engines and level lanes never contend). `capacity_sum`
/// accumulates batch capacities so mean fill = windows / capacity_sum.
struct BackendStats {
  long long batches = 0;       ///< score() calls
  long long windows = 0;       ///< windows scored
  long long capacity_sum = 0;  ///< sum of batch capacities at score() time

  double mean_fill() const {
    return capacity_sum > 0
               ? static_cast<double>(windows) / static_cast<double>(capacity_sum)
               : 0.0;
  }
};

/// The scoring seam. Implementations must be thread-safe (concurrent
/// score() calls on distinct batches) and must score windows independently
/// of one another and of batch composition.
class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  virtual BackendKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Score windows [0, batch.size()): writes batch scores. The model must
  /// match batch.dimension(). May throw (fault site "score.batch", device
  /// faults); the batch's scores are then unspecified and the frame that
  /// owns it is expected to fail upward into the runtime's poison-frame
  /// path.
  virtual void score(const svm::LinearModel& model, ScoreBatch& batch) = 0;

  virtual BackendStats stats() const = 0;
};

/// Shared base for real (non-proxy) backends: the "score.batch" fault site
/// plus lock-free stats around a pure virtual kernel.
class BackendBase : public ScoringBackend {
 public:
  void score(const svm::LinearModel& model, ScoreBatch& batch) final;
  BackendStats stats() const override;

 protected:
  virtual void kernel(const svm::LinearModel& model, ScoreBatch& batch) = 0;

 private:
  std::atomic<long long> batches_{0};
  std::atomic<long long> windows_{0};
  std::atomic<long long> capacity_sum_{0};
};

/// The CPU backend: score_windows with the process's kernel copy, under
/// either CPU name (`kind` only labels stats).
class CpuBackend final : public BackendBase {
 public:
  explicit CpuBackend(BackendKind kind = BackendKind::kScalar);

  BackendKind kind() const override { return kind_; }

 protected:
  void kernel(const svm::LinearModel& model, ScoreBatch& batch) override;

 private:
  BackendKind kind_;
};

/// Construct a CPU backend. kAuto is resolved first; kHwsim returns nullptr
/// (the offload backend lives in pdet_hwsim — construct it there and pass it
/// down as a shared scorer).
std::unique_ptr<ScoringBackend> make_backend(BackendKind kind);

}  // namespace pdet::score
