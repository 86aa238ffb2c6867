// Experiment E5 — the paper's computational-complexity claim (Sections 4-5):
// moving the scaling stage after feature extraction "reduces the
// computational complexity significantly" because the expensive histogram
// generation runs once instead of once per pyramid level.
//
// We measure the software realization directly: wall-clock per frame of the
// engine's pyramid half (DetectionEngine::build_pyramid — shared inputs,
// resize or feature down-scale, normalization, no scan), warm on one lane,
// for the conventional image pyramid (Figure 3a), Dollar's hybrid and the
// proposed feature pyramid (Figure 3b) at increasing scale counts, with the
// per-stage split, plus the design-choice ablations DESIGN.md lists (block
// norm scheme and feature interpolation kernel vs accuracy).
//
// Exit 1 unless every ladder, at 1 and 2 lanes, runs the cell-grid
// extractions its strategy promises per frame (the hog.cell_grids counter:
// 1 for the feature pyramid, the ladder length for the image pyramid, the
// octave-anchor count for the hybrid). Times are printed, not gated: they
// measure the host. Under PDET_OBS_DISABLED the counter does not exist and
// the gate is skipped with a message.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/model_pyramid.hpp"
#include "src/core/pedestrian_detector.hpp"
#include "src/core/scale_experiment.hpp"
#include "src/detect/engine.hpp"
#include "src/dataset/scene.hpp"
#include "src/dataset/synth.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/hwsim/timing.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace pdet;
using detect::PyramidStrategy;

/// Cell-grid extractions one frame of `strategy` runs: the paper's feature
/// pyramid extracts once, the image pyramid once per level, Dollar's hybrid
/// once per octave anchor (1, 2, 4, ... up to the largest scale).
long long expected_cell_grids(PyramidStrategy strategy,
                              const std::vector<double>& scales) {
  switch (strategy) {
    case PyramidStrategy::kFeature:
      return 1;
    case PyramidStrategy::kImage:
      return static_cast<long long>(scales.size());
    case PyramidStrategy::kHybrid: {
      const double max_scale = *std::max_element(scales.begin(), scales.end());
      long long anchors = 0;
      for (double a = 1.0; a <= max_scale + 1e-9; a *= 2.0) ++anchors;
      return anchors;
    }
  }
  return -1;
}

/// The `hog.cell_grids` count of one build_pyramid call.
long long cell_grids_per_frame(detect::DetectionEngine& engine,
                               const imgproc::ImageF& frame,
                               const hog::HogParams& params,
                               const detect::MultiscaleOptions& options) {
  const obs::Registry& registry = obs::Registry::instance();
  const long long before = registry.counter("hog.cell_grids");
  (void)engine.build_pyramid(frame, params, options);
  return registry.counter("hog.cell_grids") - before;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_pipeline_speedup",
                "Feature pyramid vs image pyramid cost (paper Sections 4-5)");
  cli.add_int("width", 960, "frame width");
  cli.add_int("height", 536, "frame height (multiple of the 8-px cell)");
  cli.add_int("repeats", 3, "timing repeats per config");
  obs::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);
  obs::configure_from_cli(cli);
  // Benches always aggregate metrics — the per-stage JSON below rides on them.
  obs::set_metrics_enabled(true);

  const int width = cli.get_int("width");
  const int height = cli.get_int("height");
  const int repeats = cli.get_int("repeats");

  util::Rng rng(404);
  dataset::SceneOptions sopts;
  sopts.width = width;
  sopts.height = height;
  const dataset::Scene scene = dataset::render_scene(rng, sopts);
  const hog::HogParams params;

  std::printf(
      "E5: pyramid construction cost (DetectionEngine::build_pyramid, warm, "
      "1 lane), %dx%d frame\n\n",
      width, height);
  util::Table table({"scales", "image pyr ms", "hybrid [4] ms", "feature pyr ms",
                     "speedup", "cell grids img/hyb/feat"});
  const std::vector<std::vector<double>> scale_sets{
      {1.0, 2.0},                            // the paper's hardware config
      {1.0, 1.3, 1.6, 2.0},
      {1.0, 1.2, 1.4, 1.6, 1.8, 2.0},
      {1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0},
  };
  // The gate reads the hog.cell_grids counter, which PDET_OBS_DISABLED
  // compiles out.
#ifdef PDET_OBS_DISABLED
  constexpr bool kGateCellGrids = false;
#else
  constexpr bool kGateCellGrids = true;
#endif
  bool gate_ok = true;
  for (const auto& scales : scale_sets) {
    std::vector<std::string> row{util::format("%zu", scales.size())};
    std::string grids;
    double image_ms = 0.0;
    for (const auto& [strategy, name] :
         {std::pair{PyramidStrategy::kImage, "image"},
          {PyramidStrategy::kHybrid, "hybrid"},
          {PyramidStrategy::kFeature, "feature"}}) {
      detect::MultiscaleOptions options;
      options.strategy = strategy;
      options.scales = scales;
      detect::DetectionEngine engine;
      (void)engine.build_pyramid(scene.image, params, options);  // warm-up
      const util::Timer timer;
      for (int r = 0; r < repeats; ++r) {
        (void)engine.build_pyramid(scene.image, params, options);
      }
      const double ms = timer.milliseconds() / repeats;
      if (strategy == PyramidStrategy::kImage) image_ms = ms;
      row.push_back(util::to_fixed(ms, 1));
      if (strategy == PyramidStrategy::kFeature) {
        row.push_back(util::to_fixed(image_ms / ms, 2) + "x");
      }

      const long long want = expected_cell_grids(strategy, scales);
      for (const int lanes : {1, 2}) {
        engine.set_threads(lanes);
        const long long got =
            cell_grids_per_frame(engine, scene.image, params, options);
        if (lanes == 1) {
          grids += (grids.empty() ? "" : "/") +
                   (kGateCellGrids ? std::to_string(got) : std::string("-"));
        }
        if (kGateCellGrids && got != want) {
          std::printf("GATE FAIL: %s pyramid, %zu scales, %d lane(s): %lld "
                      "cell grids per frame, want %lld\n",
                      name, scales.size(), lanes, got, want);
          gate_ok = false;
        }
      }
    }
    row.push_back(grids);
    table.add_row(row);
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\npaper shape: the image pyramid re-runs gradient+histogram per level\n"
      "so its cost grows with the scale count, while the feature pyramid\n"
      "pays extraction once — the gap widens with more scales.\n");
  if (!kGateCellGrids) {
    std::printf(
        "cell-grid gate skipped: metrics are compiled out "
        "(PDET_OBS_DISABLED)\n");
  } else if (!gate_ok) {
    return 1;
  } else {
    std::printf(
        "cell-grid gate: ok (feature 1, image = ladder length, hybrid = "
        "octave anchors; every ladder at 1 and 2 lanes)\n");
  }

  // Extraction-only accounting (the stage the paper moves out of the loop).
  {
    util::Timer timer;
    const hog::CellGrid cells = hog::compute_cell_grid(scene.image, params);
    const double extract_ms = timer.milliseconds();
    timer.reset();
    const hog::CellGrid half =
        hog::downscale_cell_grid(cells, 2.0, hog::FeatureInterp::kBilinear);
    const double scale_ms = timer.milliseconds();
    std::printf(
        "\nstage split: cell-histogram extraction %.1f ms vs feature "
        "down-scale %.2f ms (%.0fx cheaper — why the paper moves scaling "
        "after extraction; %dx%d grid -> %dx%d)\n",
        extract_ms, scale_ms, extract_ms / scale_ms, cells.cells_x(),
        cells.cells_y(), half.cells_x(), half.cells_y());
  }

  // --- the third family: model pyramid (Benenson [1]) vs feature pyramid ---
  {
    std::printf("\n--- run-time detection cost: feature pyramid vs model pyramid ---\n");
    const dataset::WindowSet train = dataset::make_window_set(271, 150, 300);
    core::PedestrianDetector fp_detector;
    fp_detector.train(train);
    fp_detector.mutable_config().multiscale.scales = {1.0, 1.5, 2.0};

    core::ModelPyramidConfig mp_config;
    mp_config.scales = {1.0, 1.5, 2.0};
    core::ModelPyramidDetector mp_detector(mp_config);
    util::Timer train_timer;
    mp_detector.train(train);
    const double mp_train_s = train_timer.seconds();

    util::Timer t1;
    const auto fp_result = fp_detector.detect(scene.image);
    const double fp_ms = t1.milliseconds();
    util::Timer t2;
    const auto mp_result = mp_detector.detect(scene.image);
    const double mp_ms = t2.milliseconds();
    std::printf(
        "feature pyramid: %.1f ms/frame (%lld windows over %d levels)\n"
        "model pyramid  : %.1f ms/frame (%lld windows, 1 extraction, no "
        "pyramid; paid %.1f s extra training offline)\n"
        "(Benenson et al. [1] trade test-time resampling for train-time\n"
        " cost. In scalar software the big-window models' longer dot\n"
        " products dominate, so the feature pyramid wins here; on hardware\n"
        " with parallel MACs the model pyramid's zero-resampling shines —\n"
        " but it needs K weight memories, where the paper's feature scaling\n"
        " keeps the FPGA's single model memory.)\n",
        fp_ms, fp_result.windows_evaluated, fp_result.levels, mp_ms,
        mp_result.windows_evaluated, mp_train_s);

    // --- persistent engine: steady-state reuse and per-level threading ---
    // The streaming counterpart of the numbers above: one DetectionEngine
    // held across frames re-shapes warm buffers instead of reallocating
    // (frame 1 pays the workspace sizing), and levels can be scanned on
    // parallel lanes with bit-identical output.
    std::printf("\n--- persistent engine: steady-state reuse, --threads scaling ---\n");
    const auto& cfg = fp_detector.config();
    util::Table eng_table(
        {"threads", "cold ms", "steady ms/frame", "workspace KiB", "reuse hits"});
    for (const int threads : {1, 2, 4}) {
      detect::DetectionEngine engine(detect::EngineOptions{.threads = threads});
      util::Timer cold;
      (void)engine.process(scene.image, cfg.hog, fp_detector.model(),
                           cfg.multiscale);
      const double cold_ms = cold.milliseconds();
      constexpr int kSteadyFrames = 5;
      util::Timer steady;
      for (int i = 0; i < kSteadyFrames; ++i) {
        (void)engine.process(scene.image, cfg.hog, fp_detector.model(),
                             cfg.multiscale);
      }
      const double steady_ms = steady.milliseconds() / kSteadyFrames;
      eng_table.add_row(
          {util::format("%d", threads), util::to_fixed(cold_ms, 1),
           util::to_fixed(steady_ms, 1),
           util::to_fixed(static_cast<double>(engine.stats().alloc_bytes) / 1024.0, 0),
           util::format("%lld", engine.stats().reuse_hits)});
    }
    std::fputs(eng_table.to_string().c_str(), stdout);
    std::printf(
        "(steady < cold: warm-buffer reuse removes every per-frame\n"
        " allocation; extra lanes help when level costs are balanced —\n"
        " the base level dominates the feature pyramid, bounding the gain.)\n");
  }

  // --- ablation 1: block normalization scheme vs accuracy ---
  std::printf("\n--- ablation: block normalization scheme (base-scale accuracy) ---\n");
  util::Table norm_table({"norm", "accuracy %", "AUC"});
  for (const auto& [name, norm] :
       {std::pair{"L2-Hys", hog::BlockNorm::kL2Hys},
        {"L2", hog::BlockNorm::kL2},
        {"L1", hog::BlockNorm::kL1},
        {"L1-sqrt", hog::BlockNorm::kL1Sqrt}}) {
    core::ScaleExperimentConfig config;
    config.hog.norm = norm;
    config.train_pos = 200;
    config.train_neg = 400;
    config.test_pos = 150;
    config.test_neg = 300;
    config.scales = {};
    const auto result = core::run_scale_experiment(config);
    norm_table.add_row({name, util::to_fixed(result.base.accuracy * 100, 2),
                        util::to_fixed(result.base.roc.auc, 4)});
  }
  std::fputs(norm_table.to_string().c_str(), stdout);

  // --- ablation 1b: gradient operator (Dalal & Triggs' comparison) ---
  std::printf("\n--- ablation: gradient operator (base-scale accuracy) ---\n");
  util::Table grad_table({"operator", "accuracy %", "AUC"});
  for (const auto& [name, op] :
       {std::pair{"centered [-1 0 1]", imgproc::GradientOp::kCentered},
        {"Sobel 3x3", imgproc::GradientOp::kSobel},
        {"Prewitt 3x3", imgproc::GradientOp::kPrewitt},
        {"one-sided [-1 1]", imgproc::GradientOp::kOneSided}}) {
    core::ScaleExperimentConfig config;
    config.hog.gradient_op = op;
    config.train_pos = 200;
    config.train_neg = 400;
    config.test_pos = 150;
    config.test_neg = 300;
    config.scales = {};
    const auto result = core::run_scale_experiment(config);
    grad_table.add_row({name, util::to_fixed(result.base.accuracy * 100, 2),
                        util::to_fixed(result.base.roc.auc, 4)});
  }
  std::fputs(grad_table.to_string().c_str(), stdout);

  // --- ablation 1c: Gaussian pre-smoothing (Dalal's sigma study) ---
  std::printf("\n--- ablation: pre-smoothing sigma (base-scale accuracy) ---\n");
  util::Table smooth_table({"sigma", "accuracy %", "AUC"});
  for (const double sigma : {0.0, 0.5, 1.0, 2.0}) {
    core::ScaleExperimentConfig config;
    config.hog.presmooth_sigma = static_cast<float>(sigma);
    config.train_pos = 200;
    config.train_neg = 400;
    config.test_pos = 150;
    config.test_neg = 300;
    config.scales = {};
    const auto result = core::run_scale_experiment(config);
    smooth_table.add_row({util::to_fixed(sigma, 1),
                          util::to_fixed(result.base.accuracy * 100, 2),
                          util::to_fixed(result.base.roc.auc, 4)});
  }
  std::fputs(smooth_table.to_string().c_str(), stdout);
  std::printf(
      "(On INRIA, Dalal & Triggs found sigma = 0 best: real pedestrians\n"
      " carry fine texture that smoothing destroys. On these synthetic\n"
      " windows the fine scale is mostly sensor noise, so mild smoothing\n"
      " helps instead — a known artifact of the dataset substitution to\n"
      " keep in mind when reading absolute accuracies.)\n");

  // --- robustness: fog/haze density vs recall ---
  std::printf("\n--- robustness: fog density vs positive recall ---\n");
  {
    core::PedestrianDetector fog_detector;
    fog_detector.train(dataset::make_window_set(606, 250, 500));
    // Pure photometric fog is an affine transform that L2-Hys normalization
    // cancels *exactly* (we verify: density 0.8 alone costs nothing) — the
    // real-world damage comes from sensor noise that does not scale with
    // the crushed contrast, so the sweep adds a fixed post-fog noise floor.
    util::Table fog_table(
        {"fog density", "recall % (fog only)", "recall % (fog + sensor noise)"});
    for (const double density : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
      const dataset::WindowSet test = dataset::make_window_set(607, 120, 0);
      int clean = 0;
      int noisy = 0;
      util::Rng noise_rng(608);
      for (const auto& w : test.windows) {
        imgproc::ImageF fogged = w;
        dataset::apply_fog(fogged, density);
        if (fog_detector.score_window(fogged) > 0) ++clean;
        dataset::add_noise(fogged, noise_rng, 0.03);
        if (fog_detector.score_window(fogged) > 0) ++noisy;
      }
      fog_table.add_row({util::to_fixed(density, 1),
                         util::to_fixed(100.0 * clean / 120.0, 1),
                         util::to_fixed(100.0 * noisy / 120.0, 1)});
    }
    std::fputs(fog_table.to_string().c_str(), stdout);
    std::printf(
        "(fog-only recall is flat: block normalization cancels the affine\n"
        " contrast loss exactly. With a fixed sensor-noise floor the\n"
        " fog-crushed gradients sink below the noise and recall falls —\n"
        " the failure mode a DAS actually faces at night/in haze.)\n");
  }

  // --- ablation 2: feature down-sampling interpolation at scale 1.4 ---
  std::printf("\n--- ablation: feature-scaling interpolation (scale 1.4) ---\n");
  util::Table interp_table({"interp", "accuracy %", "AUC"});
  for (const auto& [name, interp] :
       {std::pair{"bilinear", hog::FeatureInterp::kBilinear},
        {"nearest", hog::FeatureInterp::kNearest},
        {"area", hog::FeatureInterp::kArea}}) {
    core::ScaleExperimentConfig config;
    config.feature_method_interp = interp;
    config.train_pos = 200;
    config.train_neg = 400;
    config.test_pos = 150;
    config.test_neg = 300;
    config.scales = {1.4};
    const auto result = core::run_scale_experiment(config);
    interp_table.add_row(
        {name, util::to_fixed(result.rows[0].feature.accuracy * 100, 2),
         util::to_fixed(result.rows[0].feature.roc.auc, 4)});
  }
  std::fputs(interp_table.to_string().c_str(), stdout);

  // Per-stage metrics JSON alongside the tables, with the accelerator's cycle
  // accounting for this frame size at the paper's hardware scale set.
  const hwsim::TimingModel timing(hwsim::timing_config_for_frame(width, height));
  hwsim::publish_timing_metrics(timing, scale_sets.front());
  if (!obs::report_from_cli(cli)) return 1;
  if (cli.get_string("metrics-out").empty()) {
    const char* path = "bench_pipeline_speedup_metrics.json";
    if (!obs::write_file(path, obs::Registry::instance().to_json())) return 1;
    std::printf("metrics JSON written to %s\n", path);
  }
  return 0;
}
