// Ablation bench — fixed-point design choices of the accelerator.
//
// The paper's RTL fixes specific word lengths (and CORDIC depth) without
// reporting a sensitivity study; this bench supplies it: how the agreement
// between the fixed-point accelerator and the double-precision software
// chain depends on (a) SVM weight quantization bits, (b) normalized-feature
// bits, (c) CORDIC iterations, and (d) the shift-and-add scaler's
// coefficient bits. "Agreement" is the fraction of windows classified with
// the same sign plus the mean absolute score error over a labelled set.
//
// Exit 1 unless every window's sign agrees (100.0 %) on the default
// configuration and on every weight-bit and feature-bit row from Q.10 up,
// and unless the mean |score err| of those rows and of the scaler path at
// its default Q.8 stays within kMaxMeanScoreErr. The paper measures
// accuracy (Table 1, Figure 4) on its floating-point MATLAB model and
// reports only the FPGA's speed, so its fixed-point datapath has to take
// the software detector's decisions; the rows below Q.10 are the
// ablation's frayed end and stay ungated.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/dataset/builder.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/hwsim/fixed_pipeline.hpp"
#include "src/imgproc/convert.hpp"
#include "src/svm/train_dcd.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/stats.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"

namespace {

using namespace pdet;

/// Bound on a gated row's mean |score err|. The synthetic windows sit far
/// from the SVM margin, so sign agreement alone misses a broken datapath: a
/// vote with its bin pair swapped still agreed on every window while its
/// error rose to 0.093. Working rows read 0.005–0.010 (scaler Q.8: 0.006);
/// 0.02 is twice the worst of them and under a quarter of that fault.
constexpr double kMaxMeanScoreErr = 0.02;

struct Agreement {
  double sign_agree = 0.0;
  double mean_abs_err = 0.0;
};

Agreement measure(const hog::HogParams& params,
                  const hwsim::FixedPointConfig& fp,
                  const svm::LinearModel& model,
                  const dataset::WindowSet& test,
                  const std::vector<float>& sw_scores) {
  const hwsim::FixedHogPipeline pipe(params, fp);
  const hwsim::QuantizedModel qmodel = hwsim::QuantizedModel::quantize(model, fp);
  int agree = 0;
  util::Accumulator abs_err;
  for (std::size_t i = 0; i < test.count(); ++i) {
    const imgproc::ImageU8 u8 = imgproc::to_u8(test.windows[i]);
    const auto blocks = pipe.normalize(pipe.compute_cells(u8));
    const double hw = pipe.classify_window(blocks, qmodel, 0, 0);
    if ((hw > 0) == (sw_scores[i] > 0)) ++agree;
    abs_err.add(std::fabs(hw - static_cast<double>(sw_scores[i])));
  }
  return {static_cast<double>(agree) / static_cast<double>(test.count()),
          abs_err.mean()};
}

/// Scaler-path agreement: classify up-scaled windows through the
/// shift-and-add feature down-scaler (the only consumer of scaler bits).
Agreement measure_scaled(const hog::HogParams& params,
                         const hwsim::FixedPointConfig& fp,
                         const svm::LinearModel& model,
                         const dataset::WindowSet& test_2x,
                         const std::vector<float>& sw_scores) {
  const hwsim::FixedHogPipeline pipe(params, fp);
  const hwsim::QuantizedModel qmodel = hwsim::QuantizedModel::quantize(model, fp);
  int agree = 0;
  util::Accumulator abs_err;
  for (std::size_t i = 0; i < test_2x.count(); ++i) {
    const imgproc::ImageU8 u8 = imgproc::to_u8(test_2x.windows[i]);
    const auto cells = pipe.compute_cells(u8);
    const auto down = pipe.downscale_cells(cells, params.cells_per_window_x(),
                                           params.cells_per_window_y());
    const auto blocks = pipe.normalize(down);
    const double hw = pipe.classify_window(blocks, qmodel, 0, 0);
    if ((hw > 0) == (sw_scores[i] > 0)) ++agree;
    abs_err.add(std::fabs(hw - static_cast<double>(sw_scores[i])));
  }
  return {static_cast<double>(agree) / static_cast<double>(test_2x.count()),
          abs_err.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_quantization", "fixed-point word-length ablation");
  cli.add_int("test-pos", 60, "positive test windows");
  cli.add_int("test-neg", 60, "negative test windows");
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);

  const hog::HogParams params;
  const dataset::WindowSet train = dataset::make_window_set(51, 200, 400);
  const svm::Dataset train_data = dataset::to_svm_dataset(train, params);
  const svm::LinearModel model = svm::train_dcd(train_data, {.C = 0.01});

  const dataset::WindowSet test = dataset::make_window_set(
      52, cli.get_int("test-pos"), cli.get_int("test-neg"));
  std::vector<float> sw_scores;
  sw_scores.reserve(test.count());
  for (const auto& w : test.windows) {
    sw_scores.push_back(model.decision(hog::compute_window_descriptor(w, params)));
  }

  std::printf("ablation: fixed-point accelerator vs double-precision software\n");
  std::printf("(%zu windows; default config: weight Q.14, feature Q.14, "
              "CORDIC 12, scaler Q.8)\n\n",
              test.count());

  // Each row's value and agreement, for the gate below.
  using Rows = std::vector<std::pair<int, Agreement>>;
  auto sweep = [&](const char* title, auto mutate, std::initializer_list<int> values) {
    util::Table table({"value", "sign agreement %", "mean |score err|"});
    Rows rows;
    for (const int v : values) {
      hwsim::FixedPointConfig fp;
      mutate(fp, v);
      const Agreement a = measure(params, fp, model, test, sw_scores);
      table.add_row({util::format("%d", v), util::to_fixed(a.sign_agree * 100, 1),
                     util::format("%.4f", a.mean_abs_err)});
      rows.emplace_back(v, a);
    }
    std::printf("--- %s ---\n%s\n", title, table.to_string().c_str());
    return rows;
  };

  const Agreement default_config = measure(params, {}, model, test, sw_scores);
  const Rows weight_rows =
      sweep("SVM weight bits (Q.n)",
            [](hwsim::FixedPointConfig& fp, int v) { fp.weight_frac_bits = v; },
            {6, 8, 10, 12, 14, 16});
  const Rows feature_rows =
      sweep("normalized-feature bits (Q.n)",
            [](hwsim::FixedPointConfig& fp, int v) { fp.norm_frac_bits = v; },
            {6, 8, 10, 12, 14, 16});
  sweep("CORDIC iterations",
        [](hwsim::FixedPointConfig& fp, int v) { fp.cordic_iterations = v; },
        {4, 6, 8, 10, 12, 16});
  Agreement scaler_default;
  // The scaler only runs on down-scaled levels: ablate it on up-scaled
  // windows pushed through the shift-and-add down-scaler, against the
  // software feature-scaling method's scores. Scale 1.3 (not 2.0) on
  // purpose: dyadic ratios put every bilinear tap at phase 0.5, which even a
  // 2-bit coefficient represents exactly; fractional ratios exercise the
  // full phase range.
  {
    const dataset::WindowSet test_2x = dataset::upsample_window_set(test, 1.3);
    std::vector<float> sw_scaled;
    sw_scaled.reserve(test_2x.count());
    for (const auto& w : test_2x.windows) {
      const hog::CellGrid cells = hog::compute_cell_grid(w, params);
      const hog::CellGrid down = hog::scale_cell_grid(
          cells, params.cells_per_window_x(), params.cells_per_window_y(),
          hog::FeatureInterp::kBilinear);
      const hog::BlockGrid blocks = hog::normalize_cells(down, params);
      sw_scaled.push_back(model.decision(hog::extract_window(blocks, params, 0, 0)));
    }
    util::Table table({"value", "sign agreement %", "mean |score err|"});
    for (const int v : {2, 4, 6, 8, 10}) {
      hwsim::FixedPointConfig fp;
      fp.scale_frac_bits = v;
      const Agreement a = measure_scaled(params, fp, model, test_2x, sw_scaled);
      table.add_row({util::format("%d", v), util::to_fixed(a.sign_agree * 100, 1),
                     util::format("%.4f", a.mean_abs_err)});
      if (v == hwsim::FixedPointConfig{}.scale_frac_bits) scaler_default = a;
    }
    std::printf("--- scaler coefficient bits (Q.n), via 1.3x feature down-scale ---\n%s\n",
                table.to_string().c_str());
  }

  std::printf(
      "reading: the paper's implicit choices (Q.14 weights/features, ~12\n"
      "CORDIC stages, Q.8 scaler taps) sit on the flat part of every curve —\n"
      "fewer bits start costing sign agreement, more buy nothing.\n");

  // The lowest agreement and the largest error over the rows from Q.10 up.
  const auto from_q10 = [](const Rows& rows) {
    Agreement worst{1.0, 0.0};
    for (const auto& [bits, a] : rows) {
      if (bits < 10) continue;
      worst.sign_agree = std::min(worst.sign_agree, a.sign_agree);
      worst.mean_abs_err = std::max(worst.mean_abs_err, a.mean_abs_err);
    }
    return worst;
  };
  const Agreement weight_q10 = from_q10(weight_rows);
  const Agreement feature_q10 = from_q10(feature_rows);
  const auto claim = [](const char* what, double agree) {
    const bool ok = agree == 1.0;
    std::printf("  %-40s: %s (%.1f %%)\n", what, ok ? "ok" : "FAIL",
                agree * 100);
    return ok;
  };
  const auto bound = [](const char* what, double err) {
    const bool ok = err <= kMaxMeanScoreErr;
    std::printf("  %-40s: %s (%.4f <= %.2f)\n", what, ok ? "ok" : "FAIL",
                err, kMaxMeanScoreErr);
    return ok;
  };
  std::printf(
      "\nclaims (exit 1 unless every line reads ok): every window's sign\n"
      "agrees with the software chain, whose floating-point model gives the\n"
      "paper's accuracy figures (Table 1, Figure 4), and the mean |score\n"
      "err| stays within the bound\n");
  bool ok = claim("default config (Q.14, Q.14, CORDIC 12)",
                  default_config.sign_agree);
  ok = claim("SVM weight bits Q.10 to Q.16", weight_q10.sign_agree) && ok;
  ok = claim("normalized-feature bits Q.10 to Q.16", feature_q10.sign_agree) &&
       ok;
  ok = bound("default config |score err|", default_config.mean_abs_err) && ok;
  ok = bound("SVM weight bits Q.10 to Q.16 |score err|",
             weight_q10.mean_abs_err) &&
       ok;
  ok = bound("feature bits Q.10 to Q.16 |score err|",
             feature_q10.mean_abs_err) &&
       ok;
  ok = bound("scaler Q.8 |score err|", scaler_default.mean_abs_err) && ok;
  return ok ? 0 : 1;
}
