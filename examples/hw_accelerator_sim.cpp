// Run the FPGA accelerator model end to end on a frame.
//
//   $ hw_accelerator_sim [--width 640 --height 480] [--vcd trace.vcd]
//
// Shows everything the hardware model provides from one streamed run of the
// cycle-level circuit: fixed-point multi-scale detection (what the RTL
// computes) and its timing (when: frame latency, fps, NHOGMem occupancy);
// then the resource report (paper Table 2), and optionally a VCD trace of
// the circuit's FIFO and ring occupancy over a small frame, viewable in
// GTKWave.
#include <cstdio>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/scene.hpp"
#include "src/hwsim/accelerator.hpp"
#include "src/imgproc/convert.hpp"
#include "src/sim/vcd.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"

int main(int argc, char** argv) {
  using namespace pdet;
  util::Cli cli("hw_accelerator_sim", "cycle-level accelerator demo");
  cli.add_int("width", 640, "frame width");
  cli.add_int("height", 480, "frame height");
  cli.add_double("threshold", -0.1, "detection threshold");
  cli.add_string("vcd", "", "write a GTKWave-viewable trace of a small frame");
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);

  // Train the model the accelerator will run (offline step in the paper).
  core::PedestrianDetector trainer;
  trainer.train(dataset::make_window_set(777, 250, 500));

  hwsim::AcceleratorConfig config;
  config.threshold = static_cast<float>(cli.get_double("threshold"));
  const hwsim::Accelerator accelerator(config, trainer.model());

  // A frame with a near (scale ~2) and a far (scale ~1) pedestrian.
  util::Rng rng(31);
  dataset::SceneOptions sopts;
  sopts.width = cli.get_int("width");
  sopts.height = cli.get_int("height");
  sopts.pedestrian_distances_m = {16.5, 8.5};
  const dataset::Scene scene = dataset::render_scene(rng, sopts);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);

  std::printf("processing %dx%d frame through the accelerator model...\n",
              frame.width(), frame.height());
  const hwsim::FrameResult result = accelerator.process_frame(frame);

  std::printf("\n--- fixed-point detection results ---\n");
  std::printf("%zu raw responses, %zu after NMS:\n", result.raw.size(),
              result.detections.size());
  for (const auto& d : result.detections) {
    std::printf("  box (%4d, %4d) %3dx%3d  score %+.2f  scale %.1f\n", d.x,
                d.y, d.width, d.height, static_cast<double>(d.score), d.scale);
  }
  std::printf("ground truth: ");
  for (const auto& t : scene.truth) {
    std::printf("(%d, %d) %dx%d @%.0fm  ", t.x, t.y, t.width, t.height,
                t.distance_m);
  }
  std::printf("\n");

  std::printf("\n--- cycle-level timing (125 MHz clock) ---\n");
  const auto& timing = result.timing;
  std::printf("total cycles        : %llu\n",
              static_cast<unsigned long long>(timing.total_cycles));
  std::printf("frame time          : %.3f ms  (%.1f fps)\n", timing.frame_ms,
              timing.fps);
  for (const auto& level : timing.levels) {
    std::printf("scale %.1f           : %zu windows, NHOGMem peak %d of %d rows\n",
                level.scale, level.scores.size(), level.nhog_max_occupancy,
                timing.nhog_capacity);
  }
  std::printf("gradient utilization: %.1f%%   classifier: %.1f%%\n",
              100 * timing.utilization_gradient,
              100 * timing.utilization_classifier);

  const auto model = accelerator.timing(1920, 1080);
  std::printf("\nHDTV projection     : classifier %llu cycles (%.2f ms), "
              "%.2f fps sustained\n",
              static_cast<unsigned long long>(model.classifier_frame_cycles()),
              model.classifier_frame_ms(), model.max_fps());

  std::printf("\n--- resource report (paper Table 2 config) ---\n%s",
              accelerator.resources(1920, 1080).to_table().c_str());

  // Optional VCD trace: stream the frame's top-left 128x192 corner with
  // waveform probes on the circuit's occupancy signals (view with GTKWave).
  // Its scale-2 level (8x12 cells) cannot hold a window, so only the native
  // chain is traced.
  const std::string vcd_path = cli.get_string("vcd");
  if (!vcd_path.empty()) {
    const imgproc::ImageU8 corner = frame.crop(0, 0, 128, 192);
    sim::VcdWriter vcd;
    accelerator.stream({&corner, 1}, &vcd);
    if (!vcd.write(vcd_path)) {
      std::fprintf(stderr, "cannot write %s\n", vcd_path.c_str());
      return 1;
    }
    std::printf("\nVCD trace of a 128x192 frame written to %s\n",
                vcd_path.c_str());
  }
  return 0;
}
