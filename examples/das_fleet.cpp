// Sharded fleet serving demo: K in-process detection shards behind a
// consistent-hash ShardRouter, driven by a deterministic traffic journal.
//
//   $ das_fleet [--shards 4] [--streams 8] [--frames 32] [--fps 25]
//               [--speed 10] [--workers 1] [--queue 8]
//   $ das_fleet --save-journal /tmp/soak.pdj      # capture, then replay it
//   $ das_fleet --load-journal /tmp/soak.pdj      # replay a saved capture
//   $ das_fleet --chaos-seed 31337                # seeded mid-replay shard kill
//
// One das_server process serves a handful of cameras; a vehicle platform or
// a test bench replaying fleet traffic wants many. This demo stands up K
// detection shards (net::DetectionService, all serving the same trained
// model), puts a fleet::ShardRouter in front of them, and replays a
// journaled multi-camera workload through the router at --speed× the
// captured rate. Cameras are consistent-hashed onto shards by client name;
// every stream's results come back exactly once, in order, even when
// --chaos-seed kills a shard session mid-replay and the router re-shards
// around the loss and drains streams back after the session redials.
//
// The journal (fleet::Journal) pins the whole workload — base seed, scene
// options, per-frame seeds and arrival times — so two runs are comparable
// measurements of the serving stack. --save-journal / --load-journal move
// captures between runs or machines.
//
// After the replay the demo asks the *router* for fleet-wide stats through
// an ordinary net::Client (the router answers StatsQuery by fanning out to
// every shard and merging), prints the router's own accounting plus the
// per-shard rows, and exits 0 only if the replay was exactly-once and —
// under chaos — every shard session recovered.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/multistream.hpp"
#include "src/fault/injector.hpp"
#include "src/fleet/journal.hpp"
#include "src/fleet/replayer.hpp"
#include "src/fleet/router.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"

namespace {

bool wait_backends_up(const pdet::fleet::ShardRouter& router, int want,
                      double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (router.backends_up() < want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdet;
  util::Cli cli("das_fleet",
                "replay journaled camera traffic through a sharded fleet");
  cli.add_int("shards", 4, "detection shards behind the router");
  cli.add_int("streams", 8, "camera streams in the journal");
  cli.add_int("frames", 32, "frames per stream in the journal");
  cli.add_double("fps", 25.0, "per-camera capture rate recorded in the journal");
  cli.add_double("speed", 10.0, "replay timeline scale (1 = as captured)");
  cli.add_int("workers", 1, "detection workers per shard");
  cli.add_int("queue", 8, "frame queue capacity per shard");
  cli.add_int("vnodes", 64, "ring points per shard (placement smoothness)");
  cli.add_int("seed", 2026, "journal base seed (pins every frame's pixels)");
  cli.add_string("save-journal", "", "write the captured journal here");
  cli.add_string("load-journal", "",
                 "replay this journal instead of capturing one");
  cli.add_int("chaos-seed", 0,
              "arm a seeded mid-replay shard-session kill "
              "(fleet.backend.drop; 0 = off)");
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);

  const int shards = cli.get_int("shards");
  const int streams = cli.get_int("streams");
  const int frames = cli.get_int("frames");
  if (shards < 1 || streams < 1 || frames < 1) {
    std::fprintf(stderr, "--shards/--streams/--frames must be >= 1\n");
    return 1;
  }

  // The journal: load a saved capture, or synthesize one. Small frames keep
  // the demo snappy; the scene renderer needs at least 64x128.
  fleet::Journal journal;
  if (!cli.get_string("load-journal").empty()) {
    std::string error;
    if (!fleet::load_journal(cli.get_string("load-journal"), journal, &error)) {
      std::fprintf(stderr, "cannot load journal: %s\n", error.c_str());
      return 1;
    }
    std::printf("loaded journal: %d streams, %zu records, %.2f s of traffic\n",
                journal.stream_count(), journal.records.size(),
                journal.duration_seconds());
  } else {
    dataset::MultiStreamOptions mopts;
    mopts.scene.width = 160;
    mopts.scene.height = 128;
    mopts.scene.camera.focal_px = 300.0;
    mopts.min_pedestrians = 0;
    mopts.max_pedestrians = 2;
    journal = fleet::capture_journal(
        static_cast<std::uint64_t>(cli.get_int("seed")), mopts, streams,
        frames, cli.get_double("fps"));
    std::printf("captured journal: %d streams x %d frames @ %.0f fps "
                "(%.2f s of traffic)\n",
                streams, frames, cli.get_double("fps"),
                journal.duration_seconds());
  }
  if (!cli.get_string("save-journal").empty()) {
    std::string error;
    if (!fleet::save_journal(journal, cli.get_string("save-journal"),
                             &error)) {
      std::fprintf(stderr, "cannot save journal: %s\n", error.c_str());
      return 1;
    }
    std::printf("journal saved to %s\n",
                cli.get_string("save-journal").c_str());
  }

  // Train once; every shard serves the same model (a fleet answers for one
  // fingerprint, which is what lets the router advertise any shard's ack).
  std::printf("training detector...\n");
  core::PedestrianDetector detector;
  detector.train(dataset::make_window_set(616, 250, 500));

  net::ServiceOptions sopts;
  sopts.port = 0;  // ephemeral: the router learns each port below
  sopts.runtime.workers = cli.get_int("workers");
  sopts.runtime.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  sopts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  sopts.runtime.hog = detector.config().hog;
  sopts.runtime.multiscale = detector.config().multiscale;
  sopts.runtime.multiscale.scales = {1.0, 1.26, 1.59};

  std::printf("starting %d shards + router...\n", shards);
  std::vector<std::unique_ptr<net::DetectionService>> fleet;
  fleet::RouterOptions ropts;
  ropts.vnodes = cli.get_int("vnodes");
  ropts.max_clients = streams + 1;  // cameras + the stats probe below
  for (int i = 0; i < shards; ++i) {
    fleet.push_back(
        std::make_unique<net::DetectionService>(detector.model(), sopts));
    std::string error;
    if (!fleet.back()->start(&error)) {
      std::fprintf(stderr, "shard %d failed to start: %s\n", i, error.c_str());
      return 1;
    }
    ropts.backends.push_back(
        fleet::BackendEndpoint{"127.0.0.1", fleet.back()->port()});
  }
  fleet::ShardRouter router(ropts);
  std::string error;
  if (!router.start(&error)) {
    std::fprintf(stderr, "router failed to start: %s\n", error.c_str());
    return 1;
  }
  if (!wait_backends_up(router, shards, 10.0)) {
    std::fprintf(stderr, "shards never came up\n");
    return 1;
  }

  // Chaos: a seeded one-shot shard-session kill partway into the replay.
  // skip lets the handshakes and the first few frames through so the kill
  // lands mid-traffic; the router must re-shard, redial and drain streams
  // back without a duplicate or a reorder.
  const int chaos_seed = cli.get_int("chaos-seed");
  if (chaos_seed != 0) {
    fault::Plan plan;
    plan.seed = static_cast<std::uint64_t>(chaos_seed);
    plan.with("fleet.backend.drop", 1.0, /*param=*/0,
              /*skip=*/static_cast<long long>(journal.records.size() / 4),
              /*max_fires=*/1);
    fault::Injector::instance().arm(plan);
    std::printf("chaos: armed seeded shard kill, seed %d\n", chaos_seed);
  }

  std::printf("replaying at %.0fx through 127.0.0.1:%u...\n",
              cli.get_double("speed"), static_cast<unsigned>(router.port()));
  fleet::ReplayOptions replay;
  replay.port = router.port();
  replay.speed = cli.get_double("speed");
  const fleet::ReplayReport report = fleet::replay_journal(journal, replay);

  bool recovered = true;
  if (chaos_seed != 0) {
    fault::Injector::instance().disarm();
    recovered = wait_backends_up(router, shards, 10.0);
  }

  // Fleet-wide stats through the front door: an ordinary client asks the
  // router, the router fans out to every shard and merges the reports.
  net::ClientOptions copts;
  copts.port = router.port();
  copts.name = "fleet-probe";
  net::Client probe(copts);
  net::wire::StatsReport fleet_stats;
  const bool have_fleet_stats =
      probe.connect() && probe.query_stats(fleet_stats, 2000.0);

  std::printf("\nper-stream delivery:\n");
  util::Table streams_table(
      {"stream", "submitted", "received", "shed", "in-order"});
  for (const fleet::StreamReplay& s : report.streams) {
    streams_table.add_row({"cam" + std::to_string(s.stream),
                           std::to_string(s.submitted),
                           std::to_string(s.received),
                           std::to_string(s.missed),
                           s.in_order ? "yes" : "NO"});
  }
  std::fputs(streams_table.to_string().c_str(), stdout);

  const fleet::RouterStats rs = router.stats();
  std::printf("\nrouter:\n");
  util::Table rt({"metric", "value"});
  rt.add_row({"replay wall s / exactly-once",
              util::to_fixed(report.wall_seconds, 2) + " / " +
                  (report.exactly_once ? "yes" : "NO")});
  rt.add_row({"frames received / forwarded",
              std::to_string(rs.frames_received) + " / " +
                  std::to_string(rs.frames_forwarded)});
  rt.add_row({"shed no-backend / draining / backpressure",
              std::to_string(rs.frames_shed_no_backend) + " / " +
                  std::to_string(rs.frames_shed_draining) + " / " +
                  std::to_string(rs.frames_shed_backpressure)});
  rt.add_row({"results delivered / shed / duplicates suppressed",
              std::to_string(rs.results_sent) + " / " +
                  std::to_string(rs.results_shed_backend +
                                 rs.results_shed_client) + " / " +
                  std::to_string(rs.duplicates_suppressed)});
  rt.add_row({"sessions lost / reshards / stream moves",
              std::to_string(rs.backend_sessions_lost) + " / " +
                  std::to_string(rs.reshards) + " / " +
                  std::to_string(rs.stream_moves)});
  rt.add_row({"backends up", std::to_string(rs.backends_up) + " / " +
                                 std::to_string(shards)});
  std::fputs(rt.to_string().c_str(), stdout);
  if (have_fleet_stats) {
    std::printf("\nfleet stats (the router's merge of every shard):\n");
    util::Table merged({"metric", "value"});
    runtime::add_stats_rows(merged, fleet_stats.runtime);
    std::fputs(merged.to_string().c_str(), stdout);
  }

  std::printf("\nper-shard:\n");
  util::Table st({"shard", "up", "forwarded", "returned", "shed", "redials"});
  for (std::size_t i = 0; i < rs.shards.size(); ++i) {
    const fleet::ShardStats& s = rs.shards[i];
    st.add_row({std::to_string(i) + " (" + s.endpoint + ")",
                s.up ? "yes" : "NO", std::to_string(s.frames_forwarded),
                std::to_string(s.results_returned),
                std::to_string(s.shed_inflight),
                std::to_string(s.reconnects)});
  }
  std::fputs(st.to_string().c_str(), stdout);

  router.stop();
  for (auto& s : fleet) s->stop();

  if (!report.exactly_once) {
    std::fprintf(stderr, "FAIL: replay was not exactly-once in-order\n");
    return 1;
  }
  if (!recovered) {
    std::fprintf(stderr, "FAIL: a shard session never recovered\n");
    return 1;
  }
  return 0;
}
