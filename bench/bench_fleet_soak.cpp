// Fleet soak: journal replay against a sharded ShardRouter fleet.
//
// The fleet tier's claim is horizontal: if one detection service saturates
// at N cameras, four shards behind a consistent-hash router should serve
// ~4× the aggregate rate with the same per-stream contract (exactly-once,
// in-order), and keep serving through a shard loss. This bench measures all
// of it with the deterministic record/replay load generator (fleet::Journal
// + fleet::Replayer) so every number is a measurement of the serving stack,
// not of load-generator jitter:
//
//   1. Soak table — one journal replayed open-loop at 1×/10×/100× through a
//      4-shard fleet: aggregate fps, shed counts, exactly-once audit.
//   2. Speedup gate — paired replays of the same 8-stream journal against a
//      single 1-worker service and a 4-shard (1 worker each) fleet;
//      acceptance: median fleet/single fps ratio >= 3× (counted on hosts
//      with >= 4 cores; advisory on smaller machines, where the four shard
//      workers time-slice one core and a parallel speedup cannot exist).
//   3. Seeded kill — a fault-injected shard-session loss (fleet.backend.drop)
//      mid-replay: the router must re-shard, redial, drain streams home, and
//      the audit must stay exactly-once with zero duplicates; reports
//      time-to-rebalance (backends_up dip -> recovery).
//   4. Zero-allocation forwarding — the router's steady-state data plane
//      (SubmitFrame in -> tag patch -> CRC re-sign -> forward -> Result
//      match -> deliver) runs under a global operator-new counter against an
//      allocation-free echo backend and raw-byte probe client; after warmup,
//      the counted window must allocate nothing.
//   5. Replay determinism — one journal, two fresh identically-seeded
//      fleets: per-stream result logs must be byte-identical.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/multistream.hpp"
#include "src/fault/injector.hpp"
#include "src/fleet/journal.hpp"
#include "src/fleet/replayer.hpp"
#include "src/fleet/router.hpp"
#include "src/net/service.hpp"
#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/obs/report.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"

// Ground-truth heap accounting (same pattern as bench_runtime_throughput):
// the zero-allocation section measures what the router actually allocates.
namespace {
std::atomic<long long> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pdet;
using Clock = std::chrono::steady_clock;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// K shards (same model — a fleet serves one fingerprint) plus the router.
struct Fleet {
  std::vector<std::unique_ptr<net::DetectionService>> shards;
  std::unique_ptr<fleet::ShardRouter> router;

  ~Fleet() { stop(); }
  void stop() {
    if (router) router->stop();
    for (auto& s : shards) s->stop();
  }
};

net::ServiceOptions shard_options(const core::PedestrianDetector& detector,
                                  int max_clients) {
  net::ServiceOptions opts;
  opts.port = 0;
  opts.max_clients = max_clients;
  opts.runtime.workers = 1;
  opts.runtime.queue_capacity = 8;
  opts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  // Results must be a pure function of the frame for the determinism gate:
  // block instead of shedding, never degrade under load.
  opts.runtime.scheduler.max_level = 0;
  opts.runtime.hog = detector.config().hog;
  opts.runtime.multiscale = detector.config().multiscale;
  opts.runtime.multiscale.scales = {1.0, 1.26, 1.59};
  return opts;
}

bool start_fleet(Fleet& fleet, const core::PedestrianDetector& detector,
                 int shards, int max_clients) {
  const net::ServiceOptions sopts = shard_options(detector, max_clients);
  fleet::RouterOptions ropts;
  ropts.max_clients = max_clients;
  for (int i = 0; i < shards; ++i) {
    fleet.shards.push_back(
        std::make_unique<net::DetectionService>(detector.model(), sopts));
    std::string error;
    if (!fleet.shards.back()->start(&error)) {
      std::fprintf(stderr, "shard %d start failed: %s\n", i, error.c_str());
      return false;
    }
    ropts.backends.push_back(
        fleet::BackendEndpoint{"127.0.0.1", fleet.shards.back()->port()});
  }
  fleet.router = std::make_unique<fleet::ShardRouter>(ropts);
  std::string error;
  if (!fleet.router->start(&error)) {
    std::fprintf(stderr, "router start failed: %s\n", error.c_str());
    return false;
  }
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (fleet.router->backends_up() < shards && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (fleet.router->backends_up() != shards) {
    std::fprintf(stderr, "fleet never came up\n");
    return false;
  }
  return true;
}

struct SoakRun {
  double fps = 0.0;
  long long submitted = 0;
  long long received = 0;
  long long missed = 0;
  double wall_s = 0.0;
  bool exactly_once = false;
};

SoakRun replay_at(std::uint16_t port, const fleet::Journal& journal,
                  double speed, double drain_ms = 30000.0) {
  fleet::ReplayOptions opts;
  opts.port = port;
  opts.speed = speed;
  opts.drain_ms = drain_ms;
  const fleet::ReplayReport report = fleet::replay_journal(journal, opts);
  SoakRun run;
  run.submitted = report.total_submitted;
  run.received = report.total_received;
  run.missed = report.total_missed;
  run.wall_s = report.wall_seconds;
  run.fps = report.wall_seconds > 0.0
                ? static_cast<double>(report.total_received) /
                      report.wall_seconds
                : 0.0;
  run.exactly_once = report.exactly_once;
  return run;
}

// --- raw wire helpers for the zero-allocation section -----------------------

bool send_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t sent = 0;
    const net::IoStatus st = net::send_some(fd, data.subspan(off), sent);
    if (st == net::IoStatus::kOk) {
      off += sent;
    } else if (st == net::IoStatus::kWouldBlock) {
      if (!net::wait_writable(fd, 1000.0)) return false;
    } else {
      return false;
    }
  }
  return true;
}

/// Accumulate bytes until `rx` holds one complete, checked wire frame at
/// offset 0; returns its size (0 on connection loss, timeout or a bad
/// frame). Allocation-free: `rx` is a caller-owned fixed buffer, compacted
/// in place.
std::size_t read_frame(int fd, std::vector<std::uint8_t>& rx,
                       std::size_t& rx_size) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    net::wire::MsgType type{};
    std::size_t frame_size = 0;
    const net::wire::DecodeStatus status = net::wire::peek_frame(
        std::span<const std::uint8_t>(rx).first(rx_size), type, frame_size);
    if (status == net::wire::DecodeStatus::kOk) return frame_size;
    if (status != net::wire::DecodeStatus::kNeedMore) return 0;
    if (Clock::now() >= deadline) return 0;
    if (!net::wait_readable(fd, 100.0)) continue;
    std::size_t got = 0;
    const net::IoStatus st = net::recv_some(
        fd, std::span<std::uint8_t>(rx.data() + rx_size, rx.size() - rx_size),
        got);
    if (st == net::IoStatus::kOk) {
      rx_size += got;
    } else if (st != net::IoStatus::kWouldBlock) {
      return 0;
    }
  }
}

void consume_frame(std::vector<std::uint8_t>& rx, std::size_t& rx_size,
                   std::size_t frame_size) {
  std::memmove(rx.data(), rx.data() + frame_size, rx_size - frame_size);
  rx_size -= frame_size;
}

/// Minimal allocation-free detection shard: answers the router's Hello and
/// echoes every SubmitFrame as an empty Result with the tag copied back.
/// Everything it touches in steady state is preallocated, so the global
/// operator-new counter sees only the router.
void run_echo_backend(net::Socket listener, std::atomic<bool>& stop) {
  net::Socket session;
  while (!stop.load(std::memory_order_acquire)) {
    session = listener.accept();
    if (session.valid()) break;
    net::wait_readable(listener.fd(), 50.0);
  }
  if (!session.valid()) return;
  session.set_nodelay(true);

  std::vector<std::uint8_t> ack_bytes;
  {
    net::wire::HelloAck ack;
    ack.model_dim = 1;
    ack.model_crc = 0x5eed;
    ack.server_name = "echo-shard";
    net::wire::encode_hello_ack(ack, ack_bytes);
  }
  std::vector<std::uint8_t> result_bytes;
  net::wire::encode_result(net::wire::Result{}, result_bytes);
  std::vector<std::uint8_t> rx(1u << 20);
  std::size_t rx_size = 0;
  std::uint64_t sequence = 1;

  while (!stop.load(std::memory_order_acquire)) {
    net::wait_readable(session.fd(), 50.0);
    std::size_t got = 0;
    const net::IoStatus st = net::recv_some(
        session.fd(),
        std::span<std::uint8_t>(rx.data() + rx_size, rx.size() - rx_size),
        got);
    if (st == net::IoStatus::kOk) {
      rx_size += got;
    } else if (st != net::IoStatus::kWouldBlock) {
      return;
    }
    for (;;) {
      net::wire::MsgType type{};
      std::size_t frame_size = 0;
      const net::wire::DecodeStatus status = net::wire::peek_frame(
          std::span<const std::uint8_t>(rx).first(rx_size), type, frame_size);
      if (status == net::wire::DecodeStatus::kNeedMore) break;
      if (status != net::wire::DecodeStatus::kOk) return;
      if (type == net::wire::MsgType::kHello) {
        if (!send_all(session.fd(), ack_bytes)) return;
      } else if (type == net::wire::MsgType::kSubmitFrame) {
        net::wire::patch_result_ids(
            result_bytes, sequence++,
            net::wire::submit_tag(
                std::span<const std::uint8_t>(rx).first(frame_size)));
        if (!send_all(session.fd(), result_bytes)) return;
      }
      consume_frame(rx, rx_size, frame_size);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_fleet_soak",
                "journal replay soak against a sharded fleet");
  cli.add_int("streams", 8, "camera streams in the journal");
  cli.add_int("frames", 12, "frames per stream (soak + speedup sections)");
  cli.add_int("kill-frames", 24, "frames per stream in the seeded-kill run");
  cli.add_int("reps", 3, "paired speedup measurements (median of ratios)");
  cli.add_int("chaos-seed", 31337, "seed for the shard-kill fault plan");
  obs::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);
  obs::configure_from_cli(cli);
  obs::set_metrics_enabled(true);

  const int streams = cli.get_int("streams");
  const int frames = cli.get_int("frames");
  bool accept = true;

  std::printf("training detector...\n");
  core::PedestrianDetector detector;
  detector.train(dataset::make_window_set(616, 250, 500));

  // One journal pins the whole workload; the scene renderer's floor is
  // 64x128, and small frames keep the soak about the serving stack.
  dataset::MultiStreamOptions mopts;
  mopts.scene.width = 160;
  mopts.scene.height = 128;
  mopts.scene.camera.focal_px = 300.0;
  mopts.min_pedestrians = 0;
  mopts.max_pedestrians = 2;
  const fleet::Journal journal =
      fleet::capture_journal(2026, mopts, streams, frames, 25.0);

  // --- 1. soak table: one fleet, three timeline speeds ------------------
  std::printf("\nreplay soak: %d streams x %d frames through 4 shards\n",
              streams, frames);
  {
    Fleet fleet;
    if (!start_fleet(fleet, detector, 4, streams + 1)) return 1;
    util::Table table(
        {"speed", "fps", "received/submitted", "shed", "wall s", "exactly once"});
    for (const double speed : {1.0, 10.0, 100.0}) {
      const SoakRun run = replay_at(fleet.router->port(), journal, speed);
      table.add_row({util::to_fixed(speed, 0) + "x",
                     util::to_fixed(run.fps, 1),
                     std::to_string(run.received) + "/" +
                         std::to_string(run.submitted),
                     std::to_string(run.missed),
                     util::to_fixed(run.wall_s, 2),
                     run.exactly_once ? "yes" : "NO"});
      accept = accept && run.exactly_once && run.received > 0;
      obs::gauge_set("fleet.bench.soak.speed_" +
                         std::to_string(static_cast<int>(speed)) + ".fps",
                     run.fps);
    }
    std::fputs(table.to_string().c_str(), stdout);
  }

  // --- 2. speedup gate: 4 shards vs one service, paired replays ---------
  // Both sides replay flat-out (100x of a 25 fps capture saturates either
  // target), workers = 1 per shard, so the ratio isolates the horizontal
  // scale-out. Paired runs + median of ratios absorb machine noise.
  const int reps = cli.get_int("reps");
  std::printf("\nspeedup: 4-shard fleet vs single service, %d paired runs\n",
              reps);
  double speedup = 0.0;
  bool speedup_streams_ok = true;
  {
    net::ServiceOptions single_opts = shard_options(detector, streams + 1);
    net::DetectionService single(detector.model(), single_opts);
    std::string error;
    if (!single.start(&error)) {
      std::fprintf(stderr, "single service start failed: %s\n", error.c_str());
      return 1;
    }
    Fleet fleet;
    if (!start_fleet(fleet, detector, 4, streams + 1)) return 1;
    std::vector<double> ratios;
    util::Table table({"rep", "single fps", "fleet fps", "ratio"});
    for (int r = 0; r < reps; ++r) {
      const SoakRun base = replay_at(single.port(), journal, 100.0);
      const SoakRun sharded = replay_at(fleet.router->port(), journal, 100.0);
      const double ratio = base.fps > 0.0 ? sharded.fps / base.fps : 0.0;
      ratios.push_back(ratio);
      table.add_row({std::to_string(r), util::to_fixed(base.fps, 1),
                     util::to_fixed(sharded.fps, 1),
                     util::to_fixed(ratio, 2)});
      speedup_streams_ok = speedup_streams_ok && base.exactly_once &&
                           sharded.exactly_once;
    }
    std::fputs(table.to_string().c_str(), stdout);
    speedup = median(ratios);
    single.stop();
  }
  const unsigned cores = std::thread::hardware_concurrency();
  const bool gate_speedup = cores >= 4;
  const bool speedup_ok = speedup >= 3.0;
  std::printf("median speedup %.2fx (acceptance: >= 3x with exactly-once "
              "streams)%s: %s\n",
              speedup,
              gate_speedup ? ""
                           : " [advisory: < 4 cores, shards time-slice]",
              speedup_ok && speedup_streams_ok ? "PASS"
              : gate_speedup                   ? "FAIL"
                                               : "advisory-fail");
  obs::gauge_set("fleet.bench.speedup_4shard", speedup);
  accept = accept && speedup_streams_ok && (speedup_ok || !gate_speedup);

  // --- 3. seeded shard kill mid-replay ----------------------------------
  std::printf("\nseeded kill: fleet.backend.drop mid-replay, 4 shards\n");
  {
    const fleet::Journal kill_journal = fleet::capture_journal(
        99, mopts, streams, cli.get_int("kill-frames"), 25.0);
    Fleet fleet;
    if (!start_fleet(fleet, detector, 4, streams + 1)) return 1;

    fault::Plan plan;
    plan.seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed"));
    // skip lets the 4 session handshakes and the first traffic through so
    // the kill lands mid-replay; one fire keeps the measurement crisp.
    plan.with("fleet.backend.drop", 1.0, /*param=*/0,
              /*skip=*/static_cast<long long>(kill_journal.records.size() / 3),
              /*max_fires=*/1);
    fault::Injector::instance().arm(plan);

    // Sample backends_up around the replay: the dip and the recovery bound
    // the router's redial + re-shard + drain-home cycle.
    std::atomic<bool> watching{true};
    std::atomic<double> down_at_s{-1.0};
    std::atomic<double> up_at_s{-1.0};
    const auto watch_t0 = Clock::now();
    std::thread watcher([&] {
      bool was_down = false;
      while (watching.load(std::memory_order_acquire)) {
        const int up = fleet.router->backends_up();
        const double t =
            std::chrono::duration<double>(Clock::now() - watch_t0).count();
        if (up < 4 && !was_down) {
          was_down = true;
          down_at_s.store(t);
        } else if (up == 4 && was_down && up_at_s.load() < 0.0) {
          up_at_s.store(t);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    // Tail sheds (a frame shed with nothing after it on its stream) are
    // invisible to client-side gap detection, so the drain is bounded
    // instead of waiting for a count that may never close.
    const SoakRun run =
        replay_at(fleet.router->port(), kill_journal, 10.0, 5000.0);
    const long long fires = fault::Injector::instance().fires(
        "fleet.backend.drop");
    fault::Injector::instance().disarm();
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (fleet.router->backends_up() < 4 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    watching.store(false, std::memory_order_release);
    watcher.join();

    const fleet::RouterStats rs = fleet.router->stats();
    const bool recovered = fleet.router->backends_up() == 4;
    const double rebalance_s =
        (down_at_s.load() >= 0.0 && up_at_s.load() >= 0.0)
            ? up_at_s.load() - down_at_s.load()
            : -1.0;
    std::printf("  kill fired %lld time(s); sessions lost %lld, reshards "
                "%lld, stream moves %lld\n",
                fires, rs.backend_sessions_lost, rs.reshards,
                rs.stream_moves);
    std::printf("  delivered %lld/%lld (shed %lld), duplicates suppressed "
                "%lld, time-to-rebalance %s\n",
                run.received, run.submitted, run.missed,
                rs.duplicates_suppressed,
                rebalance_s >= 0.0
                    ? (util::to_fixed(1000.0 * rebalance_s, 0) + " ms").c_str()
                    : "n/a");
    const bool kill_ok = fires == 1 && run.exactly_once && recovered &&
                         rs.backend_sessions_lost >= 1 &&
                         rs.duplicates_suppressed == 0 &&
                         run.received + run.missed <= run.submitted;
    std::printf("  exactly-once through the kill + full recovery: %s\n",
                kill_ok ? "PASS" : "FAIL");
    obs::gauge_set("fleet.bench.kill.rebalance_s",
                   rebalance_s >= 0.0 ? rebalance_s : 0.0);
    obs::gauge_set("fleet.bench.kill.shed",
                   static_cast<double>(run.missed));
    accept = accept && kill_ok;
  }

  // --- 4. zero-allocation steady-state forwarding -----------------------
  // Echo backend + raw-byte probe client are allocation-free by
  // construction, so the counted window measures the router alone: receive,
  // validate, tag-patch, re-sign, forward, match, deliver — 0 allocations.
  std::printf("\nzero-allocation forwarding: counted operator new calls\n");
  {
    std::string error;
    net::Socket listener = net::Socket::listen_tcp("127.0.0.1", 0, 4, &error);
    if (!listener.valid()) {
      std::fprintf(stderr, "echo listen failed: %s\n", error.c_str());
      return 1;
    }
    const std::uint16_t echo_port = listener.local_port();
    std::atomic<bool> stop_echo{false};
    std::thread echo(run_echo_backend, std::move(listener),
                     std::ref(stop_echo));

    fleet::RouterOptions ropts;
    ropts.backends.push_back(fleet::BackendEndpoint{"127.0.0.1", echo_port});
    ropts.max_clients = 2;
    fleet::ShardRouter router(ropts);
    if (!router.start(&error)) {
      std::fprintf(stderr, "router start failed: %s\n", error.c_str());
      return 1;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (router.backends_up() < 1 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    net::Socket probe =
        net::Socket::connect_tcp("127.0.0.1", router.port(), 1000.0, &error);
    bool alloc_ok = false;
    long long counted = -1;
    if (probe.valid() && router.backends_up() == 1) {
      probe.set_nodelay(true);
      std::vector<std::uint8_t> hello;
      net::wire::Hello h;
      h.client_name = "alloc-probe";
      net::wire::encode_hello(h, hello);
      std::vector<std::uint8_t> rx(1u << 16);
      std::size_t rx_size = 0;
      std::size_t frame_size = 0;
      if (send_all(probe.fd(), hello) &&
          (frame_size = read_frame(probe.fd(), rx, rx_size)) > 0) {
        consume_frame(rx, rx_size, frame_size);
        imgproc::ImageF img(64, 48);
        util::Rng rng(7);
        for (int y = 0; y < img.height(); ++y) {
          for (int x = 0; x < img.width(); ++x) {
            img.at(x, y) = static_cast<float>(rng.uniform());
          }
        }
        std::vector<std::uint8_t> frame;
        net::wire::encode_submit_frame(net::wire::SubmitFrame{0, img}, frame);

        // Serial ping-pong keeps exactly one frame in flight: past warmup
        // every buffer, FIFO slot and link buffer has reached steady state.
        constexpr int kWarmup = 200;
        constexpr int kCounted = 500;
        bool io_ok = true;
        for (int i = 0; i < kWarmup + kCounted && io_ok; ++i) {
          if (i == kWarmup) {
            g_heap_allocs.store(0, std::memory_order_relaxed);
          }
          net::wire::patch_submit_tag(frame, static_cast<std::uint64_t>(i));
          io_ok = send_all(probe.fd(), frame) &&
                  (frame_size = read_frame(probe.fd(), rx, rx_size)) > 0;
          if (io_ok) consume_frame(rx, rx_size, frame_size);
        }
        if (io_ok) {
          counted = g_heap_allocs.load(std::memory_order_relaxed);
          alloc_ok = counted == 0;
        }
        std::printf("  %d counted round-trips through the router: %lld "
                    "allocations\n",
                    kCounted, counted);
      }
    }
    probe.close();
    router.stop();
    stop_echo.store(true, std::memory_order_release);
    echo.join();
    std::printf("  steady-state forwarding allocation-free: %s\n",
                alloc_ok ? "PASS" : "FAIL");
    obs::gauge_set("fleet.bench.steady_allocs",
                   counted >= 0 ? static_cast<double>(counted) : -1.0);
    accept = accept && alloc_ok;
  }

  // --- 5. replay determinism --------------------------------------------
  std::printf("\nreplay determinism: one journal, two fresh fleets\n");
  {
    const fleet::Journal small = fleet::capture_journal(7, mopts, 4, 6, 25.0);
    fleet::ReplayOptions opts;
    opts.speed = 10.0;
    opts.drain_ms = 30000.0;
    opts.collect_results = true;
    std::vector<std::vector<std::uint8_t>> logs[2];
    bool once[2] = {false, false};
    for (int run = 0; run < 2; ++run) {
      Fleet fleet;
      if (!start_fleet(fleet, detector, 2, 5)) return 1;
      opts.port = fleet.router->port();
      const fleet::ReplayReport report = fleet::replay_journal(small, opts);
      once[run] = report.exactly_once;
      for (const fleet::StreamReplay& s : report.streams) {
        logs[run].push_back(s.result_log);
      }
    }
    const bool deterministic = once[0] && once[1] && logs[0] == logs[1];
    std::printf("  per-stream result logs byte-identical: %s\n",
                deterministic ? "PASS" : "FAIL");
    obs::gauge_set("fleet.bench.replay_deterministic",
                   deterministic ? 1.0 : 0.0);
    accept = accept && deterministic;
  }

  if (!obs::report_from_cli(cli)) return 1;
  std::printf("\noverall: %s\n", accept ? "PASS" : "FAIL");
  return accept ? 0 : 1;
}
