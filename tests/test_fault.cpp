// Chaos harness for pdet::fault and the self-healing serving stack
// (DESIGN §9): injector determinism, socket-level fault injection through
// the production errno mapping, worker exception containment / poison
// frames / watchdog replacement / health transitions on the runtime server,
// and a full TCP client↔service run under a seeded fault schedule with
// exactly-once accounting asserted on both sides of the wire.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/injector.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"
#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/runtime/server.hpp"
#include "src/svm/model_io.hpp"
#include "src/util/rng.hpp"

namespace pdet {
namespace {

// --- fixtures (the runtime/net test conventions) -----------------------------

imgproc::ImageF make_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      img.at(x, y) = static_cast<float>(rng.uniform());
    }
  }
  return img;
}

svm::LinearModel make_model(const hog::HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (float& w : model.weights) {
    w = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  model.bias = -0.25f;
  return model;
}

/// Minimal-work server config: one scale, small frames, ladder pinned at
/// full quality so fault tests assert fault accounting, not shedding.
runtime::ServerOptions fault_server_options() {
  runtime::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 8;
  opts.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.scheduler.max_level = 0;
  opts.multiscale.scales = {1.0};
  return opts;
}

struct Recorded {
  std::vector<std::uint64_t> sequences;
  std::vector<runtime::FrameStatus> statuses;
};

runtime::ResultCallback record_into(Recorded& rec) {
  return [&rec](const runtime::StreamResult& r) {
    rec.sequences.push_back(r.sequence);
    rec.statuses.push_back(r.status);
  };
}

/// Blocking-ish send loop over the nonblocking socket helpers — the same
/// resume-from-offset loop every production writer runs, so injected short
/// writes and EINTRs must be absorbed here.
bool send_all_raw(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t at = 0;
  while (at < buf.size()) {
    if (!net::wait_writable(fd, 5000.0)) return false;
    std::size_t n = 0;
    const net::IoStatus status = net::send_some(
        fd, std::span<const std::uint8_t>(buf).subspan(at), n);
    if (status == net::IoStatus::kClosed ||
        status == net::IoStatus::kError) {
      return false;
    }
    if (status == net::IoStatus::kOk) at += n;
  }
  return true;
}

/// Read one wire message from fd, keeping unconsumed bytes in `in`.
bool read_one_message(int fd, std::vector<std::uint8_t>& in,
                      net::wire::Message& msg, double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  for (;;) {
    std::size_t consumed = 0;
    const net::wire::DecodeStatus status =
        net::wire::decode_message(in, msg, consumed);
    if (status == net::wire::DecodeStatus::kOk) {
      in.erase(in.begin(),
               in.begin() + static_cast<std::ptrdiff_t>(consumed));
      return true;
    }
    if (status != net::wire::DecodeStatus::kNeedMore) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (!net::wait_readable(fd, 100.0)) continue;
    std::uint8_t chunk[64 * 1024];
    std::size_t got = 0;
    switch (net::recv_some(fd, chunk, got)) {
      case net::IoStatus::kOk:
        in.insert(in.end(), chunk, chunk + got);
        break;
      case net::IoStatus::kWouldBlock:
        break;
      case net::IoStatus::kClosed:
      case net::IoStatus::kError:
        return false;
    }
  }
}

/// A connected nonblocking AF_UNIX socket pair for IO-level injection tests
/// (the injector sits above the address family, so loopback TCP adds
/// nothing but latency here).
struct SocketPair {
  net::Socket a;
  net::Socket b;
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      a = net::Socket(fds[0]);
      b = net::Socket(fds[1]);
      (void)a.set_nonblocking(true);
      (void)b.set_nonblocking(true);
    }
  }
  bool valid() const { return a.valid() && b.valid(); }
};

// --- injector ----------------------------------------------------------------

TEST(Injector, DisarmedCheckNeverFiresAndCostsNoState) {
  fault::Injector::instance().disarm();
  EXPECT_FALSE(fault::armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::check("runtime.engine.fault").fire);
  }
}

TEST(Injector, SameSeedSamePointSameSchedule) {
  fault::Plan plan;
  plan.seed = 42;
  plan.with("test.point", 0.5);
  const auto draw_schedule = [&](const fault::Plan& p) {
    fault::ScopedPlan armed(p);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(fault::check("test.point").fire);
    }
    return fires;
  };
  const std::vector<bool> first = draw_schedule(plan);
  const std::vector<bool> second = draw_schedule(plan);
  EXPECT_EQ(first, second);  // pure function of (seed, point, check index)

  fault::Plan other = plan;
  other.seed = 43;
  EXPECT_NE(draw_schedule(other), first);

  // ~half of 200 draws at p=0.5; a degenerate stream would break this.
  const long long hits =
      static_cast<long long>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(hits, 50);
  EXPECT_LT(hits, 150);
}

TEST(Injector, SkipThenMaxFiresWindow) {
  fault::Plan plan;
  plan.with("test.window", 1.0, /*param=*/7, /*skip=*/3, /*max_fires=*/2);
  fault::ScopedPlan armed(plan);
  for (int i = 0; i < 10; ++i) {
    const fault::Decision d = fault::check("test.window");
    const bool expect_fire = i >= 3 && i < 5;
    EXPECT_EQ(d.fire, expect_fire) << "check " << i;
    if (d.fire) {
      EXPECT_EQ(d.param, 7u);
    }
  }
  EXPECT_EQ(fault::Injector::instance().checks("test.window"), 10);
  EXPECT_EQ(fault::Injector::instance().fires("test.window"), 2);
  EXPECT_EQ(fault::Injector::instance().total_fires(), 2);
}

TEST(Injector, UnknownPointsAreCountedButNeverFire) {
  fault::Plan plan;
  plan.with("test.present", 1.0);
  fault::ScopedPlan armed(plan);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(fault::check("test.absent").fire);
  }
  // A site that is reached but not planned still leaves a reachability
  // trace — how the chaos tests prove a point name is not a typo.
  EXPECT_EQ(fault::Injector::instance().checks("test.absent"), 5);
  EXPECT_EQ(fault::Injector::instance().fires("test.absent"), 0);
}

TEST(Injector, ScopedPlanDisarmsOnScopeExitButKeepsAccounting) {
  {
    fault::Plan plan;
    plan.with("test.scoped", 1.0);
    fault::ScopedPlan armed(plan);
    EXPECT_TRUE(fault::armed());
    EXPECT_TRUE(fault::check("test.scoped").fire);
  }
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::check("test.scoped").fire);
  // Post-mortem accounting survives disarm (until the next arm()).
  EXPECT_EQ(fault::Injector::instance().fires("test.scoped"), 1);
}

// --- socket-level injection (net/socket.cpp sites) ---------------------------

TEST(SocketFaults, ShortWritesAreAbsorbedByTheResumeLoop) {
  SocketPair pair;
  ASSERT_TRUE(pair.valid());
  fault::Plan plan;
  plan.seed = 7;
  plan.with("net.send.short", 1.0);  // every send truncated to 1 byte
  std::vector<std::uint8_t> message(257);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 31 + 5);
  }
  // Pump both directions in one loop: one-byte sends each pin a whole
  // kernel skb, so an undrained peer runs the writer out of buffer credit
  // long before 257 bytes (a real reader is always draining).
  std::vector<std::uint8_t> received;
  std::size_t at = 0;
  {
    fault::ScopedPlan armed(plan);
    for (int iter = 0; at < message.size() || received.size() < message.size();
         ++iter) {
      ASSERT_LT(iter, 100000) << "resume loop stopped making progress";
      if (at < message.size() && net::wait_writable(pair.a.fd(), 0.0)) {
        std::size_t n = 0;
        const net::IoStatus status = net::send_some(
            pair.a.fd(), std::span<const std::uint8_t>(message).subspan(at),
            n);
        ASSERT_NE(status, net::IoStatus::kClosed);
        ASSERT_NE(status, net::IoStatus::kError);
        if (status == net::IoStatus::kOk) at += n;
      }
      std::uint8_t chunk[64];
      std::size_t got = 0;
      switch (net::recv_some(pair.b.fd(), chunk, got)) {
        case net::IoStatus::kOk:
          received.insert(received.end(), chunk, chunk + got);
          break;
        case net::IoStatus::kWouldBlock:
          break;
        case net::IoStatus::kClosed:
        case net::IoStatus::kError:
          FAIL() << "receiver saw teardown";
      }
    }
  }
  // One byte per send(2): the site genuinely truncated every call.
  EXPECT_GE(fault::Injector::instance().fires("net.send.short"),
            static_cast<long long>(message.size()) - 1);
  EXPECT_EQ(received, message);  // byte-exact despite 257 truncated sends
}

TEST(SocketFaults, EintrMapsToWouldBlockOnBothDirections) {
  SocketPair pair;
  ASSERT_TRUE(pair.valid());
  fault::Plan plan;
  plan.with("net.send.eintr", 1.0, 0, 0, /*max_fires=*/1);
  plan.with("net.recv.eintr", 1.0, 0, 0, /*max_fires=*/1);
  fault::ScopedPlan armed(plan);

  const std::uint8_t payload[4] = {1, 2, 3, 4};
  std::size_t n = 0;
  // First send is interrupted; the production mapping must turn the EINTR
  // into kWouldBlock (retry), never kError (teardown).
  EXPECT_EQ(net::send_some(pair.a.fd(), payload, n),
            net::IoStatus::kWouldBlock);
  EXPECT_EQ(net::send_some(pair.a.fd(), payload, n), net::IoStatus::kOk);
  EXPECT_EQ(n, sizeof payload);

  std::uint8_t buf[8];
  ASSERT_TRUE(net::wait_readable(pair.b.fd(), 5000.0));
  EXPECT_EQ(net::recv_some(pair.b.fd(), buf, n), net::IoStatus::kWouldBlock);
  EXPECT_EQ(net::recv_some(pair.b.fd(), buf, n), net::IoStatus::kOk);
  EXPECT_EQ(n, sizeof payload);
}

TEST(SocketFaults, ConnectionResetMapsToClosedNotError) {
  SocketPair pair;
  ASSERT_TRUE(pair.valid());
  fault::Plan plan;
  plan.with("net.send.reset", 1.0, 0, 0, /*max_fires=*/1);
  plan.with("net.recv.reset", 1.0, 0, 0, /*max_fires=*/1);
  fault::ScopedPlan armed(plan);

  const std::uint8_t payload[4] = {9, 9, 9, 9};
  std::size_t n = 0;
  // ECONNRESET is "peer gone", the same teardown path as orderly EOF.
  EXPECT_EQ(net::send_some(pair.a.fd(), payload, n), net::IoStatus::kClosed);
  std::uint8_t buf[8];
  EXPECT_EQ(net::recv_some(pair.b.fd(), buf, n), net::IoStatus::kClosed);
}

TEST(SocketFaults, ReceiveCorruptionIsCaughtByTheWireCrc) {
  SocketPair pair;
  ASSERT_TRUE(pair.valid());
  net::wire::Hello hello;
  hello.client_name = "chaos";
  std::vector<std::uint8_t> frame;
  net::wire::encode_hello(hello, frame);
  ASSERT_TRUE(send_all_raw(pair.a.fd(), frame));

  fault::Plan plan;
  plan.with("net.recv.corrupt", 1.0, /*param=*/9, 0, /*max_fires=*/1);
  fault::ScopedPlan armed(plan);
  std::vector<std::uint8_t> in;
  net::wire::Message msg;
  // The flipped byte must surface as a decode failure, never a wrong decode.
  EXPECT_FALSE(read_one_message(pair.b.fd(), in, msg, 2000.0));
  EXPECT_EQ(fault::Injector::instance().fires("net.recv.corrupt"), 1);
}

TEST(SocketFaults, ChaoticIoStillDeliversEveryMessageIntact) {
  SocketPair pair;
  ASSERT_TRUE(pair.valid());
  fault::Plan plan;
  plan.seed = 2026;
  plan.with("net.send.short", 0.3, /*param=*/3);
  plan.with("net.recv.short", 0.3, /*param=*/5);
  plan.with("net.send.eintr", 0.2);
  plan.with("net.recv.eintr", 0.2);
  plan.with("net.send.latency", 0.1, /*param=*/1);
  fault::ScopedPlan armed(plan);

  std::vector<std::uint8_t> in;
  net::wire::Message msg;
  for (std::uint64_t i = 0; i < 8; ++i) {
    net::wire::SubmitFrame submit;
    submit.tag = i;
    submit.image = make_frame(24, 16, i);
    std::vector<std::uint8_t> frame;
    net::wire::encode_submit_frame(submit, frame);
    ASSERT_TRUE(send_all_raw(pair.a.fd(), frame));
    ASSERT_TRUE(read_one_message(pair.b.fd(), in, msg, 10000.0)) << i;
    ASSERT_EQ(msg.type, net::wire::MsgType::kSubmitFrame);
    EXPECT_EQ(msg.frame.tag, i);
    EXPECT_EQ(msg.frame.image.width(), 24);
  }
  EXPECT_GT(fault::Injector::instance().total_fires(), 0);
}

// --- model loading (svm.model.corrupt) ---------------------------------------

TEST(ModelFaults, OnDiskCorruptionIsRejectedAtLoad) {
  svm::LinearModel model;
  model.weights = {0.5f, -1.0f, 0.25f, 0.75f};
  model.bias = -0.125f;
  const std::string path = testing::TempDir() + "pdet_fault_model.bin";
  ASSERT_TRUE(svm::save_model(model, path));

  svm::LinearModel clean;
  ASSERT_TRUE(svm::load_model(path, clean));  // sanity: the file is good
  EXPECT_EQ(clean.weights, model.weights);

  {
    fault::Plan plan;
    plan.with("svm.model.corrupt", 1.0, /*param=*/13);
    fault::ScopedPlan armed(plan);
    svm::LinearModel out;
    // One flipped byte (a torn write / bad sector) must fail the file CRC —
    // never load as a silently different model.
    EXPECT_FALSE(svm::load_model(path, out));
    EXPECT_EQ(fault::Injector::instance().fires("svm.model.corrupt"), 1);
  }
  svm::LinearModel after;
  EXPECT_TRUE(svm::load_model(path, after));  // disarmed: loads again
  std::remove(path.c_str());
}

// --- runtime self-healing ----------------------------------------------------

TEST(RuntimeFaults, EngineFaultIsRetriedOnceAndCompletes) {
  runtime::ServerOptions opts = fault_server_options();
  opts.workers = 2;
  opts.recovery_frames = 1;
  const svm::LinearModel model = make_model(opts.hog, 11);
  runtime::DetectionServer server(model, opts);
  Recorded rec;
  server.add_stream("cam0", record_into(rec));
  server.start();
  {
    fault::Plan plan;
    plan.with("runtime.engine.fault", 1.0, 0, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    EXPECT_EQ(server.submit(0, make_frame(128, 128, 1)),
              runtime::SubmitStatus::kAccepted);
    server.drain();
  }
  // First attempt threw, the retry (max_fires exhausted) succeeded: the
  // client-visible outcome is one clean kOk result, exactly once.
  ASSERT_EQ(rec.sequences.size(), 1u);
  EXPECT_EQ(rec.sequences[0], 0u);
  EXPECT_EQ(rec.statuses[0], runtime::FrameStatus::kOk);
  EXPECT_EQ(fault::Injector::instance().checks("runtime.engine.fault"), 2);

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.worker_faults, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.poison_frames, 0);
  // recovery_frames=1 and the retry completed cleanly: already healthy.
  EXPECT_EQ(server.health(), runtime::HealthState::kHealthy);
  server.stop();
}

TEST(RuntimeFaults, PersistentFaultPoisonsTheFrameAfterMaxAttempts) {
  runtime::ServerOptions opts = fault_server_options();
  opts.max_frame_faults = 2;
  const svm::LinearModel model = make_model(opts.hog, 12);
  runtime::DetectionServer server(model, opts);
  Recorded rec;
  server.add_stream("cam0", record_into(rec));
  server.start();
  {
    fault::Plan plan;
    plan.with("runtime.engine.fault", 1.0);  // every attempt throws
    fault::ScopedPlan armed(plan);
    EXPECT_EQ(server.submit(0, make_frame(128, 128, 2)),
              runtime::SubmitStatus::kAccepted);
    server.drain();
  }
  // Two attempts faulted -> poison: delivered exactly once, as an error.
  ASSERT_EQ(rec.statuses.size(), 1u);
  EXPECT_EQ(rec.statuses[0], runtime::FrameStatus::kError);
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.worker_faults, 2);
  EXPECT_EQ(stats.poison_frames, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(server.health(), runtime::HealthState::kDegraded);
  server.stop();
}

TEST(RuntimeFaults, WatchdogReplacesAStalledWorker) {
  runtime::ServerOptions opts = fault_server_options();
  opts.workers = 1;
  opts.stall_timeout_ms = 500.0;   // generous: frames finish in well under it
  opts.watchdog_poll_ms = 10.0;
  const svm::LinearModel model = make_model(opts.hog, 13);
  runtime::DetectionServer server(model, opts);
  Recorded rec;
  server.add_stream("cam0", record_into(rec));
  server.start();
  {
    fault::Plan plan;
    // One wedged frame: the sole worker sleeps far past the stall timeout,
    // so the second frame can only complete if a replacement is spawned.
    plan.with("runtime.worker.stall", 1.0, /*param=*/2500, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    EXPECT_EQ(server.submit(0, make_frame(128, 128, 3)),
              runtime::SubmitStatus::kAccepted);
    EXPECT_EQ(server.submit(0, make_frame(128, 128, 4)),
              runtime::SubmitStatus::kAccepted);
    server.drain();
  }
  // In-order delivery held across the replacement: the hung frame 0 was
  // delivered (as an error) by the watchdog, frame 1 by the new worker.
  ASSERT_EQ(rec.sequences.size(), 2u);
  EXPECT_EQ(rec.sequences[0], 0u);
  EXPECT_EQ(rec.sequences[1], 1u);
  EXPECT_EQ(rec.statuses[0], runtime::FrameStatus::kError);
  EXPECT_EQ(rec.statuses[1], runtime::FrameStatus::kOk);

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.worker_stalls, 1);
  EXPECT_EQ(stats.workers_replaced, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.completed, 1);
  // stop() must join the quarantined worker (still sleeping) without hanging
  // or leaking it — the ASan/TSan presets watch this line.
  server.stop();
}

TEST(RuntimeFaults, WatchdogErrorCarriesTheStalledFramesOwnRecord) {
  runtime::ServerOptions opts = fault_server_options();
  opts.guard.enabled = true;
  opts.stall_timeout_ms = 100.0;
  opts.watchdog_poll_ms = 10.0;
  const svm::LinearModel model = make_model(opts.hog, 16);
  runtime::DetectionServer server(model, opts);
  std::vector<runtime::StreamResult> results;
  server.add_stream("cam0", [&results](const runtime::StreamResult& r) {
    results.push_back(r);
  });
  server.start();
  // Three dead rows: the gate passes the frame as degraded, so it reaches a
  // worker carrying a verdict the watchdog's error must not lose.
  imgproc::ImageF frame = make_frame(128, 128, 16);
  for (int y = 40; y < 43; ++y) {
    std::fill(frame.row(y), frame.row(y) + frame.width(), 0.0f);
  }
  constexpr std::uint64_t kTag = 0xC0FFEE;
  {
    fault::Plan plan;
    plan.with("runtime.worker.stall", 1.0, /*param=*/1000, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    EXPECT_EQ(server.submit(0, frame, kTag), runtime::SubmitStatus::kAccepted);
    server.drain();
  }
  ASSERT_EQ(results.size(), 1u);
  const runtime::StreamResult& r = results[0];
  EXPECT_EQ(r.status, runtime::FrameStatus::kError);
  EXPECT_EQ(r.sequence, 0u);
  EXPECT_EQ(r.degrade_level, 0);
  EXPECT_EQ(r.timing.trace_id, kTag);
  EXPECT_NE(r.timing.service_recv_ns, 0u);
  EXPECT_NE(r.timing.schedule_ns, 0u);
  EXPECT_NE(r.timing.engine_start_ns, 0u);
  EXPECT_EQ(r.timing.engine_end_ns, 0u) << "the engine never returned";
  EXPECT_EQ(r.input_quality,
            static_cast<std::uint8_t>(guard::FrameQuality::kDegraded));
  EXPECT_TRUE(r.quality_reasons & guard::kReasonDeadRows);
  EXPECT_GE(r.service_ms, opts.stall_timeout_ms);
  EXPECT_EQ(server.stats().worker_stalls, 1);
  server.stop();
}

TEST(RuntimeFaults, EveryDeliveryPathReadsItsDurationsOffItsTimeline) {
  // One server walked down every delivery path: ok, unusable, fault error,
  // watchdog error with evictions and deadline skips behind the stall,
  // degraded, and refused once stopped. Every result's three durations must
  // be frame_durations() of its own timeline.
  runtime::ServerOptions opts = fault_server_options();
  opts.queue_capacity = 4;
  opts.backpressure = runtime::BackpressurePolicy::kDropOldest;
  opts.guard.enabled = true;
  opts.max_frame_faults = 1;  // the first fault is the frame's error
  opts.stall_timeout_ms = 150.0;
  opts.watchdog_poll_ms = 5.0;
  opts.scheduler.max_level = 2;        // pressure degrades, never skips
  opts.scheduler.low_watermark = 0.0;  // and a raised rung stays raised
  opts.scheduler.deadline_ms = 50.0;   // frames queued behind the stall miss it
  const svm::LinearModel model = make_model(opts.hog, 17);
  runtime::DetectionServer server(model, opts);
  std::vector<runtime::StreamResult> results;
  server.add_stream("cam0", [&results](const runtime::StreamResult& r) {
    results.push_back(r);
  });
  std::vector<imgproc::ImageF> frames;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    frames.push_back(make_frame(128, 128, 100 + seed));
  }
  server.start();
  const auto submit = [&server, &frames](std::size_t i) {
    return server.submit(0, frames[i]);
  };

  EXPECT_EQ(submit(0), runtime::SubmitStatus::kAccepted);  // ok
  server.drain();
  EXPECT_EQ(server.submit(0, imgproc::ImageF(128, 128, 0.0f)),
            runtime::SubmitStatus::kAccepted);  // unusable
  {
    fault::Plan plan;
    plan.with("runtime.engine.fault", 1.0, 0, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    EXPECT_EQ(submit(1), runtime::SubmitStatus::kAccepted);  // fault error
    server.drain();
  }
  {
    fault::Plan plan;
    plan.with("runtime.worker.stall", 1.0, /*param=*/600, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    EXPECT_EQ(submit(2), runtime::SubmitStatus::kAccepted);  // watchdog error
    while (server.stats().queue_depth != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Six frames behind the stalled one: two are evicted, four wait past
    // their deadline for the replacement worker, which raises the rung.
    for (std::size_t i = 3; i < 9; ++i) (void)submit(i);
    server.drain();
  }
  EXPECT_EQ(submit(9), runtime::SubmitStatus::kAccepted);  // degraded
  server.drain();
  server.stop();
  EXPECT_EQ(submit(0), runtime::SubmitStatus::kRejected);  // refused

  const auto count = [&results](runtime::FrameStatus status, auto&& pred) {
    return std::count_if(results.begin(), results.end(),
                         [&](const runtime::StreamResult& r) {
                           return r.status == status && pred(r.timing);
                         });
  };
  const auto any = [](const obs::FrameTimeline&) { return true; };
  const auto admitted = [](const obs::FrameTimeline& t) {
    return t.queue_admit_ns != 0;
  };
  const auto engine_returned = [](const obs::FrameTimeline& t) {
    return t.engine_end_ns != 0;
  };
  using runtime::FrameStatus;
  ASSERT_EQ(results.size(), 12u);
  EXPECT_EQ(count(FrameStatus::kOk, any), 1);
  EXPECT_EQ(count(FrameStatus::kDegradedInput, any), 1);
  EXPECT_EQ(count(FrameStatus::kError, engine_returned), 1);  // fault
  EXPECT_EQ(count(FrameStatus::kError, std::not_fn(engine_returned)), 1);
  EXPECT_EQ(count(FrameStatus::kDroppedQueue, admitted), 2);  // evicted
  EXPECT_EQ(count(FrameStatus::kDroppedQueue, std::not_fn(admitted)), 1);
  EXPECT_EQ(count(FrameStatus::kDroppedDeadline, any), 4);
  EXPECT_EQ(count(FrameStatus::kDegraded, any), 1);
  for (const runtime::StreamResult& r : results) {
    const runtime::FrameDurations d = runtime::frame_durations(r.timing);
    EXPECT_EQ(r.queue_wait_ms, d.queue_wait_ms) << "seq " << r.sequence;
    EXPECT_EQ(r.service_ms, d.service_ms) << "seq " << r.sequence;
    EXPECT_EQ(r.total_ms, d.total_ms) << "seq " << r.sequence;
    EXPECT_GT(r.total_ms, 0.0) << "seq " << r.sequence;
    if (r.status == FrameStatus::kError && r.timing.engine_end_ns == 0) {
      EXPECT_GE(r.service_ms, opts.stall_timeout_ms);
    }
    if (r.status == FrameStatus::kDroppedQueue && r.timing.queue_admit_ns != 0) {
      EXPECT_GT(r.queue_wait_ms, 0.0) << "an evicted frame waited";
    }
  }
}

TEST(RuntimeFaults, HealthWalksDegradedThenHealthyThenDraining) {
  runtime::ServerOptions opts = fault_server_options();
  opts.recovery_frames = 2;
  const svm::LinearModel model = make_model(opts.hog, 14);
  runtime::DetectionServer server(model, opts);
  Recorded rec;
  server.add_stream("cam0", record_into(rec));
  server.start();
  EXPECT_EQ(server.health(), runtime::HealthState::kHealthy);
  {
    fault::Plan plan;
    plan.with("runtime.engine.fault", 1.0, 0, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    (void)server.submit(0, make_frame(128, 128, 5));
    server.drain();
  }
  // One fault, one clean completion since: one short of recovery.
  EXPECT_EQ(server.health(), runtime::HealthState::kDegraded);
  EXPECT_EQ(server.stats().health, runtime::HealthState::kDegraded);
  (void)server.submit(0, make_frame(128, 128, 6));
  server.drain();
  EXPECT_EQ(server.health(), runtime::HealthState::kHealthy);
  server.stop();
  EXPECT_EQ(server.health(), runtime::HealthState::kDraining);
  EXPECT_EQ(server.stats().health, runtime::HealthState::kDraining);
}

// The registry writes ride the obs helpers, no-ops under PDET_OBS_DISABLED.
#ifndef PDET_OBS_DISABLED
TEST(RuntimeFaults, FaultCountersAndHealthReachTheObsRegistry) {
  obs::Registry::instance().reset();
  obs::set_metrics_enabled(true);
  runtime::ServerOptions opts = fault_server_options();
  const svm::LinearModel model = make_model(opts.hog, 15);
  runtime::DetectionServer server(model, opts);
  server.add_stream("cam0", nullptr);
  server.start();
  {
    fault::Plan plan;
    plan.with("runtime.engine.fault", 1.0);  // poison path: 2 faults, 1 error
    fault::ScopedPlan armed(plan);
    (void)server.submit(0, make_frame(128, 128, 7));
    server.drain();
  }
  server.publish_metrics();
  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("runtime.worker_faults"), 2);
  EXPECT_EQ(reg.counter("runtime.poison_frames"), 1);
  EXPECT_EQ(reg.counter("runtime.frames_error"), 1);
  EXPECT_EQ(reg.gauge("runtime.health"),
            static_cast<double>(runtime::HealthState::kDegraded));
  server.stop();
  obs::set_metrics_enabled(false);
  obs::Registry::instance().reset();
}
#endif

// --- full-stack chaos: TCP service + client under a seeded schedule ----------

TEST(ChaosService, SeededFaultScheduleKeepsExactlyOnceAccounting) {
  for (const std::uint64_t seed : {std::uint64_t{11}, std::uint64_t{2026}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    net::ServiceOptions opts;
    opts.port = 0;
    opts.runtime.workers = 2;
    opts.runtime.queue_capacity = 8;
    opts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
    opts.runtime.scheduler.max_level = 0;
    opts.runtime.multiscale.scales = {1.0};
    opts.runtime.stall_timeout_ms = 500.0;
    opts.runtime.watchdog_poll_ms = 10.0;
    opts.runtime.recovery_frames = 4;
    const svm::LinearModel model = make_model(opts.runtime.hog, seed);
    net::DetectionService service(model, opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;

    net::ClientOptions copts;
    copts.port = service.port();
    copts.name = "chaos-cam";
    net::Client client(copts);
    ASSERT_TRUE(client.connect()) << client.last_error();

    constexpr int kChaosFrames = 24;
    constexpr int kRecoveryFrames = 8;
    net::wire::Result result;
    {
      // Recoverable faults only (no resets: connection teardown is the
      // client-reconnect test's subject, not exactly-once delivery's).
      fault::Plan plan;
      plan.seed = seed;
      plan.with("net.send.short", 0.05, /*param=*/3);
      plan.with("net.recv.short", 0.05, /*param=*/7);
      plan.with("net.send.eintr", 0.05);
      plan.with("net.recv.eintr", 0.05);
      plan.with("net.send.latency", 0.02, /*param=*/1);
      plan.with("runtime.engine.fault", 0.08);
      plan.with("runtime.worker.stall", 0.02, /*param=*/1200);
      fault::ScopedPlan armed(plan);
      for (int f = 0; f < kChaosFrames; ++f) {
        ASSERT_TRUE(client.submit(
            make_frame(128, 128, seed * 100 + static_cast<std::uint64_t>(f))))
            << client.last_error();
      }
      for (int f = 0; f < kChaosFrames; ++f) {
        ASSERT_TRUE(client.next_result(result, 60000.0))
            << "frame " << f << ": " << client.last_error();
        EXPECT_EQ(result.tag, static_cast<std::uint64_t>(f));
        EXPECT_TRUE(result.status == runtime::FrameStatus::kOk ||
                    result.status == runtime::FrameStatus::kError)
            << "frame " << f;
      }
    }
    EXPECT_GT(fault::Injector::instance().total_fires(), 0);

    // Disarmed recovery window: clean frames walk health back to kHealthy.
    for (int f = 0; f < kRecoveryFrames; ++f) {
      ASSERT_TRUE(client.submit(make_frame(
          128, 128, seed * 100 + 1000 + static_cast<std::uint64_t>(f))));
    }
    for (int f = 0; f < kRecoveryFrames; ++f) {
      ASSERT_TRUE(client.next_result(result, 60000.0)) << client.last_error();
      EXPECT_EQ(result.status, runtime::FrameStatus::kOk);
    }
    EXPECT_TRUE(client.in_order());
    EXPECT_EQ(client.protocol_errors(), 0);
    EXPECT_EQ(client.results_missed(), 0);
    EXPECT_EQ(client.results_received(), kChaosFrames + kRecoveryFrames);

    // The remote stats view must carry the fault story end to end.
    net::wire::StatsReport report;
    ASSERT_TRUE(client.query_stats(report, 60000.0)) << client.last_error();
    EXPECT_EQ(report.runtime.health, runtime::HealthState::kHealthy);
    EXPECT_EQ(report.runtime.submitted, kChaosFrames + kRecoveryFrames);
    EXPECT_EQ(report.runtime.completed + report.runtime.errors,
              kChaosFrames + kRecoveryFrames);

    client.disconnect();
    service.stop();
    // Exactly-once, server side: every submitted frame is accounted for as
    // completed, dropped or errored — nothing lost, nothing duplicated.
    const net::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.runtime.submitted, kChaosFrames + kRecoveryFrames);
    EXPECT_EQ(stats.runtime.completed + stats.runtime.dropped_queue +
                  stats.runtime.dropped_deadline + stats.runtime.errors,
              stats.runtime.submitted);
    EXPECT_EQ(stats.frames_received, kChaosFrames + kRecoveryFrames);
    EXPECT_EQ(stats.results_sent, kChaosFrames + kRecoveryFrames);
    // Every contained fault traces back to an injector fire (a quarantined
    // worker's abandoned attempt fires without a worker_faults bump, so <=).
    EXPECT_LE(stats.runtime.worker_faults,
              fault::Injector::instance().fires("runtime.engine.fault"));
    EXPECT_EQ(stats.runtime.worker_stalls,
              fault::Injector::instance().fires("runtime.worker.stall"));
  }
}

TEST(ChaosService, StalledFrameComesBackAsItsOwnTaggedError) {
  // Deterministic watchdog run: one worker, and the stall fires on the
  // second frame only, so the schedule is ok / watchdog error / ok.
  net::ServiceOptions opts;
  opts.port = 0;
  opts.runtime = fault_server_options();
  opts.runtime.stall_timeout_ms = 500.0;
  opts.runtime.watchdog_poll_ms = 10.0;
  const svm::LinearModel model = make_model(opts.runtime.hog, 17);
  net::DetectionService service(model, opts);
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;

  net::ClientOptions copts;
  copts.port = service.port();
  copts.name = "stall-cam";
  net::Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();

  const runtime::FrameStatus expected[] = {runtime::FrameStatus::kOk,
                                           runtime::FrameStatus::kError,
                                           runtime::FrameStatus::kOk};
  {
    fault::Plan plan;
    plan.with("runtime.worker.stall", 1.0, /*param=*/1500, /*skip=*/1,
              /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    for (std::uint64_t f = 0; f < 3; ++f) {
      ASSERT_TRUE(client.submit(make_frame(128, 128, 1700 + f)))
          << client.last_error();
    }
    net::wire::Result result;
    for (std::uint64_t f = 0; f < 3; ++f) {
      ASSERT_TRUE(client.next_result(result, 60000.0))
          << "frame " << f << ": " << client.last_error();
      EXPECT_EQ(result.tag, f);
      EXPECT_EQ(result.sequence, f);
      EXPECT_EQ(result.status, expected[f]) << "frame " << f;
    }
  }
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.results_missed(), 0);
  EXPECT_EQ(client.protocol_errors(), 0);
  client.disconnect();
  service.stop();
  const net::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.runtime.worker_stalls, 1);
  EXPECT_EQ(stats.runtime.completed, 2);
  EXPECT_EQ(stats.runtime.errors, 1);
  EXPECT_EQ(stats.results_sent, 3);
}

}  // namespace
}  // namespace pdet
