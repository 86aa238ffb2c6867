// Tests for pdet::runtime: the bounded backpressure queue, the degradation
// scheduler, per-stream in-order delivery, and the multi-stream server
// end to end (nominal, blocking and deliberately overloaded regimes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/detect/multiscale.hpp"
#include "src/detect/tracker.hpp"
#include "src/fault/injector.hpp"
#include "src/runtime/bounded_queue.hpp"
#include "src/runtime/scheduler.hpp"
#include "src/runtime/server.hpp"
#include "src/runtime/stats_table.hpp"
#include "src/runtime/stream.hpp"
#include "src/util/rng.hpp"

namespace pdet::runtime {
namespace {

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueue, FifoWithinCapacity) {
  BoundedQueue<int> q(4, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  EXPECT_EQ(q.push(3), PushResult::kAccepted);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, DropNewestRejectsWhenFull) {
  BoundedQueue<int> q(2, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  EXPECT_EQ(q.push(3), PushResult::kRejected);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);  // rejected push displaced nothing
  EXPECT_EQ(q.push(4), PushResult::kAccepted);
}

TEST(BoundedQueue, DropOldestEvictsHeadAndReturnsIt) {
  BoundedQueue<int> q(2, BackpressurePolicy::kDropOldest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  int evicted = 0;
  EXPECT_EQ(q.push(3, &evicted), PushResult::kReplacedOldest);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(q.size(), 2u);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
}

TEST(BoundedQueue, BlockPolicyWaitsForSpace) {
  BoundedQueue<int> q(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(1), PushResult::kAccepted);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(2), PushResult::kAccepted);  // blocks until the pop
    pushed.store(true);
  });
  // The producer must not complete while the queue is full. (A short sleep
  // cannot prove "never", but it reliably catches a non-blocking push.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, CloseDrainsBacklogThenStopsPop) {
  BoundedQueue<int> q(4, BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(7), PushResult::kAccepted);
  q.close();
  EXPECT_EQ(q.push(8), PushResult::kClosed);
  int v = 0;
  EXPECT_TRUE(q.pop(v));  // backlog still drains
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(q.pop(v));  // closed and empty: worker-exit signal
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2, BackpressurePolicy::kBlock);
  std::thread consumer([&] {
    int v = 0;
    EXPECT_FALSE(q.pop(v));  // blocks empty, then woken by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, CapacityOneDropNewestKeepsTheResident) {
  // Capacity 1 is the degenerate ring: head == tail, one slot. kDropNewest
  // must keep refusing while the resident sits there, then admit again the
  // moment it is popped.
  BoundedQueue<int> q(1, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kRejected);
  EXPECT_EQ(q.push(3), PushResult::kRejected);
  int v = 0;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 1);  // the resident, not any refused newcomer
  EXPECT_EQ(q.push(4), PushResult::kAccepted);
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 4);
}

TEST(BoundedQueue, CapacityOneDropOldestAlwaysHoldsTheNewest) {
  // Every push on a full capacity-1 kDropOldest queue replaces the resident:
  // the queue behaves as a mailbox holding only the freshest frame, and each
  // eviction hands back exactly the displaced element.
  BoundedQueue<int> q(1, BackpressurePolicy::kDropOldest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  for (int i = 2; i <= 5; ++i) {
    int evicted = -1;
    EXPECT_EQ(q.push(i, &evicted), PushResult::kReplacedOldest);
    EXPECT_EQ(evicted, i - 1);
    EXPECT_EQ(q.size(), 1u);
  }
  int v = 0;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(q.try_pop(v));
}

TEST(BoundedQueue, ConcurrentPushDuringCloseNeverLosesAcceptedItems) {
  // The shutdown race: producers hammering push() while another thread
  // close()es. Every push must return a definite verdict, and the number of
  // items the consumer drains afterwards must equal the number of accepted
  // pushes — nothing vanishes, nothing appears after kClosed.
  for (int round = 0; round < 20; ++round) {
    BoundedQueue<int> q(4, BackpressurePolicy::kDropOldest);
    std::atomic<long long> accepted{0};
    std::atomic<long long> evictions{0};
    std::atomic<long long> closed{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 200; ++i) {
          int evicted = -1;
          switch (q.push(p * 1000 + i, &evicted)) {
            case PushResult::kAccepted:
              accepted.fetch_add(1);
              break;
            case PushResult::kReplacedOldest:
              accepted.fetch_add(1);
              evictions.fetch_add(1);
              break;
            case PushResult::kClosed:
              closed.fetch_add(1);
              break;
            case PushResult::kRejected:
              ADD_FAILURE() << "kDropOldest never rejects";
              break;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    q.close();
    for (std::thread& t : producers) t.join();
    long long drained = 0;
    int v = 0;
    while (q.pop(v)) ++drained;
    EXPECT_EQ(drained + evictions.load(), accepted.load());
    EXPECT_EQ(accepted.load() + closed.load(), 4 * 200);
    EXPECT_EQ(q.push(99), PushResult::kClosed);  // stays closed
  }
}

TEST(BoundedQueue, CloseUnblocksProducerBlockedOnFullQueue) {
  // kBlock producer waiting for space must observe close() and give up with
  // kClosed rather than sleeping forever (the stop() path of the server).
  BoundedQueue<int> q(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(1), PushResult::kAccepted);
  std::thread producer([&] {
    EXPECT_EQ(q.push(2), PushResult::kClosed);  // blocks full, woken by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
}

// --- Scheduler --------------------------------------------------------------

TEST(Scheduler, EscalatesUnderPressureAndReleasesWithHysteresis) {
  SchedulerOptions opts;
  opts.high_watermark = 0.75;
  opts.low_watermark = 0.25;
  Scheduler s(opts, 4);
  EXPECT_EQ(s.level(), 0);

  // Full queue: one rung per admit, capped at 3 (= skip).
  EXPECT_EQ(s.admit(4, 0.0).level, 1);
  EXPECT_FALSE(s.admit(4, 0.0).skip);  // rung 2
  EXPECT_EQ(s.level(), 2);
  EXPECT_TRUE(s.admit(4, 0.0).skip);  // rung 3
  EXPECT_TRUE(s.admit(4, 0.0).skip);  // stays 3
  EXPECT_EQ(s.level(), 3);

  // Mid-band pressure holds the rung (hysteresis, no oscillation).
  s.admit(2, 0.0);
  EXPECT_EQ(s.level(), 3);

  // Drained queue releases one rung per admit.
  EXPECT_FALSE(s.admit(0, 0.0).skip);  // 3 -> 2, frame runs degraded
  EXPECT_EQ(s.admit(0, 0.0).level, 1);
  EXPECT_EQ(s.admit(0, 0.0).level, 0);
  EXPECT_EQ(s.admit(0, 0.0).level, 0);  // floor
}

TEST(Scheduler, DeadlineBlownSkipsRegardlessOfLadder) {
  SchedulerOptions opts;
  opts.deadline_ms = 5.0;
  Scheduler s(opts, 8);
  const AdmitDecision d = s.admit(0, 10.0);
  EXPECT_TRUE(d.skip);
  EXPECT_EQ(d.level, 0);  // ladder itself is calm
  EXPECT_FALSE(s.admit(0, 1.0).skip);
}

TEST(Scheduler, MaxLevelCapsTheLadder) {
  SchedulerOptions opts;
  opts.max_level = 2;  // degrade but never skip from pressure alone
  Scheduler s(opts, 2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(s.admit(2, 0.0).skip);
  }
  EXPECT_EQ(s.level(), 2);
}

TEST(Scheduler, DegradedOptionsThinTheLadderThenGoHybrid) {
  detect::MultiscaleOptions base;
  base.scales = {1.0, 1.2, 1.5, 1.7, 2.0};
  base.strategy = detect::PyramidStrategy::kFeature;

  const detect::MultiscaleOptions l0 = Scheduler::degraded_options(base, 0);
  EXPECT_EQ(l0.scales, base.scales);
  EXPECT_EQ(l0.strategy, detect::PyramidStrategy::kFeature);

  const detect::MultiscaleOptions l1 = Scheduler::degraded_options(base, 1);
  EXPECT_EQ(l1.scales, (std::vector<double>{1.0, 1.5, 2.0}));
  EXPECT_EQ(l1.strategy, detect::PyramidStrategy::kFeature);

  const detect::MultiscaleOptions l2 = Scheduler::degraded_options(base, 2);
  EXPECT_EQ(l2.scales, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(l2.strategy, detect::PyramidStrategy::kHybrid);

  // Already-minimal ladders only switch strategy.
  detect::MultiscaleOptions two;
  two.scales = {1.0, 2.0};
  EXPECT_EQ(Scheduler::degraded_options(two, 1).scales, two.scales);
  EXPECT_EQ(Scheduler::degraded_options(two, 2).strategy,
            detect::PyramidStrategy::kHybrid);
}

// --- StreamContext ----------------------------------------------------------

StreamResult result_for(int stream, std::uint64_t seq) {
  StreamResult r;
  r.stream = stream;
  r.sequence = seq;
  r.status = FrameStatus::kOk;
  return r;
}

TEST(StreamContext, ReordersOutOfOrderCompletions) {
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> deliver_ns;
  StreamContext ctx(0, "cam0", [&](const StreamResult& r) {
    delivered.push_back(r.sequence);
    deliver_ns.push_back(r.timing.deliver_ns);
  });
  std::vector<StreamResult> results;
  for (int i = 0; i < 5; ++i) results.push_back(result_for(0, ctx.next_sequence()));

  ctx.deliver(results[2]);  // buffered
  ctx.deliver(results[1]);  // buffered
  EXPECT_TRUE(delivered.empty());
  ctx.deliver(results[0]);  // releases 0,1,2
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2}));
  ctx.deliver(results[4]);  // buffered again
  ctx.deliver(results[3]);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ctx.delivered(), 5u);
  // The deliver hop is stamped as each callback fires, parked or not, so
  // the stamps run in sequence order.
  EXPECT_NE(deliver_ns.front(), 0u);
  EXPECT_TRUE(std::is_sorted(deliver_ns.begin(), deliver_ns.end()));
}

TEST(StreamContext, DroppedFramesKeepTheSequenceContiguous) {
  std::vector<std::pair<std::uint64_t, FrameStatus>> delivered;
  StreamContext ctx(3, "cam3", [&](const StreamResult& r) {
    delivered.emplace_back(r.sequence, r.status);
  });
  for (int i = 0; i < 3; ++i) (void)ctx.next_sequence();

  StreamResult dropped = result_for(3, 1);
  dropped.status = FrameStatus::kDroppedQueue;
  StreamResult first = result_for(3, 0);
  StreamResult last = result_for(3, 2);
  ctx.deliver(dropped);  // gap at 0: buffered
  ctx.deliver(first);    // releases 0 then the dropped 1
  ctx.deliver(last);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[1].first, 1u);
  EXPECT_EQ(delivered[1].second, FrameStatus::kDroppedQueue);
}

// --- DetectionServer --------------------------------------------------------

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

ServerOptions nominal_options() {
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 8;
  opts.backpressure = BackpressurePolicy::kBlock;
  // max_level = 0 pins the ladder at full quality: these tests submit in a
  // tight loop (which reads as pressure), but assert detection correctness,
  // not shedding behaviour.
  opts.scheduler.max_level = 0;
  opts.multiscale.scales = {1.0, 1.5, 2.0};
  return opts;
}

struct Recorded {
  std::vector<std::uint64_t> sequences;
  std::vector<FrameStatus> statuses;
  std::vector<std::vector<detect::Detection>> detections;
};

TEST(DetectionServer, NominalLoadCompletesEveryFrameInOrder) {
  const ServerOptions opts = nominal_options();
  const svm::LinearModel model = make_model(opts.hog, 11);
  constexpr int kStreams = 3;
  constexpr int kFrames = 4;

  std::vector<imgproc::ImageF> frames;
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(make_frame(160, 160, 100 + static_cast<std::uint64_t>(i)));
  }

  DetectionServer server(model, opts);
  std::vector<Recorded> recorded(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Recorded& rec = recorded[static_cast<std::size_t>(s)];
    server.add_stream("cam" + std::to_string(s), [&rec](const StreamResult& r) {
      rec.sequences.push_back(r.sequence);
      rec.statuses.push_back(r.status);
      rec.detections.push_back(r.detections);
    });
  }
  server.start();
  for (int i = 0; i < kFrames; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      EXPECT_EQ(server.submit(s, frames[static_cast<std::size_t>(i)]),
                SubmitStatus::kAccepted);
    }
  }
  server.drain();
  server.stop();

  // Reference: the engine chain is already proven equal to the free chain;
  // the server must add scheduling without changing any detection.
  std::vector<detect::MultiscaleResult> expected;
  for (const imgproc::ImageF& f : frames) {
    expected.push_back(detect::detect_multiscale(f, opts.hog, model,
                                                 opts.multiscale));
  }
  for (int s = 0; s < kStreams; ++s) {
    const Recorded& rec = recorded[static_cast<std::size_t>(s)];
    ASSERT_EQ(rec.sequences.size(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_EQ(rec.sequences[idx], static_cast<std::uint64_t>(i));
      EXPECT_EQ(rec.statuses[idx], FrameStatus::kOk);
      const auto& want = expected[idx].detections;
      const auto& got = rec.detections[idx];
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(got[d].x, want[d].x);
        EXPECT_EQ(got[d].y, want[d].y);
        EXPECT_EQ(got[d].score, want[d].score);
      }
    }
  }

  const RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kStreams * kFrames);
  EXPECT_EQ(stats.completed, kStreams * kFrames);
  EXPECT_EQ(stats.ok, kStreams * kFrames);
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.dropped_queue, 0);
  EXPECT_EQ(stats.dropped_deadline, 0);
  EXPECT_EQ(stats.queue_wait_ms.count,
            static_cast<std::uint64_t>(kStreams * kFrames));
  EXPECT_EQ(stats.engine_frames, kStreams * kFrames);
  EXPECT_GT(stats.engine_alloc_bytes, 0u);
  EXPECT_GT(stats.aggregate_fps, 0.0);
}

TEST(DetectionServer, StreamTrackerIsFedInFrameOrderAtAnyWorkerCount) {
  // Three workers finish frames out of order; each stream's one tracker must
  // still see the delivered detections in frame order, which the gate's
  // coast boxes after a blackout expose.
  ServerOptions opts = nominal_options();
  opts.workers = 3;
  opts.multiscale.scales = {1.0};
  // Every window is a hit, so NMS leaves a handful of boxes per frame.
  opts.multiscale.scan.threshold = -100.0f;
  opts.guard.enabled = true;
  const svm::LinearModel model = make_model(opts.hog, 12);
  constexpr int kStreams = 2;
  constexpr int kLive = 8;
  constexpr int kBlack = 2;

  DetectionServer server(model, opts);
  std::vector<Recorded> recorded(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Recorded& rec = recorded[static_cast<std::size_t>(s)];
    server.add_stream("cam" + std::to_string(s), [&rec](const StreamResult& r) {
      rec.sequences.push_back(r.sequence);
      rec.statuses.push_back(r.status);
      rec.detections.push_back(r.detections);
    });
  }
  server.start();
  // One still scene per stream under a brightness step: boxes hold still so
  // tracks confirm, and no frame repeats its predecessor exactly.
  std::vector<imgproc::ImageF> scenes;
  for (int s = 0; s < kStreams; ++s) {
    scenes.push_back(make_frame(192, 160, 40 + static_cast<std::uint64_t>(s)));
  }
  for (int f = 0; f < kLive; ++f) {
    for (int s = 0; s < kStreams; ++s) {
      imgproc::ImageF frame = scenes[static_cast<std::size_t>(s)];
      for (float& p : frame.pixels()) p += 0.002f * static_cast<float>(f);
      ASSERT_EQ(server.submit(s, frame), SubmitStatus::kAccepted);
    }
  }
  server.drain();
  for (int f = 0; f < kBlack; ++f) {
    for (int s = 0; s < kStreams; ++s) {
      ASSERT_EQ(server.submit(s, imgproc::ImageF(192, 160, 0.0f)),
                SubmitStatus::kAccepted);
    }
  }
  server.drain();
  server.stop();

  for (int s = 0; s < kStreams; ++s) {
    const Recorded& rec = recorded[static_cast<std::size_t>(s)];
    ASSERT_EQ(rec.statuses.size(), static_cast<std::size_t>(kLive + kBlack));
    detect::Tracker standalone;
    for (int f = 0; f < kLive; ++f) {
      ASSERT_EQ(rec.statuses[static_cast<std::size_t>(f)], FrameStatus::kOk);
      standalone.update(rec.detections[static_cast<std::size_t>(f)]);
    }
    std::vector<detect::Detection> coast;
    for (int k = 1; k <= kBlack; ++k) {
      const auto idx = static_cast<std::size_t>(kLive + k - 1);
      ASSERT_EQ(rec.statuses[idx], FrameStatus::kDegradedInput);
      standalone.predict_boxes(k, coast);
      if (k == 1) {
        EXPECT_FALSE(coast.empty()) << "no confirmed tracks";
      }
      const auto& got = rec.detections[idx];
      ASSERT_EQ(got.size(), coast.size()) << "stream " << s << " black " << k;
      for (std::size_t d = 0; d < coast.size(); ++d) {
        EXPECT_EQ(got[d].x, coast[d].x);
        EXPECT_EQ(got[d].y, coast[d].y);
        EXPECT_EQ(got[d].width, coast[d].width);
        EXPECT_EQ(got[d].height, coast[d].height);
        EXPECT_EQ(got[d].score, coast[d].score);
      }
    }
  }
}

TEST(DetectionServer, DeliverIsStampedWhenTheInOrderCallbackFires) {
  // Frame 0 stalls on one worker while frame 1 finishes on the other and is
  // parked behind it: frame 1's deliver hop is its callback, after frame 0's.
  ServerOptions opts = nominal_options();
  opts.multiscale.scales = {1.0};
  const svm::LinearModel model = make_model(opts.hog, 21);
  DetectionServer server(model, opts);
  struct Seen {
    obs::FrameTimeline timing;
    std::uint64_t entry_ns = 0;  ///< timeline clock at callback entry
  };
  std::vector<Seen> seen;
  server.add_stream("cam0", [&seen](const StreamResult& r) {
    const std::uint64_t entry_ns = obs::timeline_now_ns();
    seen.push_back({r.timing, entry_ns});
  });
  server.start();
  {
    fault::Plan plan;
    plan.with("runtime.worker.stall", 1.0, /*param=*/300, 0, /*max_fires=*/1);
    fault::ScopedPlan armed(plan);
    ASSERT_EQ(server.submit(0, make_frame(128, 128, 1)),
              SubmitStatus::kAccepted);
    while (server.stats().queue_depth != 0) {  // a worker holds frame 0
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.submit(0, make_frame(128, 128, 2)),
              SubmitStatus::kAccepted);
    server.drain();
  }
  server.stop();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_LT(seen[1].timing.complete_ns, seen[0].timing.complete_ns)
      << "frame 1 completed first and was parked";
  EXPECT_GE(seen[1].timing.deliver_ns, seen[0].timing.deliver_ns);
  for (const Seen& s : seen) {
    EXPECT_GE(s.timing.deliver_ns, s.timing.complete_ns);
    EXPECT_LE(s.timing.deliver_ns, s.entry_ns);
  }
}

TEST(DetectionServer, OverloadShedsInsteadOfGrowingTheQueue) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;  // deliberately tiny
  opts.backpressure = BackpressurePolicy::kDropOldest;
  opts.multiscale.scales = {1.0, 1.3, 1.6, 2.0};
  const svm::LinearModel model = make_model(opts.hog, 7);

  constexpr int kFrames = 40;
  const imgproc::ImageF frame = make_frame(192, 192, 5);

  DetectionServer server(model, opts);
  Recorded rec;
  server.add_stream("cam0", [&rec](const StreamResult& r) {
    rec.sequences.push_back(r.sequence);
    rec.statuses.push_back(r.status);
  });
  server.start();
  // Submit far faster than one worker can detect: the queue must stay at its
  // fixed depth and the ladder must engage, instead of the backlog growing.
  for (int i = 0; i < kFrames; ++i) {
    (void)server.submit(0, frame);
    EXPECT_LE(server.stats().queue_depth, opts.queue_capacity);
  }
  server.drain();
  server.stop();

  // Exactly one delivery per submitted frame, strictly in order.
  ASSERT_EQ(rec.sequences.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(rec.sequences[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }

  const RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kFrames);
  EXPECT_EQ(stats.completed + stats.dropped_queue + stats.dropped_deadline,
            kFrames);
  // The shedding machinery must actually have engaged: frames were evicted
  // from the full queue, and the ladder degraded and/or skipped work.
  EXPECT_GT(stats.dropped_queue, 0);
  EXPECT_GT(stats.degraded + stats.dropped_deadline, 0);
}

TEST(DetectionServer, DropNewestRejectsAtSubmitAndStillDelivers) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.backpressure = BackpressurePolicy::kDropNewest;
  opts.multiscale.scales = {1.0, 2.0};
  const svm::LinearModel model = make_model(opts.hog, 3);

  DetectionServer server(model, opts);
  std::vector<std::uint64_t> delivered;
  std::vector<FrameStatus> statuses;
  server.add_stream("cam0", [&](const StreamResult& r) {
    delivered.push_back(r.sequence);
    statuses.push_back(r.status);
  });
  server.start();
  const imgproc::ImageF frame = make_frame(160, 160, 9);
  constexpr int kFrames = 12;
  int rejected = 0;
  for (int i = 0; i < kFrames; ++i) {
    if (server.submit(0, frame) == SubmitStatus::kRejected) ++rejected;
  }
  server.drain();
  server.stop();

  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
  const RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.dropped_queue, rejected);
  EXPECT_EQ(stats.completed + stats.dropped_queue + stats.dropped_deadline,
            kFrames);
}

TEST(DetectionServer, StopIsIdempotentAndStatsSurvive) {
  ServerOptions opts = nominal_options();
  opts.workers = 1;
  const svm::LinearModel model = make_model(opts.hog, 2);
  DetectionServer server(model, opts);
  server.add_stream("cam0", nullptr);  // deliveries without a callback are ok
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.submit(0, make_frame(160, 160, 1)),
            SubmitStatus::kAccepted);
  server.drain();
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // second stop is a no-op
  const RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// The registry writes ride the obs instrumentation helpers, which compile
// to no-ops under PDET_OBS_DISABLED.
#ifndef PDET_OBS_DISABLED
TEST(DetectionServer, PublishMetricsWritesDeltasToRegistry) {
  obs::Registry::instance().reset();
  obs::set_metrics_enabled(true);
  ServerOptions opts = nominal_options();
  opts.workers = 1;
  const svm::LinearModel model = make_model(opts.hog, 4);
  DetectionServer server(model, opts);
  server.add_stream("cam0", nullptr);
  server.start();
  const imgproc::ImageF frame = make_frame(160, 160, 13);
  for (int i = 0; i < 3; ++i) {
    (void)server.submit(0, frame);
  }
  server.drain();
  server.publish_metrics();
  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("runtime.frames_submitted"), 3);
  EXPECT_EQ(reg.counter("runtime.frames_completed"), 3);
  // Publishing twice must not double-count (delta publishing).
  server.publish_metrics();
  EXPECT_EQ(reg.counter("runtime.frames_submitted"), 3);
  server.stop();
  obs::set_metrics_enabled(false);
  obs::Registry::instance().reset();
}
#endif

// --- fleet stats merge properties -------------------------------------------

namespace {

/// A snapshot with every table row drawn at random (enums over their valid
/// range), derived rows recomputed: new rows are covered automatically.
RuntimeStats random_stats(util::Rng& rng) {
  RuntimeStats s;
  RuntimeStats::visit(
      [&rng](const StatField&, auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_enum_v<T>) {
          v = static_cast<T>(
              rng.uniform_int(0, static_cast<int>(enum_max(T{}))));
        } else if constexpr (std::is_floating_point_v<T>) {
          v = rng.uniform(0.0, 500.0);
        } else {
          v = static_cast<T>(rng.uniform_int(0, 10000));
        }
      },
      s);
  derive_stats(s);
  return s;
}

/// Every row equal; kRate rows (double sums, reassociated by a different
/// merge order) to rounding.
void expect_same_stats(const RuntimeStats& a, const RuntimeStats& b) {
  RuntimeStats::visit(
      [](const StatField& f, const auto& x, const auto& y) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(x)>>) {
          if (f.kind == StatKind::kRate) {
            EXPECT_NEAR(x, y, 1e-6) << f.name;
            return;
          }
        }
        EXPECT_EQ(x, y) << f.name;
      },
      a, b);
}

}  // namespace

// Property: merging any partition of N snapshots gives the same result as
// merging all N in one pass, on every table row — the identity that makes
// the fleet router's per-shard aggregation trustworthy (associativity and
// commutativity of each row's kind; the derived fill follows its counters).
TEST(StatsMerge, PartitionInvariantAndCommutative) {
  util::Rng rng(0xF1EE7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RuntimeStats> parts;
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < n; ++i) parts.push_back(random_stats(rng));

    // One pass, in order.
    RuntimeStats all = parts[0];
    for (int i = 1; i < n; ++i) merge_runtime_stats(all, parts[static_cast<std::size_t>(i)]);

    // Two-way partition at a random split, then merge of the merges.
    const int split = static_cast<int>(rng.uniform_int(1, n - 1));
    RuntimeStats left = parts[0];
    for (int i = 1; i < split; ++i) {
      merge_runtime_stats(left, parts[static_cast<std::size_t>(i)]);
    }
    RuntimeStats right = parts[static_cast<std::size_t>(split)];
    for (int i = split + 1; i < n; ++i) {
      merge_runtime_stats(right, parts[static_cast<std::size_t>(i)]);
    }
    RuntimeStats combined = left;
    merge_runtime_stats(combined, right);

    // Reverse order (commutativity).
    RuntimeStats reversed = parts[static_cast<std::size_t>(n - 1)];
    for (int i = n - 2; i >= 0; --i) {
      merge_runtime_stats(reversed, parts[static_cast<std::size_t>(i)]);
    }

    expect_same_stats(all, combined);
    expect_same_stats(all, reversed);
    // Merging into an empty snapshot is the identity.
    RuntimeStats from_empty;
    for (const RuntimeStats& p : parts) merge_runtime_stats(from_empty, p);
    expect_same_stats(all, from_empty);
  }
}

// Property: delta then merge round-trips — merge(before, delta(after,
// before)) restores after on every summed row, and the delta keeps after's
// value on the kMax and kRate rows. This is the identity benches lean on to
// attribute a measurement window out of lifetime snapshots.
TEST(StatsMerge, DeltaMergeRoundTrip) {
  util::Rng rng(0xD317A);
  for (int trial = 0; trial < 20; ++trial) {
    const RuntimeStats before = random_stats(rng);
    RuntimeStats after = before;
    merge_runtime_stats(after, random_stats(rng));  // after >= before row-wise

    const RuntimeStats delta = runtime_stats_delta(after, before);
    RuntimeStats rebuilt = before;
    merge_runtime_stats(rebuilt, delta);
    RuntimeStats::visit(
        [](const StatField& f, const auto& d, const auto& r, const auto& a) {
          switch (f.kind) {
            case StatKind::kCounter:
            case StatKind::kGauge:
            case StatKind::kRatio:
              EXPECT_EQ(r, a) << f.name;
              break;
            case StatKind::kMax:
              EXPECT_EQ(d, a) << f.name;
              EXPECT_EQ(r, a) << f.name;
              break;
            case StatKind::kRate:
              EXPECT_EQ(d, a) << f.name;
              break;
          }
        },
        delta, rebuilt, after);
  }
}

// The fleet's batch fill is its windows over its capacity, not a
// window-weighted mean of per-shard fills: a full shard (640 / 640) and a
// nearly idle one (10 / 640) fill 650 / 1280 of the fleet's batches. The
// weighted mean would say (640 * 1 + 10 / 64 * 10) / 650 = 0.985.
TEST(StatsMerge, FleetFillIsWindowsOverCapacity) {
  RuntimeStats full;
  full.score_windows = 640;
  full.score_capacity = 640;
  derive_stats(full);
  RuntimeStats idle;
  idle.score_windows = 10;
  idle.score_capacity = 640;
  derive_stats(idle);
  EXPECT_DOUBLE_EQ(full.score_fill, 1.0);
  EXPECT_DOUBLE_EQ(idle.score_fill, 1.0 / 64.0);

  RuntimeStats fleet = full;
  merge_runtime_stats(fleet, idle);
  EXPECT_EQ(fleet.score_windows, 650);
  EXPECT_EQ(fleet.score_capacity, 1280);
  EXPECT_DOUBLE_EQ(fleet.score_fill, 650.0 / 1280.0);
  // And a window's delta recomputes its own fill.
  EXPECT_DOUBLE_EQ(runtime_stats_delta(fleet, full).score_fill, 1.0 / 64.0);
}

TEST(StatsMerge, HealthIsWorstOf) {
  const auto merged = [](HealthState a, HealthState b) {
    RuntimeStats acc;
    acc.health = a;
    RuntimeStats in;
    in.health = b;
    merge_runtime_stats(acc, in);
    return acc.health;
  };
  EXPECT_EQ(merged(HealthState::kHealthy, HealthState::kHealthy),
            HealthState::kHealthy);
  EXPECT_EQ(merged(HealthState::kHealthy, HealthState::kDegraded),
            HealthState::kDegraded);
  EXPECT_EQ(merged(HealthState::kDraining, HealthState::kDegraded),
            HealthState::kDraining);
  EXPECT_EQ(merged(HealthState::kDegraded, HealthState::kHealthy),
            HealthState::kDegraded);
}

}  // namespace
}  // namespace pdet::runtime
