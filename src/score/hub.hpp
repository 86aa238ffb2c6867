// Cross-stream scoring hub (pdet::score::ScoreHub).
//
// The runtime's biggest untapped throughput lever: with N workers each
// scanning its own stream, scoring requests arrive independently and the
// backend sees N trickles instead of one firehose. ScoreHub sits between
// the engines and a shared inner backend and coalesces those trickles:
//
//   worker 0 ──┐                       ┌─▶ inner.score(batch a)
//   worker 1 ──┤  submit(model,batch)  ├─▶ inner.score(batch b)
//   worker 2 ──┼──▶ pending queue ─────┤        (lanes drains)
//   worker 3 ──┘                       └─▶ ...
//
// Design: worker-assisted draining, not a dedicated scoring thread. A
// submitter parks its request and, if fewer than `lanes` drains are active,
// becomes a drainer itself — grabbing a clump of pending requests (its own
// plus whatever neighbours queued meanwhile) and scoring them back-to-back
// while the lock is dropped. Submitters whose request was picked up by
// another drainer block on the condition variable until their batch is
// marked done: the async completion path. Consequences:
//
//  * lanes >= workers: every submitter drains immediately — pass-through
//    with zero added latency, but back-to-back scoring of neighbour batches
//    (weight vector stays hot in cache) whenever arrivals collide.
//  * lanes == 1: models a single offload device (hwsim). Requests queue,
//    the single active drainer streams them through the device in arrival
//    order, submitters sleep until completion — exactly the accelerator's
//    fill/drain pipeline shape.
//
// Correctness: windows are scored independently (ScoringBackend
// contract), each request's scores land only in that request's batch, and a
// submitter does not return until its own batch is done — so per-stream
// results are byte-identical to calling the inner backend directly, at any
// stream count or interleaving. An exception thrown while scoring a batch
// (e.g. the "score.batch" fault site) is captured per-request and rethrown
// in the *owning* submitter, so it poisons only that stream's frame.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "src/score/backend.hpp"

namespace pdet::score {

/// Coalescing accounting across the hub's lifetime.
struct HubStats {
  long long requests = 0;        ///< submitted batches
  long long drains = 0;          ///< drain trips (>=1 request each)
  long long drained_batches = 0; ///< batches scored by drain trips
  long long max_coalesced = 0;   ///< most batches scored in one drain trip

  /// Mean batches per drain trip — >1 means cross-stream coalescing paid.
  double mean_coalesced() const {
    return drains > 0
               ? static_cast<double>(drained_batches) /
                     static_cast<double>(drains)
               : 0.0;
  }
};

class ScoreHub final : public ScoringBackend {
 public:
  /// `lanes` bounds concurrent drains of `inner` (1 = single device). The
  /// hub borrows `inner`; the caller keeps it alive. `max_pending` sizes the
  /// preallocated request ring (steady state allocates nothing); it must be
  /// at least the number of threads that may submit concurrently.
  ScoreHub(ScoringBackend& inner, std::size_t lanes, std::size_t max_pending);

  /// Reports the inner backend's kind: the hub is a routing layer, not a
  /// scoring implementation, and stats dimensions should say what scored.
  BackendKind kind() const override { return inner_.kind(); }

  /// Blocks until `batch` is scored (possibly by another submitter's drain
  /// trip). Rethrows any exception raised while scoring this batch.
  void score(const svm::LinearModel& model, ScoreBatch& batch) override;

  BackendStats stats() const override { return inner_.stats(); }

  HubStats hub_stats() const;

  std::size_t lanes() const { return lanes_; }

 private:
  struct Request {
    const svm::LinearModel* model = nullptr;
    ScoreBatch* batch = nullptr;
    bool done = false;
    std::exception_ptr error;
  };

  ScoringBackend& inner_;
  const std::size_t lanes_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Request> pending_;  ///< reserved ring; [head_, size) waiting
  std::size_t head_ = 0;          ///< first request not yet claimed
  std::size_t active_drains_ = 0;
  std::size_t outstanding_ = 0;   ///< submitters not yet returned
  HubStats stats_;
};

}  // namespace pdet::score
