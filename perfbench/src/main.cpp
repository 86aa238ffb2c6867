// perfbench harness: one workload, one seed, one run.
//
//   pdet_perfbench --workload street_2scale --seed 7 --seconds 30 --trace 0
//                  <workload flags from perfbench/workloads.json>
//
// Untraced run (--trace 0): set-up (several times, median), then three
// rounds of open loop at the workload's fixed rate (latency) and closed loop
// (max_fps). Traced run
// (--trace 1): the open loop twice, the second with benchmark spans on, then
// the per-layer replay and probes. Prints one JSON object on stdout; progress
// and the host fingerprint go to stderr. Exit status: 0 ok, 1 failed frames
// or errors, 2 invalid run (generator lag or unsupported percentile).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// --- Numbers -----------------------------------------------------------------

/// Nearest-rank quantile, reported only when at least ten samples lie
/// beyond it.
struct Tail {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported = false;
};

Tail quantile(std::vector<double> xs, double q) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n), 1.0, n));
  t.value = xs[rank - 1];
  t.beyond = xs.size() - rank;
  t.supported = t.beyond >= 10;
  return t;
}

double median_of(const std::vector<double>& xs) {
  return quantile(xs, 0.5).value;
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct MetricOut {
  double value = 0.0;
  std::string unit;
  bool is_null = false;
  long long samples = -1;  ///< percentile metrics: sample count
  long long beyond = -1;   ///< percentile metrics: samples beyond it
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    MetricOut m;
    m.value = value;
    m.unit = unit;
    m.is_null = !std::isfinite(value);
    metrics_[name] = m;
  }
  /// A percentile: null (and an unsupported note) unless ten samples lie
  /// beyond it.
  void set_tail(const std::string& name, const Tail& t,
                const std::string& unit) {
    MetricOut m;
    m.value = t.value;
    m.unit = unit;
    m.is_null = !t.supported;
    m.samples = static_cast<long long>(t.samples);
    m.beyond = static_cast<long long>(t.beyond);
    metrics_[name] = m;
    if (!t.supported) unsupported_.push_back(name);
  }
  const std::map<std::string, MetricOut>& metrics() const { return metrics_; }
  const std::vector<std::string>& unsupported() const { return unsupported_; }

 private:
  std::map<std::string, MetricOut> metrics_;
  std::vector<std::string> unsupported_;
};

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// Process CPU time sampled once a second on its own thread while a phase
/// runs, so CPU per frame can be taken as a median over seconds: the host
/// has multi-second slow episodes that a whole-phase mean would absorb.
class CpuSampler {
 public:
  CpuSampler() : thread_([this] { loop(); }) {}
  ~CpuSampler() { stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Stop sampling; (timeline ns, CPU seconds) pairs, first and last
  /// bracketing the phase.
  std::vector<std::pair<std::uint64_t, double>> stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      samples_.emplace_back(now_ns(), cpu_seconds());
      if (cv_.wait_for(lock, std::chrono::seconds(1),
                       [this] { return stopping_; })) {
        samples_.emplace_back(now_ns(), cpu_seconds());
        return;
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::pair<std::uint64_t, double>> samples_;
  std::thread thread_;  ///< last: starts after the members it uses
};

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Phase analysis ----------------------------------------------------------

struct PhaseResult {
  long long sent = 0;
  long long ok = 0;
  long long mismatch = 0;
  long long dropped = 0;
  long long errors = 0;
  long long missed = 0;
  long long deadline_miss = 0;
  // Output quality over the distinct pool frames delivered kOk (each once,
  // however often the pool cycled).
  long long frames_judged = 0;
  long long truth = 0;
  long long matched = 0;
  long long false_positives = 0;
  std::uint64_t first_ns = ~0ull;
  std::uint64_t last_done_ns = 0;
  double service_sum_ms = 0.0;
  std::vector<std::uint64_t> done_ns;  ///< completion stamps of kOk frames
  std::vector<double> latency_ms;  ///< scheduled send -> detections in hand
  std::vector<double> lag_ms;      ///< actual - scheduled send
  std::vector<double> submit_us;   ///< the submit call itself
  std::vector<double> admit_us;    ///< service recv -> queue admit
  std::vector<double> queue_ms;    ///< queue admit -> schedule
  std::vector<double> service_ms;  ///< engine start -> end
  std::vector<double> reorder_ms;  ///< engine end -> deliver
  std::vector<double> residency_ms;  ///< service recv -> wire send
  std::vector<double> transit_ms;    ///< client latency - residency

  long long failed() const { return mismatch + dropped + errors + missed; }
  double wall_s() const {
    return last_done_ns > first_ns
               ? static_cast<double>(last_done_ns - first_ns) / 1e9
               : 0.0;
  }
};

/// Delivered frames per second: per closed-loop segment [start, end], the
/// rate of each run of ~1/4 of its completions; median over all of them (one
/// slow episode of the host moves one chunk, not the figure).
double chunked_rate(
    const std::vector<std::uint64_t>& done_ns,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& segments) {
  std::vector<double> rates;
  for (const auto& [start, end] : segments) {
    std::vector<std::uint64_t> done;
    for (const std::uint64_t t : done_ns) {
      if (t >= start && t <= end) done.push_back(t);
    }
    std::sort(done.begin(), done.end());
    const std::size_t k = std::max<std::size_t>(1, done.size() / 4);
    for (std::size_t i = 0; i + k < done.size(); i += k) {
      rates.push_back(static_cast<double>(k) * 1e9 /
                      static_cast<double>(done[i + k] - done[i]));
    }
  }
  return quantile(rates, 0.5).value;
}

/// CPU milliseconds per frame offered: per sampled second of an open-loop
/// segment, CPU time over the frames due in it (the schedule is fixed);
/// median over all seconds.
double cpu_ms_per_frame(
    const std::vector<std::vector<std::pair<std::uint64_t, double>>>& segments,
    double rate_fps) {
  std::vector<double> per_frame;
  for (const auto& samples : segments) {
    for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
      const double dt =
          static_cast<double>(samples[i + 1].first - samples[i].first) / 1e9;
      if (dt < 0.5) continue;  // the short tail after the segment
      per_frame.push_back((samples[i + 1].second - samples[i].second) * 1e3 /
                          (rate_fps * dt));
    }
  }
  return quantile(per_frame, 0.5).value;
}

double hop_ms(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

PhaseResult analyze(std::vector<RecordLog>& logs, const Pool& pool,
                    Phase phase, double limit_ms) {
  PhaseResult p;
  for (std::size_t s = 0; s < logs.size(); ++s) {
    RecordLog& log = logs[s];
    std::vector<bool> judged(static_cast<std::size_t>(pool.frames_per_stream()));
    for (std::size_t i = 0; i < log.size(); ++i) {
      FrameRecord& rec = log[i];
      if (rec.phase != phase) continue;
      if (rec.outcome == Outcome::kPending) rec.outcome = Outcome::kMissed;
      ++p.sent;
      const PoolFrame& f = pool.at(static_cast<int>(s), rec.pool);
      p.first_ns = std::min(p.first_ns, rec.scheduled_ns);
      p.lag_ms.push_back(hop_ms(rec.scheduled_ns, rec.sent_ns));
      if (rec.sent_end_ns >= rec.sent_ns) {
        p.submit_us.push_back(hop_ms(rec.sent_ns, rec.sent_end_ns) * 1e3);
      }
      switch (rec.outcome) {
        case Outcome::kOk: ++p.ok; break;
        case Outcome::kMismatch: ++p.mismatch; break;
        case Outcome::kDropped: ++p.dropped; break;
        case Outcome::kError: ++p.errors; break;
        default: ++p.missed; break;
      }
      if (rec.outcome != Outcome::kOk) {
        ++p.deadline_miss;  // a failed frame misses every deadline
        continue;
      }
      const double latency = hop_ms(rec.scheduled_ns, rec.done_ns);
      p.latency_ms.push_back(latency);
      p.done_ns.push_back(rec.done_ns);
      if (latency > limit_ms) ++p.deadline_miss;
      p.last_done_ns = std::max(p.last_done_ns, rec.done_ns);
      if (!judged[static_cast<std::size_t>(rec.pool)]) {
        judged[static_cast<std::size_t>(rec.pool)] = true;
        ++p.frames_judged;
        p.truth += static_cast<long long>(f.truth.size());
        p.matched += f.match.true_positives;
        p.false_positives += f.match.false_positives;
      }

      const pd::obs::FrameTimeline& t = rec.timing;
      if (t.service_recv_ns != 0 && t.queue_admit_ns >= t.service_recv_ns) {
        p.admit_us.push_back(hop_ms(t.service_recv_ns, t.queue_admit_ns) * 1e3);
      }
      if (t.queue_admit_ns != 0 && t.schedule_ns >= t.queue_admit_ns) {
        p.queue_ms.push_back(hop_ms(t.queue_admit_ns, t.schedule_ns));
      }
      if (t.engine_start_ns != 0 && t.engine_end_ns >= t.engine_start_ns) {
        const double service = hop_ms(t.engine_start_ns, t.engine_end_ns);
        p.service_ms.push_back(service);
        p.service_sum_ms += service;
      }
      if (t.engine_end_ns != 0 && t.deliver_ns >= t.engine_end_ns) {
        p.reorder_ms.push_back(hop_ms(t.engine_end_ns, t.deliver_ns));
      }
      if (t.service_recv_ns != 0 && t.wire_send_ns > t.service_recv_ns) {
        const double residency = hop_ms(t.service_recv_ns, t.wire_send_ns);
        p.residency_ms.push_back(residency);
        p.transit_ms.push_back(hop_ms(rec.sent_ns, rec.done_ns) - residency);
      }
    }
  }
  return p;
}

/// The program's own FrameTimeline hops, harvested into the trace as
/// children of each traced frame's root span.
void harvest_hops(std::vector<RecordLog>& logs) {
  Tracer& tracer = Tracer::instance();
  for (std::size_t s = 0; s < logs.size(); ++s) {
    for (std::size_t i = 0; i < logs[s].size(); ++i) {
      const FrameRecord& rec = logs[s][i];
      if (rec.phase != kOpenTraced || rec.root_span == 0) continue;
      const std::uint64_t frame =
          (static_cast<std::uint64_t>(s + 1) << 32) | i;
      const std::uint64_t end = std::max(rec.done_ns, rec.sent_end_ns);
      tracer.add("frame", rec.scheduled_ns, end, 0, frame, rec.root_span);
      const pd::obs::FrameTimeline& t = rec.timing;
      const auto hop = [&](const char* name, std::uint64_t a,
                           std::uint64_t b) {
        if (a != 0 && b >= a) tracer.add(name, a, b, rec.root_span, frame);
      };
      hop("net.ingress", t.client_encode_ns, t.service_recv_ns);
      hop("guard.gate", t.service_recv_ns, t.gate_ns);
      hop("runtime.queue_wait", t.queue_admit_ns, t.schedule_ns);
      hop("runtime.engine", t.engine_start_ns, t.engine_end_ns);
      hop("runtime.reorder", t.engine_end_ns, t.deliver_ns);
      hop("net.egress", t.deliver_ns, t.wire_send_ns);
      hop("net.return", t.wire_send_ns, t.client_decode_ns);
    }
  }
}

// --- Command line ------------------------------------------------------------

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_json(const Workload& w, const RunOptions& run,
                const std::string& commit, const Report& report,
                const std::map<std::string, long long>& counts, bool valid,
                const std::string& invalid_reason) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  const bool optimized = build == "Release" || build == "RelWithDebInfo" ||
                         build == "MinSizeRel";
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,"
              "\"trace\":%d,\"smoke\":%s,\"valid\":%s,\"invalid_reason\":\"%s\",",
              json_escape(w.name).c_str(),
              static_cast<unsigned long long>(run.seed), run.seconds,
              run.trace ? 1 : 0, run.smoke ? "true" : "false",
              valid ? "true" : "false", json_escape(invalid_reason).c_str());
  std::printf("\"host\":{\"cpu\":\"%s\",\"nproc\":%u,\"avx2\":%s,"
              "\"compiler\":\"%s\",\"build_type\":\"%s\",\"optimized\":%s,"
              "\"commit\":\"%s\"},",
              json_escape(cpu_model()).c_str(),
              std::thread::hardware_concurrency(),
              has_avx2() ? "true" : "false",
              json_escape(PERFBENCH_COMPILER).c_str(),
              json_escape(build).c_str(), optimized ? "true" : "false",
              json_escape(commit).c_str());
  std::printf("\"counts\":{");
  bool first = true;
  for (const auto& [name, value] : counts) {
    std::printf("%s\"%s\":%lld", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("},\"metrics\":{");
  first = true;
  for (const auto& [name, m] : report.metrics()) {
    std::printf("%s\"%s\":{", first ? "" : ",", name.c_str());
    if (m.is_null) {
      std::printf("\"value\":null");
    } else {
      std::printf("\"value\":%.17g", m.value);
    }
    std::printf(",\"unit\":\"%s\"", m.unit.c_str());
    if (m.samples >= 0) {
      std::printf(",\"samples\":%lld,\"beyond\":%lld", m.samples, m.beyond);
    }
    std::printf("}");
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_main(int argc, char** argv) {
  pd::util::Cli cli("pdet_perfbench",
                    "serving-stack benchmark: one workload, one seed");
  cli.add_string("workload", "", "workload name (labels the output)");
  cli.add_string("seed", "1", "input seed (frames are rendered from it)");
  cli.add_double("seconds", 10.0, "measured seconds");
  cli.add_int("trace", 0, "1 = traced run (per-layer metrics)");
  cli.add_flag("smoke", "a few frames per phase, for the self-test");
  cli.add_string("trace-out", "", "Chrome trace file (traced run)");
  cli.add_string("commit", "unknown", "source commit (fingerprint)");
  cli.add_double("lag-limit-ms", 5.0, "generator lag p90 validity bound");
  cli.add_string("transport", "inproc", "inproc | fleet");
  cli.add_int("streams", 1, "cameras");
  cli.add_int("shards", 1, "DetectionService shards (fleet)");
  cli.add_int("workers", 1, "engine workers per server");
  cli.add_int("engine-threads", 1, "pyramid-level lanes per engine");
  cli.add_int("guard", 0, "1 = input-integrity gate on");
  cli.add_int("width", 640, "frame width (px)");
  cli.add_int("height", 480, "frame height (px)");
  cli.add_double("camera-height-m", 1.4, "camera height (m)");
  cli.add_double("min-distance-m", 8.0, "pedestrian band near edge (m)");
  cli.add_double("max-distance-m", 28.0, "pedestrian band far edge (m)");
  cli.add_int("pool-frames", 8, "distinct frames per camera");
  cli.add_string("scales", "1,2", "pyramid scale ladder");
  cli.add_string("backend", "scalar", "scoring backend: scalar | batch");
  cli.add_double("rate-fps", 10.0, "open-loop offered rate, all cameras");
  cli.add_double("latency-limit-ms", 100.0, "deadline (deadline_miss_frac)");
  cli.add_int("window", 4, "closed-loop frames in flight per generator");
  cli.add_int("warmup-frames", 4, "warm-up frames per camera per set-up");
  if (!cli.parse(argc, argv)) return 1;

  Workload w;
  w.name = cli.get_string("workload");
  w.fleet = cli.get_string("transport") == "fleet";
  w.streams = cli.get_int("streams");
  w.shards = cli.get_int("shards");
  w.workers = cli.get_int("workers");
  w.engine_threads = cli.get_int("engine-threads");
  w.guard = cli.get_int("guard") != 0;
  w.width = cli.get_int("width");
  w.height = cli.get_int("height");
  w.camera_height_m = cli.get_double("camera-height-m");
  w.min_distance_m = cli.get_double("min-distance-m");
  w.max_distance_m = cli.get_double("max-distance-m");
  w.pool_frames = cli.get_int("pool-frames");
  w.scales = parse_list(cli.get_string("scales"));
  w.rate_fps = cli.get_double("rate-fps");
  w.latency_limit_ms = cli.get_double("latency-limit-ms");
  w.window = cli.get_int("window");
  w.warmup_frames = cli.get_int("warmup-frames");
  if (!pd::score::parse_backend(cli.get_string("backend"), w.backend) ||
      w.backend == pd::score::BackendKind::kAuto ||
      w.backend == pd::score::BackendKind::kHwsim) {
    std::fprintf(stderr, "backend must be pinned: scalar | batch\n");
    return 1;
  }
  RunOptions run;
  run.seed = std::stoull(cli.get_string("seed"));
  run.seconds = cli.get_double("seconds");
  run.trace = cli.get_int("trace") != 0;
  run.smoke = cli.get_flag("smoke");
  run.lag_limit_ms = cli.get_double("lag-limit-ms");
  run.trace_out = cli.get_string("trace-out");
  if (run.smoke) {
    w.pool_frames = 2;
    w.warmup_frames = 1;
  }
  if (w.streams < 1 || w.workers < 1 || w.scales.empty() ||
      w.rate_fps <= 0.0 || w.window < 1 || w.pool_frames < 1 ||
      (!w.fleet && static_cast<std::size_t>(w.window) > queue_capacity(w))) {
    std::fprintf(stderr, "invalid workload configuration\n");
    return 1;
  }
  pd::util::set_default_log_level(pd::util::LogLevel::kError);

  // Inputs: model and frames, neither timed.
  std::fprintf(stderr, "[perfbench] %s seed %llu: training, rendering\n",
               w.name.c_str(), static_cast<unsigned long long>(run.seed));
  const Model model = train_model();
  const Pool pool = build_pool(w, model, run.seed, w.pool_frames);

  // Set-up, several times; the last stack serves.
  std::vector<double> setup_s;
  std::unique_ptr<ServingStack> stack;
  const int setup_reps = run.smoke ? 1 : kSetupReps;
  for (int r = 0; r < setup_reps; ++r) {
    stack.reset();
    const std::uint64_t t0 = now_ns();
    stack = make_stack(w, model, pool);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Report report;
  std::map<std::string, long long> counts;
  const double R = run.seconds;
  const double limit = w.latency_limit_ms;
  std::vector<RecordLog>& logs = stack->logs();
  std::fprintf(stderr, "[perfbench] serving\n");

  std::vector<std::vector<std::pair<std::uint64_t, double>>> cpu_samples;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> closed_segments;
  if (!run.trace) {
    // Open and closed loops alternate, so every figure samples the host
    // across the whole run rather than in one contiguous block.
    for (int round = 0; round < kRounds; ++round) {
      CpuSampler sampler;
      stack->open_loop(0.7 * R / kRounds, kOpen);
      cpu_samples.push_back(sampler.stop());
      const std::uint64_t start = now_ns();
      stack->closed_loop(0.3 * R / kRounds, kClosed);
      closed_segments.emplace_back(start, now_ns());
    }
  } else {
    stack->open_loop(0.35 * R, kOpen);
    Tracer::instance().set_enabled(true);
    stack->open_loop(0.35 * R, kOpenTraced);
  }
  const StackStats served = stack->stats();
  stack->stop();
  const PhaseResult open = analyze(logs, pool, kOpen, limit);
  const PhaseResult traced = analyze(logs, pool, kOpenTraced, limit);
  const PhaseResult closed = analyze(logs, pool, kClosed, limit);

  long long attempted = open.sent + traced.sent + closed.sent;
  long long failed = open.failed() + traced.failed() + closed.failed();
  std::vector<double> lag_ms = open.lag_ms;
  lag_ms.insert(lag_ms.end(), traced.lag_ms.begin(), traced.lag_ms.end());
  const Tail lag = quantile(lag_ms, 0.9);

  // End-to-end metrics (untraced run) -- printed in both modes.
  report.set("setup_s", median_of(setup_s), "s");
  report.set("e2e.deadline_miss_frac",
             ratio(static_cast<double>(open.deadline_miss),
                   static_cast<double>(open.sent)),
             "ratio");
  report.set("e2e.failed_frac",
             ratio(static_cast<double>(open.failed() + closed.failed()),
                   static_cast<double>(open.sent + closed.sent)),
             "ratio");
  report.set("e2e.fp_per_frame",
             ratio(static_cast<double>(open.false_positives),
                   static_cast<double>(open.frames_judged)),
             "boxes/frame");
  report.set_tail("latency_p50_ms", quantile(open.latency_ms, 0.5), "ms");
  // The tail over every open-loop frame of the run. Unbounded: on a host
  // with slow states it swings far more than the median does.
  std::vector<double> all_latency_ms = open.latency_ms;
  all_latency_ms.insert(all_latency_ms.end(), traced.latency_ms.begin(),
                        traced.latency_ms.end());
  report.set_tail("e2e.latency_p90_ms", quantile(all_latency_ms, 0.9), "ms");
  if (!run.trace) {
    report.set("max_fps", chunked_rate(closed.done_ns, closed_segments),
               "frames/s");
    report.set("recall",
               ratio(static_cast<double>(open.matched),
                     static_cast<double>(open.truth)),
               "ratio");
    report.set("cpu_ms_per_frame", cpu_ms_per_frame(cpu_samples, w.rate_fps),
               "ms");
  }

  if (run.trace) {
    // Per-layer metrics: serving hops from both open loops (identical load),
    // stage calls from the replay, wire/router/tile from the probes.
    harvest_hops(logs);
    PhaseResult hops = open;
    const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(hops.submit_us, traced.submit_us);
    append(hops.admit_us, traced.admit_us);
    append(hops.queue_ms, traced.queue_ms);
    append(hops.service_ms, traced.service_ms);
    append(hops.reorder_ms, traced.reorder_ms);
    append(hops.residency_ms, traced.residency_ms);
    append(hops.transit_ms, traced.transit_ms);

    const double probe_budget = run.smoke ? 0.2 : 0.1 * R;
    std::fprintf(stderr, "[perfbench] replaying stages\n");
    const StageLedger st = replay_stages(w, model, pool,
                                         run.smoke ? 0.2 : 0.15 * R);
    const TileLedger tl = probe_tiles(model, run.seed, run.smoke);
    const NetLedger nl = probe_net(w, model, pool, probe_budget);
    attempted += st.frames + tl.frames + 2 * nl.frames;
    failed += st.mismatches + tl.mismatches + nl.failures;
    counts["replay_mismatches"] = st.mismatches;
    counts["tile_mismatches"] = tl.mismatches;
    counts["probe_failures"] = nl.failures;

    report.set("imgproc.gradient_ms", st.gradient_ms, "ms");
    const double vote = st.cell_grid_ms - st.gradient_ms;
    report.set("hog.cell_grid_ms", st.cell_grid_ms, "ms");
    report.set("hog.cell_grid_ms_per_mpix", ratio(st.cell_grid_ms, st.megapixels),
               "ms/Mpx");
    report.set("hog.vote_ms", vote, "ms");
    report.set("hog.normalize_ms", st.normalize_ms, "ms");
    report.set("hog.downscale_ms", st.downscale_ms, "ms");
    report.set("hog.vote_over_downscale",
               ratio(vote, st.downscale_ms /
                               std::max(1, st.downscaled_levels)),
               "ratio");
    report.set("score.scan_ms", st.scan_ms, "ms");
    report.set("score.windows_per_frame", st.windows, "windows");
    report.set("score.ns_per_window", ratio(st.scan_ms * 1e6, st.windows), "ns");
    report.set("score.batch_fill", served.score_fill, "ratio");
    report.set("detect.levels", st.levels, "count");
    report.set("detect.process_ms", st.process_ms, "ms");
    report.set("detect.nms_ms", st.nms_ms, "ms");
    report.set("detect.raw_per_frame", st.raw, "boxes");
    const double pyramid_downscale = st.downscale_probe ? 0.0 : st.downscale_ms;
    report.set("detect.unaccounted_ms",
               st.process_ms - (st.cell_grid_ms + pyramid_downscale +
                                st.normalize_ms + st.scan_ms + st.nms_ms),
               "ms");
    report.set("detect.workspace_bytes",
               static_cast<double>(st.workspace_bytes), "bytes");
    report.set("detect.lane_gain", ratio(st.process_ms, st.process_lanes_ms),
               "ratio");

    // Means: over the wire the server hops arrive as whole microseconds, so
    // a median of a few-us hop would read the same on every run.
    report.set("runtime.submit_us",
               mean_of(w.fleet ? hops.admit_us : hops.submit_us), "us");
    report.set_tail("runtime.queue_wait_p50_ms", quantile(hops.queue_ms, 0.5),
                    "ms");
    report.set_tail("runtime.queue_wait_p90_ms", quantile(hops.queue_ms, 0.9),
                    "ms");
    report.set_tail("runtime.service_p50_ms", quantile(hops.service_ms, 0.5),
                    "ms");
    report.set_tail("runtime.service_p90_ms", quantile(hops.service_ms, 0.9),
                    "ms");
    report.set("runtime.reorder_wait_ms", mean_of(hops.reorder_ms), "ms");
    report.set("runtime.busy_frac",
               ratio((open.service_sum_ms + traced.service_sum_ms) / 1e3,
                     served.engine_workers * (open.wall_s() + traced.wall_s())),
               "ratio");
    report.set("runtime.dropped", static_cast<double>(served.runtime_dropped),
               "count");
    report.set("runtime.errors", static_cast<double>(served.runtime_errors),
               "count");

    const double service_p50 = median_of(hops.service_ms);
    report.set("guard.inspect_us", st.inspect_us, "us");
    report.set("guard.gate_share", ratio(st.inspect_us / 1e3, service_p50),
               "ratio");
    report.set("guard.false_verdicts",
               static_cast<double>(served.guard_verdicts + st.guard_verdicts),
               "count");

    report.set("tile.process_ms", tl.tiled_ms, "ms");
    report.set("tile.pixel_overhead", tl.pixel_overhead, "ratio");
    report.set("tile.window_overhead", tl.window_overhead, "ratio");
    report.set("tile.lane_gain", ratio(tl.untiled_ms, tl.tiled_ms), "ratio");

    // Wire numbers: under load for the fleet workload, else from the probe.
    const StackStats& wire = w.fleet ? served : nl.stats;
    report.set("net.client_submit_us", median_of(wire.client_submit_us), "us");
    report.set("net.encode_us", st.encode_us, "us");
    report.set("net.decode_us", st.decode_us, "us");
    report.set("net.bytes_per_frame", st.wire_bytes, "bytes");
    report.set("net.residency_p50_ms",
               median_of(w.fleet ? hops.residency_ms : nl.residency_ms), "ms");
    report.set("net.transit_p50_ms",
               median_of(w.fleet ? hops.transit_ms : nl.transit_ms), "ms");
    report.set("net.results_missed", static_cast<double>(wire.results_missed),
               "count");
    report.set("net.protocol_errors", static_cast<double>(wire.protocol_errors),
               "count");
    report.set("net.reconnects", static_cast<double>(wire.reconnects), "count");
    report.set("fleet.hop_p50_ms",
               median_of(nl.routed_ms) - median_of(nl.direct_ms), "ms");
    report.set("fleet.frames_shed", static_cast<double>(wire.frames_shed),
               "count");
    report.set("fleet.duplicates_suppressed",
               static_cast<double>(wire.duplicates_suppressed), "count");
    report.set("fleet.bytes_per_frame", wire.fleet_bytes_per_frame, "bytes");

    report.set_tail("gen.lag_p90_ms", lag, "ms");
    const Tail traced_p50 = quantile(traced.latency_ms, 0.5);
    report.set("trace.latency_p50_ms", traced_p50.value, "ms");
    report.set("trace.overhead_p50",
               ratio(traced_p50.value, median_of(open.latency_ms)) - 1.0,
               "ratio");
    report.set("trace.spans", static_cast<double>(Tracer::instance().size()),
               "count");
    if (!run.trace_out.empty() &&
        !Tracer::instance().write_chrome(run.trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", run.trace_out.c_str());
      ++failed;
    }
  }
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");

  counts["attempted"] = attempted;
  counts["failed"] = failed;
  counts["sent"] = open.sent + traced.sent + closed.sent;
  counts["ok"] = open.ok + traced.ok + closed.ok;
  counts["mismatch"] = open.mismatch + traced.mismatch + closed.mismatch;
  counts["dropped"] = open.dropped + traced.dropped + closed.dropped;
  counts["errors"] = open.errors + traced.errors + closed.errors;
  counts["missed"] = open.missed + traced.missed + closed.missed;

  bool valid = true;
  std::string why;
  if (lag.samples > 0 && lag.value > run.lag_limit_ms) {
    valid = false;
    why = "generator lag p90 above the benchmark's bound";
  }
  if (!run.smoke && !report.unsupported().empty()) {
    valid = false;
    why = "too few samples for percentile " + report.unsupported().front();
  }
  print_json(w, run, cli.get_string("commit"), report, counts, valid, why);
  if (failed > 0) return 1;
  return valid ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
