// Unit tests for src/util: RNG, strings, tables, CLI, statistics, the byte
// codec and both copies of its CRC-32 kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "src/util/bytes.hpp"
#include "src/util/cli.hpp"
#include "src/util/fifo.hpp"
#include "src/util/logging.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd.hpp"
#include "src/util/stats.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

namespace pdet::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 6));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.contains(3));
  EXPECT_TRUE(seen.contains(6));
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.03);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.06);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.06);
}

TEST(Rng, ChanceProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(23);
  Rng child = parent.split();
  // Child stream should not replay the parent's output.
  Rng parent2(23);
  parent2.split();
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleChangesOrderEventually) {
  Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  const auto original = v;
  shuffle(v, rng);
  EXPECT_NE(v, original);
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("pdet-svm", "pdet"));
  EXPECT_FALSE(starts_with("pd", "pdet"));
  EXPECT_TRUE(ends_with("model.txt", ".txt"));
  EXPECT_FALSE(ends_with("txt", "model.txt"));
}

TEST(Strings, FormatAndFixed) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(to_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(to_fixed(-0.5, 0), "-0");  // printf rounding of -0.5 to 0 decimals
}

TEST(Strings, ParseIntValid) {
  int v = 0;
  EXPECT_TRUE(parse_int(" 42 ", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", v));
  EXPECT_EQ(v, -7);
}

TEST(Strings, ParseIntInvalid) {
  int v = 99;
  EXPECT_FALSE(parse_int("4x", v));
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("1.5", v));
  EXPECT_EQ(v, 99);
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("2.5e-3", v));
  EXPECT_DOUBLE_EQ(v, 2.5e-3);
  EXPECT_FALSE(parse_double("abc", v));
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha  1"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, WriteCsvRoundtrip) {
  Table t({"k", "v"});
  t.add_row({"x", "1"});
  const std::string path = testing::TempDir() + "/pdet_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  (void)std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_STREQ(buf, "k,v\nx,1\n");
}

TEST(Cli, ParsesTypedOptions) {
  Cli cli("prog", "test");
  cli.add_int("count", 5, "a count");
  cli.add_double("ratio", 1.5, "a ratio");
  cli.add_string("mode", "fast", "a mode");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--count", "9", "--ratio=2.25", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("count"), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 2.25);
  EXPECT_EQ(cli.get_string("mode"), "fast");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, DefaultsSurviveNoArgs) {
  Cli cli("prog", "test");
  cli.add_int("n", 3, "n");
  cli.add_flag("f", "f");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 3);
  EXPECT_FALSE(cli.get_flag("f"));
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, RejectsBadInteger) {
  Cli cli("prog", "test");
  cli.add_int("n", 0, "n");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, RejectsMissingValue) {
  Cli cli("prog", "test");
  cli.add_int("n", 0, "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, UsageListsOptions) {
  Cli cli("prog", "my tool");
  cli.add_int("n", 4, "number of things");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--n"), std::string::npos);
  EXPECT_NE(u.find("number of things"), std::string::npos);
  EXPECT_NE(u.find("default: 4"), std::string::npos);
}

TEST(Stats, MeanVarianceStddev) {
  const std::array<double, 4> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
}

TEST(Stats, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  const std::array<double, 1> one{5.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Stats, MinMax) {
  const std::array<double, 3> xs{3, -1, 2};
  EXPECT_DOUBLE_EQ(min_of(xs), -1);
  EXPECT_DOUBLE_EQ(max_of(xs), 3);
}

TEST(Stats, PercentileInterpolates) {
  const std::array<double, 5> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(median(xs), 30);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::array<double, 4> xs{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, CorrelationSigns) {
  const std::array<double, 4> xs{1, 2, 3, 4};
  const std::array<double, 4> up{2, 4, 6, 8};
  const std::array<double, 4> down{8, 6, 4, 2};
  EXPECT_NEAR(correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(xs, down), -1.0, 1e-12);
}

TEST(Stats, CorrelationConstantSideIsZero) {
  const std::array<double, 3> xs{1, 2, 3};
  const std::array<double, 3> c{5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(xs, c), 0.0);
}

TEST(Stats, AccumulatorMatchesBatch) {
  Rng rng(9);
  std::vector<double> xs;
  Accumulator acc;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3, 7);
    xs.push_back(x);
    acc.add(x);
  }
  EXPECT_NEAR(acc.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(acc.variance(), variance(xs), 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(acc.max(), max_of(xs));
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(Stats, StreamingQuantileExactForSmallSamples) {
  StreamingQuantile q(0.5);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);
  for (const double x : {30.0, 10.0, 50.0, 20.0, 40.0}) q.add(x);
  EXPECT_EQ(q.count(), 5u);
  // Five samples or fewer: exact linear-interpolated percentile.
  const std::array<double, 5> xs{30, 10, 50, 20, 40};
  EXPECT_DOUBLE_EQ(q.value(), percentile(xs, 50));
}

TEST(Stats, StreamingQuantileTracksUniformStream) {
  StreamingQuantile p50(0.5);
  StreamingQuantile p95(0.95);
  Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0.0, 100.0);
    xs.push_back(x);
    p50.add(x);
    p95.add(x);
  }
  EXPECT_NEAR(p50.value(), percentile(xs, 50), 2.0);
  EXPECT_NEAR(p95.value(), percentile(xs, 95), 2.0);
}

TEST(Stats, StreamingPercentilesShareOneStream) {
  StreamingPercentiles ps({50.0, 95.0, 99.0});
  for (int i = 1; i <= 1000; ++i) ps.add(static_cast<double>(i));
  EXPECT_EQ(ps.count(), 1000u);
  ASSERT_EQ(ps.percentiles().size(), 3u);
  EXPECT_NEAR(ps.value(0), 500.0, 20.0);
  EXPECT_NEAR(ps.value(1), 950.0, 20.0);
  EXPECT_NEAR(ps.value(2), 990.0, 20.0);
  // Estimates stay ordered like the percentiles they track.
  EXPECT_LE(ps.value(0), ps.value(1));
  EXPECT_LE(ps.value(1), ps.value(2));
}

TEST(Logging, LevelNamesRoundTripThroughParse) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                               LogLevel::kWarn, LogLevel::kError}) {
    const auto parsed = parse_log_level(to_string(level));
    ASSERT_TRUE(parsed.has_value()) << to_string(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_log_level("chatty").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
  EXPECT_FALSE(parse_log_level("WARN").has_value());  // case-sensitive
}

TEST(Logging, UptimeIsMonotonicNonNegative) {
  const double a = log_uptime_seconds();
  const double b = log_uptime_seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Logging, LevelNamesAndThreshold) {
  EXPECT_EQ(to_string(LogLevel::kDebug), "debug");
  EXPECT_EQ(to_string(LogLevel::kError), "error");
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Suppressed and emitted calls must both be safe to make.
  log_info("suppressed %d", 1);
  log_error("emitted %s", "x");
  set_log_level(saved);
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.milliseconds(), 0.0);
}

namespace {
struct CountCtx {
  std::vector<std::atomic<int>> hits;
};
void count_task(void* ctx, int index) {
  auto& c = *static_cast<CountCtx*>(ctx);
  c.hits[static_cast<std::size_t>(index)].fetch_add(1,
                                                    std::memory_order_relaxed);
}
}  // namespace

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr int kCount = 1000;
  CountCtx ctx{std::vector<std::atomic<int>>(kCount)};
  pool.parallel_for(kCount, count_task, &ctx);
  for (const std::atomic<int>& h : ctx.hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  CountCtx ctx{std::vector<std::atomic<int>>(16)};
  pool.parallel_for(16, count_task, &ctx);
  for (const std::atomic<int>& h : ctx.hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NonPositiveCountIsANoop) {
  ThreadPool pool(2);
  CountCtx ctx{std::vector<std::atomic<int>>(4)};
  pool.parallel_for(0, count_task, &ctx);
  pool.parallel_for(-3, count_task, &ctx);
  for (const std::atomic<int>& h : ctx.hits) EXPECT_EQ(h.load(), 0);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  CountCtx ctx{std::vector<std::atomic<int>>(64)};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(64, count_task, &ctx);
  }
  for (const std::atomic<int>& h : ctx.hits) EXPECT_EQ(h.load(), 50);
}

TEST(ThreadPool, ConcurrentProducersSerializeSafely) {
  // Multiple threads submitting jobs to one shared pool (the runtime-server
  // pattern: several workers sharing engine lanes). Jobs serialize through
  // the submission lock; every producer's every index must still run exactly
  // once, with each call blocking until its own job is done.
  ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kJobsEach = 25;
  constexpr int kCount = 64;
  CountCtx ctx{std::vector<std::atomic<int>>(kCount)};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int job = 0; job < kJobsEach; ++job) {
        pool.parallel_for(kCount, count_task, &ctx);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (const std::atomic<int>& h : ctx.hits) {
    EXPECT_EQ(h.load(), kProducers * kJobsEach);
  }
}

TEST(ThreadPool, ConstructDestructWithoutWork) {
  // Shutdown must be exception-free and not hang even if no job ever ran.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    (void)pool;
  }
}

namespace {
/// Counts every invocation, throws on indices below `throw_below` — the
/// containment tests' probe for "did the job still drain fully".
struct FaultyCtx {
  std::vector<std::atomic<int>> hits;
  int throw_below = 0;
};
void faulty_task(void* ctx, int index) {
  auto& c = *static_cast<FaultyCtx*>(ctx);
  c.hits[static_cast<std::size_t>(index)].fetch_add(
      1, std::memory_order_relaxed);
  if (index < c.throw_below) throw std::runtime_error("injected task fault");
}
}  // namespace

TEST(ThreadPool, ThrowingTaskIsContainedAndRethrownToCaller) {
  // A throwing task must not kill a worker thread (that would
  // std::terminate): the job drains every index, the first exception
  // resurfaces on the calling thread, and the pool stays usable.
  ThreadPool pool(4);
  constexpr int kCount = 200;
  FaultyCtx ctx{std::vector<std::atomic<int>>(kCount), /*throw_below=*/3};
  EXPECT_THROW(pool.parallel_for(kCount, faulty_task, &ctx),
               std::runtime_error);
  for (const std::atomic<int>& h : ctx.hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.task_faults(), 3);

  // The pool survives for the next (clean) job, and a clean job does not
  // rethrow a stale exception from the previous one.
  CountCtx clean{std::vector<std::atomic<int>>(64)};
  pool.parallel_for(64, count_task, &clean);
  for (const std::atomic<int>& h : clean.hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.task_faults(), 3);  // unchanged
}

TEST(ThreadPool, InlinePathContainsExceptionsIdentically) {
  // threads == 1 runs the loop inline on the caller; the containment
  // semantics (drain all indices, rethrow first, survive) must match the
  // pooled path exactly.
  ThreadPool pool(1);
  FaultyCtx ctx{std::vector<std::atomic<int>>(16), /*throw_below=*/2};
  EXPECT_THROW(pool.parallel_for(16, faulty_task, &ctx), std::runtime_error);
  for (const std::atomic<int>& h : ctx.hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.task_faults(), 2);
  CountCtx clean{std::vector<std::atomic<int>>(8)};
  pool.parallel_for(8, count_task, &clean);
  for (const std::atomic<int>& h : clean.hits) EXPECT_EQ(h.load(), 1);
}

TEST(Bytes, Crc32KnownVector) {
  // The canonical IEEE check value: crc32("123456789") == 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Bytes, Crc32SeedChains) {
  const std::uint8_t all[] = {1, 2, 3, 4, 5, 6, 7};
  const std::span<const std::uint8_t> whole(all);
  const std::uint32_t split =
      crc32(whole.subspan(3), crc32(whole.first(3)));
  EXPECT_EQ(split, crc32(whole));
}

// The polynomial one bit at a time: no table, no fold.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<simd::Isa> crc_copies() {
  // The AVX2 copy is skipped on hosts whose CPUID lacks it.
  std::vector<simd::Isa> isas{simd::Isa::kBaseline};
  if (simd::supported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  return isas;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Crc32Kernels, EveryLengthAndOffsetMatchesTheBitwiseReference) {
  // Lengths 0-1024 cover the table-only inputs under 64 bytes, every
  // 16-byte tail and many 64-byte fold counts; offsets 0-15 every
  // misalignment of the 16-byte loads.
  const std::vector<std::uint8_t> buf = random_bytes(1024 + 15, 7);
  Rng rng(8);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const std::uint32_t want = crc32_bitwise(data, seed);
      for (const simd::Isa isa : crc_copies()) {
        ASSERT_EQ(crc_kernels().at(isa).crc32(data, seed), want)
            << simd::to_string(isa) << " offset " << offset << " length "
            << len;
      }
    }
  }
}

TEST(Crc32Kernels, FrameSizedBuffersMatchTheBitwiseReference) {
  // A roi_fleet SubmitFrame (81,952 bytes) and an odd-length 640x480 one.
  for (const std::size_t n : {std::size_t{81952}, std::size_t{1228817}}) {
    const std::vector<std::uint8_t> buf = random_bytes(n, n);
    const std::uint32_t want = crc32_bitwise(buf, 0);
    for (const simd::Isa isa : crc_copies()) {
      EXPECT_EQ(crc_kernels().at(isa).crc32(buf, 0), want)
          << simd::to_string(isa) << " length " << n;
    }
  }
}

TEST(Crc32Kernels, RandomSplitsChainThroughSeed) {
  const std::vector<std::uint8_t> buf = random_bytes(81952, 9);
  const std::span<const std::uint8_t> whole(buf);
  const std::uint32_t want = crc32_bitwise(whole, 0);
  Rng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    // One to four random cut points; equal cuts make empty pieces.
    std::vector<std::size_t> cuts{0, whole.size()};
    const int extra = rng.uniform_int(1, 4);
    for (int i = 0; i < extra; ++i) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(whole.size()))));
    }
    std::sort(cuts.begin(), cuts.end());
    for (const simd::Isa isa : crc_copies()) {
      std::uint32_t c = 0;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        c = crc_kernels().at(isa).crc32(
            whole.subspan(cuts[i], cuts[i + 1] - cuts[i]), c);
      }
      ASSERT_EQ(c, want) << simd::to_string(isa) << " trial " << trial;
    }
  }
}

TEST(Bytes, WriterReaderRoundtrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f32(3.25f);
  w.f64(-0.0078125);
  w.str("pedestrian");
  const std::array<float, 3> fs{1.0f, -2.5f, 0.125f};
  w.f32_array(fs);
  EXPECT_EQ(w.written(), buf.size());

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64(), -0.0078125);
  std::string s;
  ASSERT_TRUE(r.str(s));
  EXPECT_EQ(s, "pedestrian");
  std::array<float, 3> back{};
  ASSERT_TRUE(r.f32_array(back));
  EXPECT_EQ(back, fs);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, LittleEndianLayout) {
  // The wire format is LE by definition, not by host accident.
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u32(0x11223344);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(Bytes, ReaderUnderflowIsStickyAndZeroValued) {
  const std::uint8_t two[] = {7, 9};
  ByteReader r{std::span<const std::uint8_t>(two)};
  EXPECT_EQ(r.u32(), 0u);  // 4 > 2: fails
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.u8(), 0u);  // sticky: even in-bounds reads fail now
  EXPECT_FALSE(r.exhausted());
}

TEST(Bytes, ReaderStrRejectsOversizedLength) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.str("abcdef");
  std::string out = "untouched";
  ByteReader r(buf);
  EXPECT_FALSE(r.str(out, 3));  // declared length 6 > max_len 3
  EXPECT_EQ(out, "untouched");
  EXPECT_FALSE(r.ok());

  // Truncated payload: length says 6 but only 2 bytes follow.
  ByteReader t(std::span<const std::uint8_t>(buf.data(), 6));
  EXPECT_FALSE(t.str(out));
  EXPECT_EQ(out, "untouched");
}

TEST(Bytes, PatchU32RewritesInPlace) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const std::size_t at = w.offset();
  w.u32(0);  // placeholder
  w.u16(0x5555);
  w.patch_u32(at, 0xCAFEBABE);
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u16(), 0x5555);
}

TEST(Bytes, WriterAppendsWithoutClearing) {
  std::vector<std::uint8_t> buf = {0xFF};
  ByteWriter w(buf);
  w.u8(1);
  EXPECT_EQ(w.written(), 1u);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0xFF);  // pre-existing content untouched
}

TEST(Fifo, WrapsAroundAndKeepsOrderAcrossGrowth) {
  Fifo<int> fifo(4);
  // Wrap-around at a fixed capacity: the head walks past the end.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) fifo.push(next_in++);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(fifo.pop(), next_out++);
  }
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), 4u);

  // Growth from a wrapped state (head mid-ring) keeps FIFO order.
  fifo.push(next_in++);
  fifo.push(next_in++);
  EXPECT_EQ(fifo.pop(), next_out++);
  for (int i = 0; i < 37; ++i) fifo.push(next_in++);
  EXPECT_EQ(fifo.size(), 38u);
  EXPECT_GE(fifo.capacity(), 38u);
  EXPECT_EQ(fifo.front(), next_out);
  while (!fifo.empty()) EXPECT_EQ(fifo.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);

  // reset() empties and resizes.
  fifo.push(1);
  fifo.reset(2);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), 2u);
}

}  // namespace
}  // namespace pdet::util
