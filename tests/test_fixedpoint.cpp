// Unit tests for src/fixedpoint: CORDIC and CSD shift-add.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/fixedpoint/cordic.hpp"
#include "src/fixedpoint/shiftadd.hpp"

namespace pdet::fixedpoint {
namespace {

struct CordicCase {
  double fx;
  double fy;
};

class CordicTest : public testing::TestWithParam<CordicCase> {};

TEST_P(CordicTest, MatchesLibm) {
  const Cordic cordic(14);
  const auto [fx, fy] = GetParam();
  const CordicResult r = cordic.vectoring(fx, fy);
  const double mag = std::hypot(fx, fy);
  double angle = std::atan2(fy, fx);
  constexpr double kPi = std::numbers::pi;
  angle = std::fmod(angle, kPi);
  if (angle < 0) angle += kPi;
  if (angle >= kPi) angle -= kPi;
  EXPECT_NEAR(r.magnitude, mag, std::max(1e-3, mag * 2e-3));
  // Angle comparison must respect the wrap at pi (0 and pi are the same
  // unsigned orientation).
  const double diff = std::min(std::fabs(r.angle - angle),
                               kPi - std::fabs(r.angle - angle));
  EXPECT_LT(diff, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Directions, CordicTest,
    testing::Values(CordicCase{1, 0}, CordicCase{0, 1}, CordicCase{-1, 0},
                    CordicCase{0, -1}, CordicCase{1, 1}, CordicCase{-1, 1},
                    CordicCase{1, -1}, CordicCase{-3, -4}, CordicCase{255, 1},
                    CordicCase{1, 255}, CordicCase{-200, 130},
                    CordicCase{0.01, 0.02}, CordicCase{100, 0.5}));

TEST(Cordic, ZeroVector) {
  const Cordic cordic;
  const CordicResult r = cordic.vectoring(0.0, 0.0);
  EXPECT_DOUBLE_EQ(r.magnitude, 0.0);
  EXPECT_DOUBLE_EQ(r.angle, 0.0);
}

TEST(Cordic, AngleErrorShrinksWithIterations) {
  const Cordic coarse(6);
  const Cordic fine(16);
  EXPECT_GT(coarse.angle_error_bound(), fine.angle_error_bound());
  // Measured error must respect the bound on a dense sweep.
  constexpr double kPi = std::numbers::pi;
  for (int k = 1; k < 60; ++k) {
    const double theta = k * kPi / 60.0;
    const auto r = fine.vectoring(std::cos(theta), std::sin(theta));
    const double diff = std::min(std::fabs(r.angle - theta),
                                 kPi - std::fabs(r.angle - theta));
    EXPECT_LT(diff, fine.angle_error_bound() + 1e-4) << "theta=" << theta;
  }
}

TEST(Cordic, UnsignedOrientationIdentifiesOppositeVectors) {
  const Cordic cordic(12);
  const auto a = cordic.vectoring(3.0, 2.0);
  const auto b = cordic.vectoring(-3.0, -2.0);
  EXPECT_NEAR(a.angle, b.angle, 1e-9);
  EXPECT_NEAR(a.magnitude, b.magnitude, 1e-9);
}

TEST(Csd, EncodesZeroAsEmpty) {
  EXPECT_TRUE(csd_encode(0).empty());
}

class CsdValueTest : public testing::TestWithParam<std::int64_t> {};

TEST_P(CsdValueTest, ReconstructsValue) {
  const std::int64_t v = GetParam();
  const auto terms = csd_encode(v);
  std::int64_t sum = 0;
  for (const auto& t : terms) {
    sum += static_cast<std::int64_t>(t.sign) * (std::int64_t{1} << t.shift);
  }
  EXPECT_EQ(sum, v);
}

TEST_P(CsdValueTest, NoAdjacentNonzeroDigits) {
  const auto terms = csd_encode(GetParam());
  for (std::size_t i = 1; i < terms.size(); ++i) {
    EXPECT_GE(terms[i].shift - terms[i - 1].shift, 2)
        << "CSD canonical form violated";
  }
}

TEST_P(CsdValueTest, AtMostCeilHalfBitsDigits) {
  const std::int64_t v = GetParam();
  const auto terms = csd_encode(v);
  int bits = 0;
  while ((v >> bits) != 0) ++bits;
  EXPECT_LE(static_cast<int>(terms.size()), bits / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(Values, CsdValueTest,
                         testing::Values<std::int64_t>(1, 2, 3, 7, 15, 23, 85,
                                                       170, 255, 256, 257, 1023,
                                                       12345, 65535, 1000000));

TEST(ShiftAdd, ApplyMatchesMultiplication) {
  for (const double coeff : {0.0, 0.25, 0.3, 0.5, 0.7, 0.99, 1.0, 1.5, 3.99}) {
    const ShiftAddConstant c(coeff, 8);
    for (const std::int64_t v : {0LL, 1LL, 7LL, 100LL, -100LL, 12345LL}) {
      const std::int64_t raw =
          static_cast<std::int64_t>(std::llround(coeff * 256.0));
      EXPECT_EQ(c.apply_scaled(v), v * raw) << "coeff=" << coeff << " v=" << v;
    }
  }
}

TEST(ShiftAdd, QuantizedValueWithinHalfLsb) {
  for (const double coeff : {0.1, 0.33, 0.66, 1.2, 2.7}) {
    const ShiftAddConstant c(coeff, 10);
    EXPECT_NEAR(c.quantized(), coeff, 0.5 / 1024.0 + 1e-12);
  }
}

TEST(ShiftAdd, ApplyRoundsBackToValueDomain) {
  const ShiftAddConstant half(0.5, 8);
  EXPECT_EQ(half.apply(10), 5);
  EXPECT_EQ(half.apply(-10), -5);
  const ShiftAddConstant x1(1.0, 8);
  EXPECT_EQ(x1.apply(123), 123);
}

TEST(ShiftAdd, AdderCountIsCsdDigitCount) {
  const ShiftAddConstant c(0.75, 4);  // 12 = +16 -4 in CSD => 2 digits
  EXPECT_EQ(c.adder_count(), 2);
  const ShiftAddConstant one(1.0, 8);  // 256 = one digit
  EXPECT_EQ(one.adder_count(), 1);
}

TEST(ShiftAdd, BilinearPairConservesSum) {
  // A bilinear scaler uses (1-w, w) pairs; their CSD forms must sum to ~1 so
  // constant feature fields stay constant through the hardware scaler.
  for (double w = 0.0; w <= 1.0; w += 0.125) {
    const ShiftAddConstant a(1.0 - w, 8);
    const ShiftAddConstant b(w, 8);
    const std::int64_t v = 1000;
    EXPECT_NEAR(static_cast<double>(a.apply_scaled(v) + b.apply_scaled(v)),
                1000.0 * 256.0, 1.0);
  }
}

}  // namespace
}  // namespace pdet::fixedpoint
