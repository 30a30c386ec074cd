#include "rt/time.hpp"

#include <gtest/gtest.h>

namespace fppn {
namespace {

TEST(Time, DefaultIsOrigin) {
  EXPECT_EQ(Time(), Time::ms(0));
}

TEST(Time, AddSubtractDuration) {
  const Time t = Time::ms(100) + Duration::ms(50);
  EXPECT_EQ(t, Time::ms(150));
  EXPECT_EQ(t - Duration::ms(150), Time::ms(0));
}

TEST(Time, DifferenceIsDuration) {
  const Duration d = Time::ms(300) - Time::ms(100);
  EXPECT_EQ(d, Duration::ms(200));
  EXPECT_TRUE((Time::ms(100) - Time::ms(300)).is_negative());
}

TEST(Time, Ordering) {
  EXPECT_LT(Time::ms(1), Time::ms(2));
  EXPECT_GE(Time::ms(2), Time::ms(2));
}

TEST(Duration, RatioConstruction) {
  // The footnote-3 fractional server period: 200/3 ms.
  const Duration d = Duration::ratio_ms(200, 3);
  EXPECT_EQ(d * Rational(3), Duration::ms(200));
}

TEST(Duration, ScaleByRational) {
  EXPECT_EQ(Duration::ms(100) * Rational(3, 2), Duration::ms(150));
  EXPECT_EQ(Duration::ms(100) / Rational(4), Duration::ms(25));
}

TEST(Duration, DivisionOfDurationsIsExactRatio) {
  EXPECT_EQ(Duration::ms(700) / Duration::ms(200), Rational(7, 2));
}

TEST(Duration, LcmIsHyperperiod) {
  EXPECT_EQ(Duration::lcm(Duration::ms(100), Duration::ms(200)), Duration::ms(200));
  EXPECT_EQ(Duration::lcm(Duration::ms(200), Duration::ms(700)), Duration::ms(1400));
}

TEST(Duration, MinMax) {
  EXPECT_EQ(Duration::min(Duration::ms(3), Duration::ms(5)), Duration::ms(3));
  EXPECT_EQ(Duration::max(Duration::ms(3), Duration::ms(5)), Duration::ms(5));
}

TEST(Duration, SignPredicates) {
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE(Duration::ms(1).is_positive());
  EXPECT_TRUE(Duration::ms(-1).is_negative());
}

TEST(Duration, Accumulation) {
  Duration total;
  for (int i = 0; i < 14; ++i) {
    total += Duration::ratio_ms(40, 3);  // the FFT WCET
  }
  EXPECT_EQ(total, Duration::ratio_ms(560, 3));
  EXPECT_EQ((total / Duration::ms(200)).to_double(), 560.0 / 600.0);
}

TEST(Time, ToString) {
  EXPECT_EQ(Time::ms(200).to_string(), "200");
  EXPECT_EQ(Duration::ratio_ms(40, 3).to_string(), "40/3");
}

}  // namespace
}  // namespace fppn
