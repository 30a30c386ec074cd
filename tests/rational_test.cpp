#include "rt/rational.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

#include "gen/rng.hpp"

namespace fppn {
namespace {

TEST(Rational, DefaultIsZero) {
  const Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, NormalizesNegativeDenominator) {
  const Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
  EXPECT_TRUE(r.is_negative());
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), RationalError);
}

TEST(Rational, ImplicitFromInteger) {
  const Rational r = 7;
  EXPECT_TRUE(r.is_integer());
  EXPECT_EQ(r, Rational(7, 1));
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) + Rational(-1, 2), Rational(0));
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(3, 4) - Rational(1, 4), Rational(1, 2));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_THROW(Rational(1) / Rational(0), RationalError);
}

TEST(Rational, ComparisonIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(34, 100));
  EXPECT_GT(Rational(2, 3), Rational(66, 100));
  EXPECT_LT(Rational(-1, 2), Rational(1, 2));
}

TEST(Rational, ComparisonNeverThrowsNearInt64Overflow) {
  // Ordering is used to *rank* (schedule makespans, hyperperiods), so it
  // must stay total where the arithmetic operators throw: cross products
  // of canonical values with coprime denominators can exceed 64 bits.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  const Rational a(huge - 1, 3);
  const Rational b(huge - 2, 2);
  EXPECT_LT(a, b);  // (huge-1)/3 < (huge-2)/2, exactly
  EXPECT_GT(b, a);
  EXPECT_LT(Rational(-huge, 3), Rational(huge, 2));
  EXPECT_LT(Rational(huge - 1, 2), Rational(huge, 2));
  EXPECT_FALSE(Rational(huge, 2) < Rational(huge, 2));
  // The same values still overflow loudly under addition — the guard is
  // about arithmetic wrapping, not ordering.
  EXPECT_THROW((void)(a + b), RationalError);
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, FloorDiv) {
  EXPECT_EQ(Rational::floor_div(Rational(7), Rational(2)), 3);
  EXPECT_EQ(Rational::floor_div(Rational(700), Rational(200)), 3);
  EXPECT_EQ(Rational::floor_div(Rational(1, 2), Rational(1, 3)), 1);
  EXPECT_THROW((void)Rational::floor_div(Rational(1), Rational(0)), RationalError);
  EXPECT_THROW((void)Rational::floor_div(Rational(1), Rational(-1)), RationalError);
}

TEST(Rational, LcmOfIntegers) {
  // The hyperperiod operator on whole-millisecond periods.
  EXPECT_EQ(Rational::lcm(Rational(200), Rational(700)), Rational(1400));
  EXPECT_EQ(Rational::lcm(Rational(200), Rational(5000)), Rational(5000));
}

TEST(Rational, LcmOfFractions) {
  // Footnote 4: lcm over rationals. lcm(1/2, 1/3) = 1; lcm(3/4, 1/2) = 3/2.
  EXPECT_EQ(Rational::lcm(Rational(1, 2), Rational(1, 3)), Rational(1));
  EXPECT_EQ(Rational::lcm(Rational(3, 4), Rational(1, 2)), Rational(3, 2));
}

TEST(Rational, LcmRequiresPositive) {
  EXPECT_THROW((void)Rational::lcm(Rational(0), Rational(1)), RationalError);
  EXPECT_THROW((void)Rational::lcm(Rational(-1), Rational(1)), RationalError);
}

TEST(Rational, FmsHyperperiods) {
  // The exact hyperperiods of §V-B: original 40 s, reduced 10 s.
  const Rational original = Rational::lcm(
      Rational::lcm(Rational(200), Rational(5000)),
      Rational::lcm(Rational(1600), Rational(1000)));
  EXPECT_EQ(original, Rational(40000));
  const Rational reduced = Rational::lcm(
      Rational::lcm(Rational(200), Rational(5000)),
      Rational::lcm(Rational(400), Rational(1000)));
  EXPECT_EQ(reduced, Rational(10000));
}

TEST(Rational, ToStringAndDouble) {
  EXPECT_EQ(Rational(7, 3).to_string(), "7/3");
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

TEST(Rational, HashEqualValuesCollide) {
  const std::hash<Rational> h;
  EXPECT_EQ(h(Rational(2, 4)), h(Rational(1, 2)));
  std::unordered_set<Rational> set{Rational(1, 2), Rational(2, 4), Rational(3)};
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rational, OverflowDetected) {
  const Rational big(std::int64_t{1} << 62);
  EXPECT_THROW(big * big, RationalError);
  EXPECT_THROW(big + big, RationalError);
}

// The integer fast path and the general path report an overflow with
// the same text.
TEST(Rational, FastAndGeneralPathsThrowTheSameText) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto what = [](const auto& op) -> std::string {
    try {
      (void)op();
    } catch (const RationalError& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(what([&] { return Rational(kMax) + Rational(1); }),
            "rational arithmetic overflow in addition");
  EXPECT_EQ(what([&] { return Rational(kMax, 3) + Rational(kMax, 3); }),
            "rational arithmetic overflow in addition");
  EXPECT_EQ(what([&] { return Rational(-kMax) - Rational(2); }),
            "rational arithmetic overflow in subtraction");
  EXPECT_EQ(what([&] { return Rational(-kMax, 3) - Rational(kMax, 3); }),
            "rational arithmetic overflow in subtraction");
  EXPECT_EQ(what([&] { return Rational(kMax) * Rational(2); }),
            "rational arithmetic overflow in multiplication");
  EXPECT_EQ(what([&] { return Rational(kMax, 3) * Rational(2, 5); }),
            "rational arithmetic overflow in multiplication");
}

// -INT64_MIN does not fit in int64: every negation throws instead of
// wrapping (signed overflow is undefined behaviour).
TEST(Rational, NegatingInt64MinThrows) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // A negative denominator is normalized by negating both fields.
  EXPECT_THROW(Rational(1, kMin), RationalError);
  EXPECT_THROW(Rational(kMin, -1), RationalError);
  EXPECT_EQ(Rational(kMin, 2), Rational(kMin / 2));
  EXPECT_EQ(Rational(-1, kMin + 1), Rational(1, kMax));
  // Division inverts the divisor, so it negates a negative one.
  EXPECT_THROW((void)(Rational(1) / Rational(kMin)), RationalError);
  try {
    (void)Rational(1, kMin);
    ADD_FAILURE() << "no throw";
  } catch (const RationalError& e) {
    EXPECT_STREQ(e.what(), "rational arithmetic overflow in negation");
  }
}

// Subtraction is exact where the difference fits, even when the
// subtrahend's numerator is INT64_MIN (it is not computed as a + (-b)).
TEST(Rational, SubtractingInt64MinIsExact) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Rational(-1) - Rational(kMin), Rational(kMax));
  EXPECT_EQ(Rational(kMin) - Rational(kMin), Rational(0));
  EXPECT_EQ(Rational(-1, 3) - Rational(kMin, 3), Rational(kMax, 3));
  EXPECT_THROW((void)(Rational(0) - Rational(kMin)), RationalError);
}

// Property: on seeded pairs, including values within a few units of
// +-2^63 and of the +-2^31/2^32 multiplication edge, +, -, * and < agree
// with a 128-bit oracle. Integer pairs throw RationalError exactly when
// the result leaves int64. Pairs with one integral and one fractional
// operand take the general path: a result that leaves int64 throws, and
// any result returned is exact — only an intermediate cross product that
// leaves int64 may make it throw early.
class Oracle {
 public:
  /// Reduced num/den of an exact 128-bit fraction (den != 0).
  Oracle(__int128 num, __int128 den) {
    if (den < 0) {
      num = -num;
      den = -den;
    }
    const __int128 g = gcd(num < 0 ? -num : num, den);
    num_ = num / g;
    den_ = den / g;
  }

  [[nodiscard]] bool fits() const {
    constexpr __int128 kMin = std::numeric_limits<std::int64_t>::min();
    constexpr __int128 kMax = std::numeric_limits<std::int64_t>::max();
    return num_ >= kMin && num_ <= kMax && den_ <= kMax;
  }

  [[nodiscard]] bool equals(const Rational& r) const {
    return r.num() == num_ && r.den() == den_;
  }

 private:
  static __int128 gcd(__int128 a, __int128 b) {
    while (b != 0) {
      const __int128 t = a % b;
      a = b;
      b = t;
    }
    return a == 0 ? 1 : a;
  }

  __int128 num_;
  __int128 den_;
};

std::int64_t draw_near_edges(gen::Rng& rng) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t off = rng.range(0, 64);
  switch (rng.range(0, 6)) {
    case 0:
      return rng.range(-1000, 1000);
    case 1:
      return kMax - off;
    case 2:
      return kMin + off;
    case 3:
      return (rng.chance(1, 2) ? 1 : -1) * ((std::int64_t{1} << 31) + off - 32);
    case 4:
      return (rng.chance(1, 2) ? 1 : -1) * ((std::int64_t{1} << 32) + off - 32);
    case 5:
      return rng.range(1 - (std::int64_t{1} << 62), (std::int64_t{1} << 62) - 1);
    default:
      return static_cast<std::int64_t>(rng.next());
  }
}

enum class Throws : bool { kOnlyWhenResultOverflows, kAlsoOnIntermediates };

template <typename Op>
void expect_matches_oracle(const Rational& a, const Rational& b, const Op& op,
                           const Oracle& expected, const char* name, Throws throws) {
  if (expected.fits()) {
    try {
      const Rational got = op(a, b);
      EXPECT_TRUE(expected.equals(got)) << a << " " << name << " " << b << " = " << got;
    } catch (const RationalError& e) {
      if (throws == Throws::kOnlyWhenResultOverflows) {
        ADD_FAILURE() << a << " " << name << " " << b << " threw: " << e.what();
      }
    }
  } else {
    EXPECT_THROW((void)op(a, b), RationalError) << a << " " << name << " " << b;
  }
}

void check_pair(const Rational& a, const Rational& b, Throws throws) {
  const __int128 an = a.num();
  const __int128 ad = a.den();
  const __int128 bn = b.num();
  const __int128 bd = b.den();
  expect_matches_oracle(
      a, b, [](Rational x, const Rational& y) { return x += y; },
      Oracle(an * bd + bn * ad, ad * bd), "+", throws);
  expect_matches_oracle(
      a, b, [](Rational x, const Rational& y) { return x -= y; },
      Oracle(an * bd - bn * ad, ad * bd), "-", throws);
  expect_matches_oracle(
      a, b, [](Rational x, const Rational& y) { return x *= y; },
      Oracle(an * bn, ad * bd), "*", throws);
  EXPECT_EQ(a < b, an * bd < bn * ad) << a << " < " << b;
  EXPECT_EQ(b < a, bn * ad < an * bd) << b << " < " << a;
}

TEST(Rational, IntegerPairsMatchInt128Oracle) {
  gen::Rng rng(0x5eed1234);
  for (int i = 0; i < 20000; ++i) {
    check_pair(Rational(draw_near_edges(rng)), Rational(draw_near_edges(rng)),
               Throws::kOnlyWhenResultOverflows);
  }
}

TEST(Rational, MixedIntegerAndFractionStayExact) {
  gen::Rng rng(0xfac7);
  for (int i = 0; i < 20000; ++i) {
    const Rational integer(draw_near_edges(rng));
    const Rational fraction(draw_near_edges(rng), rng.range(2, 1000));
    check_pair(integer, fraction, Throws::kAlsoOnIntermediates);
    check_pair(fraction, integer, Throws::kAlsoOnIntermediates);
  }
}

}  // namespace
}  // namespace fppn
