// Randomized algebraic stress for Rational against a __int128 reference:
// field axioms, exact ordering, floor/ceil/gcd/lcm identities — the time
// arithmetic everything else stands on.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "rt/rational.hpp"

namespace fppn {
namespace {

/// Exact comparison of a Rational to num/den in 128-bit (den > 0).
bool equals(const Rational& r, __int128 num, __int128 den) {
  return static_cast<__int128>(r.num()) * den ==
         num * static_cast<__int128>(r.den());
}

struct Raw {
  std::int64_t num;
  std::int64_t den;  // > 0
};

Raw draw(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::int64_t> num_dist(-100000, 100000);
  std::uniform_int_distribution<std::int64_t> den_dist(1, 5000);
  return Raw{num_dist(rng), den_dist(rng)};
}

class RationalStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RationalStress, ArithmeticMatches128BitReference) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const Raw a = draw(rng);
    const Raw b = draw(rng);
    const Rational ra(a.num, a.den);
    const Rational rb(b.num, b.den);

    // a + b = (a.n*b.d + b.n*a.d) / (a.d*b.d)
    EXPECT_TRUE(equals(ra + rb,
                       static_cast<__int128>(a.num) * b.den +
                           static_cast<__int128>(b.num) * a.den,
                       static_cast<__int128>(a.den) * b.den));
    EXPECT_TRUE(equals(ra - rb,
                       static_cast<__int128>(a.num) * b.den -
                           static_cast<__int128>(b.num) * a.den,
                       static_cast<__int128>(a.den) * b.den));
    EXPECT_TRUE(equals(ra * rb, static_cast<__int128>(a.num) * b.num,
                       static_cast<__int128>(a.den) * b.den));
    if (b.num != 0) {
      const __int128 num = static_cast<__int128>(a.num) * b.den;
      const __int128 den = static_cast<__int128>(a.den) * b.num;
      EXPECT_TRUE(equals(ra / rb, den < 0 ? -num : num, den < 0 ? -den : den));
    }
    // Ordering agrees with cross multiplication.
    const __int128 lhs = static_cast<__int128>(a.num) * b.den;
    const __int128 rhs = static_cast<__int128>(b.num) * a.den;
    EXPECT_EQ(ra < rb, lhs < rhs);
    EXPECT_EQ(ra == rb, lhs == rhs);
  }
}

TEST_P(RationalStress, FieldAxiomsSampled) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  for (int i = 0; i < 200; ++i) {
    const Raw a = draw(rng);
    const Raw b = draw(rng);
    const Raw c = draw(rng);
    const Rational ra(a.num, a.den);
    const Rational rb(b.num, b.den);
    const Rational rc(c.num, c.den);
    EXPECT_EQ(ra + rb, rb + ra);
    EXPECT_EQ((ra + rb) + rc, ra + (rb + rc));
    EXPECT_EQ(ra * (rb + rc), ra * rb + ra * rc);
    EXPECT_EQ(ra + Rational(0), ra);
    EXPECT_EQ(ra * Rational(1), ra);
    EXPECT_EQ(ra + Rational(-a.num, a.den), Rational(0));  // additive inverse
    if (!ra.is_zero()) {
      EXPECT_EQ(ra / ra, Rational(1));
    }
  }
}

TEST_P(RationalStress, FloorCeilIdentities) {
  std::mt19937_64 rng(GetParam() * 97 + 3);
  for (int i = 0; i < 300; ++i) {
    const Raw a = draw(rng);
    const Rational r(a.num, a.den);
    const std::int64_t f = r.floor();
    const std::int64_t c = r.ceil();
    EXPECT_LE(Rational(f), r);
    EXPECT_LT(r, Rational(f + 1));
    EXPECT_GE(Rational(c), r);
    EXPECT_GT(r, Rational(c - 1));
    EXPECT_TRUE(c == f || c == f + 1);
    EXPECT_EQ(c == f, r.is_integer());
    EXPECT_EQ((Rational(0) - r).floor(), -c);  // floor(-x) == -ceil(x)
  }
}

TEST_P(RationalStress, GcdLcmIdentities) {
  std::mt19937_64 rng(GetParam() * 11 + 1);
  std::uniform_int_distribution<std::int64_t> pos(1, 3000);
  for (int i = 0; i < 300; ++i) {
    const Rational a(pos(rng), pos(rng));
    const Rational b(pos(rng), pos(rng));
    // gcd(a_n/a_d, b_n/b_d) = gcd(a_n, b_n) / lcm(a_d, b_d).
    const Rational g(std::gcd(a.num(), b.num()), std::lcm(a.den(), b.den()));
    const Rational l = Rational::lcm(a, b);
    // gcd divides both; both divide lcm (division yields integers).
    EXPECT_TRUE((a / g).is_integer()) << a << " " << b;
    EXPECT_TRUE((b / g).is_integer());
    EXPECT_TRUE((l / a).is_integer());
    EXPECT_TRUE((l / b).is_integer());
    // gcd * lcm == a * b (up to sign; all positive here).
    EXPECT_EQ(g * l, a * b);
    // lcm is the hyperperiod: idempotent and commutative.
    EXPECT_EQ(Rational::lcm(a, b), Rational::lcm(b, a));
    EXPECT_EQ(Rational::lcm(a, a), a);
  }
}

TEST_P(RationalStress, FloorDivMatchesReference) {
  std::mt19937_64 rng(GetParam() * 13 + 5);
  std::uniform_int_distribution<std::int64_t> pos(1, 3000);
  for (int i = 0; i < 300; ++i) {
    const Raw a = draw(rng);
    const Rational ra(a.num, a.den);
    const Rational rb(pos(rng), pos(rng));
    const std::int64_t q = Rational::floor_div(ra, rb);
    EXPECT_LE(rb * Rational(q), ra);
    EXPECT_GT(rb * Rational(q + 1), ra);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalStress,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fppn
