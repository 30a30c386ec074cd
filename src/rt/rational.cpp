#include "rt/rational.hpp"

#include <cmath>
#include <ostream>

namespace fppn {
namespace {

// Overflow-checked primitives. Model time values stay small (milliseconds
// over a few hyperperiods) but hyperperiod LCMs of adversarial inputs can
// blow up; fail loudly instead of wrapping.
std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw RationalError("rational arithmetic overflow in multiplication");
  }
  return out;
}

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    throw RationalError("rational arithmetic overflow in addition");
  }
  return out;
}

std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    throw RationalError("rational arithmetic overflow in subtraction");
  }
  return out;
}

// INT64_MIN has no int64 negation.
std::int64_t checked_neg(std::int64_t a) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(std::int64_t{0}, a, &out)) {
    throw RationalError("rational arithmetic overflow in negation");
  }
  return out;
}

// gcd(|a|, b) for b > 0. std::gcd negates a negative argument, which is
// undefined for INT64_MIN; the unsigned magnitude is not. The result
// divides b, so it fits.
std::int64_t gcd_with_positive(std::int64_t a, std::int64_t b) {
  const std::uint64_t magnitude =
      a < 0 ? 0 - static_cast<std::uint64_t>(a) : static_cast<std::uint64_t>(a);
  return static_cast<std::int64_t>(std::gcd(magnitude, static_cast<std::uint64_t>(b)));
}

}  // namespace

void Rational::throw_overflow(const char* operation) {
  throw RationalError(std::string("rational arithmetic overflow in ") + operation);
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  if (den_ == 0) {
    throw RationalError("rational with zero denominator");
  }
  normalize();
}

void Rational::normalize() {
  if (den_ < 0) {
    num_ = checked_neg(num_);
    den_ = checked_neg(den_);
  }
  const std::int64_t g = gcd_with_positive(num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

double Rational::to_double() const noexcept {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::to_string() const {
  if (den_ == 1) {
    return std::to_string(num_);
  }
  return std::to_string(num_) + "/" + std::to_string(den_);
}

// Subtracts directly rather than adding -rhs, so the difference stays
// exact when rhs's numerator is INT64_MIN.
Rational& Rational::add_general(const Rational& rhs, bool subtract) {
  // Reduce before cross-multiplying to delay overflow: use den gcd.
  const std::int64_t g = std::gcd(den_, rhs.den_);
  const std::int64_t lhs_scale = rhs.den_ / g;
  const std::int64_t rhs_scale = den_ / g;
  const std::int64_t lhs_num = checked_mul(num_, lhs_scale);
  const std::int64_t rhs_num = checked_mul(rhs.num_, rhs_scale);
  num_ = subtract ? checked_sub(lhs_num, rhs_num) : checked_add(lhs_num, rhs_num);
  den_ = checked_mul(den_, lhs_scale);
  normalize();
  return *this;
}

Rational& Rational::mul_general(const Rational& rhs) {
  // Cross-reduce first so intermediate products stay small.
  const std::int64_t g1 = gcd_with_positive(num_, rhs.den_);
  const std::int64_t g2 = gcd_with_positive(rhs.num_, den_);
  num_ = checked_mul(num_ / g1, rhs.num_ / g2);
  den_ = checked_mul(den_ / g2, rhs.den_ / g1);
  normalize();
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  if (rhs.num_ == 0) {
    throw RationalError("rational division by zero");
  }
  return *this *= Rational(rhs.den_, rhs.num_);
}

bool Rational::less_general(const Rational& lhs, const Rational& rhs) {
  // lhs.num/lhs.den < rhs.num/rhs.den with positive denominators. Cross
  // products can exceed 64 bits even for canonical values (coprime
  // denominators get no gcd relief), and ordering is used to *rank*
  // results — e.g. makespan tie-breaking in the schedule search — so it
  // must stay total instead of throwing at the int64 overflow guard.
  // 128-bit intermediates make the comparison exact for every value.
  const __int128 a = static_cast<__int128>(lhs.num_) * rhs.den_;
  const __int128 b = static_cast<__int128>(rhs.num_) * lhs.den_;
  return a < b;
}

std::int64_t Rational::floor() const noexcept {
  if (num_ >= 0 || num_ % den_ == 0) {
    return num_ / den_;
  }
  return num_ / den_ - 1;
}

std::int64_t Rational::ceil() const noexcept {
  if (num_ <= 0 || num_ % den_ == 0) {
    return num_ / den_;
  }
  return num_ / den_ + 1;
}

std::int64_t Rational::floor_div(const Rational& a, const Rational& b) {
  if (!b.is_positive()) {
    throw RationalError("floor_div requires a positive divisor");
  }
  return (a / b).floor();
}

Rational Rational::lcm(const Rational& a, const Rational& b) {
  if (!a.is_positive() || !b.is_positive()) {
    throw RationalError("rational lcm requires positive operands");
  }
  const std::int64_t g = std::gcd(a.num_, b.num_);
  const std::int64_t n = checked_mul(a.num_ / g, b.num_);
  const std::int64_t d = std::gcd(a.den_, b.den_);
  return {n, d};
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

}  // namespace fppn
