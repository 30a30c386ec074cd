// Exact rational arithmetic for real-time instants and durations.
//
// The paper (Def. 3.1 and footnote 4) requires periods T_p in Q+ and a
// hyperperiod computed as the least common multiple of *rational* numbers.
// The fractional-server-period fallback (footnote 3) additionally divides
// periods by small integers, so floating point time would accumulate error
// exactly where schedule boundaries must match. All model time in this
// library is therefore an exact Rational of two 64-bit integers, always
// stored in canonical form (normalized sign, coprime numerator/denominator).
//
// Most model time is integral (every FMS period, WCET and sporadic stamp
// is a whole number of milliseconds), so +=, -=, *= and < inline a
// gcd-free path for two integers: one overflow-checked int64 operation
// giving the same canonical value and the same RationalError as the
// general path, which stays out of line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fppn {

/// Thrown on division by zero or overflow in rational arithmetic.
class RationalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An exact rational number num/den with den > 0 and gcd(|num|, den) == 1.
class Rational {
 public:
  /// Value 0/1.
  constexpr Rational() noexcept : num_(0), den_(1) {}

  /// Integer value n/1 (implicit: integers are exact rationals).
  constexpr Rational(std::int64_t n) noexcept : num_(n), den_(1) {}  // NOLINT

  /// Value num/den, normalized. Throws RationalError if den == 0, or if
  /// den < 0 and either argument is INT64_MIN (the sign fix negates both).
  Rational(std::int64_t num, std::int64_t den);

  [[nodiscard]] constexpr std::int64_t num() const noexcept { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const noexcept { return den_; }

  [[nodiscard]] constexpr bool is_integer() const noexcept { return den_ == 1; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return num_ == 0; }
  [[nodiscard]] constexpr bool is_positive() const noexcept { return num_ > 0; }
  [[nodiscard]] constexpr bool is_negative() const noexcept { return num_ < 0; }

  /// Best double approximation; for reporting only, never for comparisons.
  [[nodiscard]] double to_double() const noexcept;

  /// "7/3" or "5" when the denominator is 1.
  [[nodiscard]] std::string to_string() const;

  /// Throw RationalError when the exact result leaves int64 and, for
  /// operands that are not both integers, when a cross product does.
  Rational& operator+=(const Rational& rhs) {
    if (den_ == 1 && rhs.den_ == 1) {
      std::int64_t out = 0;
      if (__builtin_add_overflow(num_, rhs.num_, &out)) {
        throw_overflow("addition");
      }
      num_ = out;
      return *this;
    }
    return add_general(rhs, false);
  }
  Rational& operator-=(const Rational& rhs) {
    if (den_ == 1 && rhs.den_ == 1) {
      std::int64_t out = 0;
      if (__builtin_sub_overflow(num_, rhs.num_, &out)) {
        throw_overflow("subtraction");
      }
      num_ = out;
      return *this;
    }
    return add_general(rhs, true);
  }
  Rational& operator*=(const Rational& rhs) {
    if (den_ == 1 && rhs.den_ == 1) {
      std::int64_t out = 0;
      if (__builtin_mul_overflow(num_, rhs.num_, &out)) {
        throw_overflow("multiplication");
      }
      num_ = out;
      return *this;
    }
    return mul_general(rhs);
  }
  /// Throws RationalError when rhs == 0.
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  // Canonical form makes equality a field-wise comparison.
  friend constexpr bool operator==(const Rational& a, const Rational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend constexpr bool operator!=(const Rational& a, const Rational& b) noexcept {
    return !(a == b);
  }
  /// Exact total order. Compares via 128-bit cross products, so — unlike
  /// the arithmetic operators — it never throws, even when the operands
  /// sit at the int64 overflow guard.
  friend bool operator<(const Rational& lhs, const Rational& rhs) {
    if (lhs.den_ == 1 && rhs.den_ == 1) {
      return lhs.num_ < rhs.num_;
    }
    return less_general(lhs, rhs);
  }
  friend bool operator>(const Rational& a, const Rational& b) { return b < a; }
  friend bool operator<=(const Rational& a, const Rational& b) { return !(b < a); }
  friend bool operator>=(const Rational& a, const Rational& b) { return !(a < b); }

  /// Largest integer <= value.
  [[nodiscard]] std::int64_t floor() const noexcept;
  /// Smallest integer >= value.
  [[nodiscard]] std::int64_t ceil() const noexcept;

  /// Exact quotient floor(a/b) for b > 0; used for job index -> burst window.
  [[nodiscard]] static std::int64_t floor_div(const Rational& a, const Rational& b);

  /// lcm of two positive rationals: lcm(a_n/a_d, b_n/b_d) =
  /// lcm(a_n, b_n) / gcd(a_d, b_d). This is the hyperperiod operator
  /// (footnote 4 of the paper). Throws RationalError if either is <= 0.
  [[nodiscard]] static Rational lcm(const Rational& a, const Rational& b);

 private:
  /// Throws RationalError when den_ < 0 and either field is INT64_MIN.
  void normalize();

  [[noreturn]] static void throw_overflow(const char* operation);
  /// *this + rhs, or *this - rhs when `subtract`.
  Rational& add_general(const Rational& rhs, bool subtract);
  Rational& mul_general(const Rational& rhs);
  static bool less_general(const Rational& lhs, const Rational& rhs);

  std::int64_t num_;
  std::int64_t den_;  // invariant: den_ > 0, gcd(|num_|, den_) == 1
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace fppn

template <>
struct std::hash<fppn::Rational> {
  std::size_t operator()(const fppn::Rational& r) const noexcept {
    const std::size_t h1 = std::hash<std::int64_t>{}(r.num());
    const std::size_t h2 = std::hash<std::int64_t>{}(r.den());
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};
