// Strong time types over exact rationals.
//
// Time is an absolute instant on the model time line (milliseconds by
// convention throughout this library, matching the paper's figures);
// Duration is a signed span. Keeping them distinct catches the classic
// "added two absolute deadlines" class of bug at compile time.
#pragma once

#include <iosfwd>
#include <string>

#include "rt/rational.hpp"

namespace fppn {

class Duration;

/// Absolute model-time instant, in milliseconds.
class Time {
 public:
  constexpr Time() noexcept = default;
  explicit Time(Rational value) : value_(std::move(value)) {}

  /// Convenience: integral milliseconds.
  static Time ms(std::int64_t v) { return Time(Rational(v)); }

  [[nodiscard]] const Rational& value() const noexcept { return value_; }
  [[nodiscard]] double to_double_ms() const noexcept { return value_.to_double(); }
  [[nodiscard]] std::string to_string() const { return value_.to_string(); }

  friend bool operator==(const Time& a, const Time& b) noexcept {
    return a.value_ == b.value_;
  }
  friend bool operator!=(const Time& a, const Time& b) noexcept { return !(a == b); }
  friend bool operator<(const Time& a, const Time& b) { return a.value_ < b.value_; }
  friend bool operator>(const Time& a, const Time& b) { return b < a; }
  friend bool operator<=(const Time& a, const Time& b) { return !(b < a); }
  friend bool operator>=(const Time& a, const Time& b) { return !(a < b); }

  Time& operator+=(const Duration& d);
  Time& operator-=(const Duration& d);
  friend Time operator+(Time t, const Duration& d) { return t += d; }
  friend Time operator-(Time t, const Duration& d) { return t -= d; }
  friend Duration operator-(const Time& a, const Time& b);

 private:
  Rational value_;
};

/// Signed span of model time, in milliseconds.
class Duration {
 public:
  constexpr Duration() noexcept = default;
  explicit Duration(Rational value) : value_(std::move(value)) {}

  static Duration ms(std::int64_t v) { return Duration(Rational(v)); }
  /// Exact fractional milliseconds num/den.
  static Duration ratio_ms(std::int64_t num, std::int64_t den) {
    return Duration(Rational(num, den));
  }
  static Duration zero() { return {}; }

  [[nodiscard]] const Rational& value() const noexcept { return value_; }
  [[nodiscard]] double to_double_ms() const noexcept { return value_.to_double(); }
  [[nodiscard]] std::string to_string() const { return value_.to_string(); }

  [[nodiscard]] bool is_zero() const noexcept { return value_.is_zero(); }
  [[nodiscard]] bool is_positive() const noexcept { return value_.is_positive(); }
  [[nodiscard]] bool is_negative() const noexcept { return value_.is_negative(); }

  friend bool operator==(const Duration& a, const Duration& b) noexcept {
    return a.value_ == b.value_;
  }
  friend bool operator!=(const Duration& a, const Duration& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const Duration& a, const Duration& b) {
    return a.value_ < b.value_;
  }
  friend bool operator>(const Duration& a, const Duration& b) { return b < a; }
  friend bool operator<=(const Duration& a, const Duration& b) { return !(b < a); }
  friend bool operator>=(const Duration& a, const Duration& b) { return !(a < b); }

  Duration& operator+=(const Duration& d) {
    value_ += d.value_;
    return *this;
  }
  Duration& operator-=(const Duration& d) {
    value_ -= d.value_;
    return *this;
  }
  Duration& operator*=(const Rational& k) {
    value_ *= k;
    return *this;
  }
  Duration& operator/=(const Rational& k) {
    value_ /= k;
    return *this;
  }
  friend Duration operator+(Duration a, const Duration& b) { return a += b; }
  friend Duration operator-(Duration a, const Duration& b) { return a -= b; }
  friend Duration operator*(Duration d, const Rational& k) { return d *= k; }
  friend Duration operator*(const Rational& k, Duration d) { return d *= k; }
  friend Duration operator/(Duration d, const Rational& k) { return d /= k; }

  /// Exact ratio of two durations (divisor must be nonzero).
  friend Rational operator/(const Duration& a, const Duration& b) {
    return a.value_ / b.value_;
  }

  /// Hyperperiod operator: exact rational lcm (both must be positive).
  [[nodiscard]] static Duration lcm(const Duration& a, const Duration& b) {
    return Duration(Rational::lcm(a.value_, b.value_));
  }

  [[nodiscard]] static Duration min(const Duration& a, const Duration& b) {
    return a <= b ? a : b;
  }
  [[nodiscard]] static Duration max(const Duration& a, const Duration& b) {
    return a >= b ? a : b;
  }

 private:
  Rational value_;
};

std::ostream& operator<<(std::ostream& os, const Time& t);
std::ostream& operator<<(std::ostream& os, const Duration& d);

}  // namespace fppn

template <>
struct std::hash<fppn::Time> {
  std::size_t operator()(const fppn::Time& t) const noexcept {
    return std::hash<fppn::Rational>{}(t.value());
  }
};

template <>
struct std::hash<fppn::Duration> {
  std::size_t operator()(const fppn::Duration& d) const noexcept {
    return std::hash<fppn::Rational>{}(d.value());
  }
};
