// Shared scaffolding for the line-oriented text formats (schedule
// entries, the cache index): 1-based line counting for ParseError
// positions, whitespace tokenization, checked integer parses, and the
// trailing-garbage guard after an "end" trailer. Header-only; one
// instance parses one stream.
#pragma once

#include <cstdint>
#include <istream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "io/text_format.hpp"

namespace fppn::io::detail {

class LineParser {
 public:
  explicit LineParser(std::istream& in) : in_(in) {}

  /// Splits a line into whitespace-separated tokens.
  [[nodiscard]] static std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok) {
      out.push_back(tok);
    }
    return out;
  }

  /// Reads the next line; throws ParseError(`eof_message`) at EOF.
  const std::string& next_line(const char* eof_message) {
    if (!std::getline(in_, line_)) {
      throw ParseError(lineno_, eof_message);
    }
    ++lineno_;
    return line_;
  }

  /// next_line + tokenize in one step.
  [[nodiscard]] std::vector<std::string> next_tokens(const char* eof_message) {
    return tokenize(next_line(eof_message));
  }

  void expect_tokens(const std::vector<std::string>& toks, std::size_t n,
                     const char* what) const {
    if (toks.size() != n) {
      throw ParseError(lineno_, std::string("malformed ") + what + " line");
    }
  }

  /// Whole-token signed integer, exactly the documented grammar
  /// `-?[0-9]+` — no writer emits a leading '+' (or anything else stoll
  /// tolerates, like "0x"-prefixed digits), so readers must not accept
  /// one; mirrors parse_u64's sign check. Throws ParseError otherwise.
  [[nodiscard]] std::int64_t parse_i64(const std::string& s) const {
    try {
      if (!s.empty() && s[0] == '+') {
        throw std::invalid_argument(s);
      }
      std::size_t used = 0;
      const std::int64_t v = std::stoll(s, &used);
      if (used != s.size()) {
        throw std::invalid_argument(s);
      }
      return v;
    } catch (const std::exception&) {
      throw ParseError(lineno_, "expected an integer, got '" + s + "'");
    }
  }

  /// parse_i64 for an `int` field: a value outside `int` is a ParseError,
  /// never wrapped.
  [[nodiscard]] int parse_int(const std::string& s) const {
    const std::int64_t v = parse_i64(s);
    if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
      throw ParseError(lineno_, "integer out of range: '" + s + "'");
    }
    return static_cast<int>(v);
  }

  /// Whole-token unsigned integer, full uint64 range (seeds are uint64:
  /// a reader must accept everything the writer emits); throws
  /// ParseError otherwise.
  [[nodiscard]] std::uint64_t parse_u64(const std::string& s) const {
    try {
      if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
        throw std::invalid_argument(s);
      }
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(s, &used);
      if (used != s.size()) {
        throw std::invalid_argument(s);
      }
      return v;
    } catch (const std::exception&) {
      throw ParseError(lineno_, "expected an unsigned integer, got '" + s + "'");
    }
  }

  /// Consumes the rest of the stream; any non-blank line is a ParseError
  /// — a truncated-then-concatenated file must not half-parse.
  void reject_trailing_content() {
    while (std::getline(in_, line_)) {
      ++lineno_;
      if (!tokenize(line_).empty()) {
        throw ParseError(lineno_, "trailing content after 'end'");
      }
    }
  }

  /// Most recently read raw line (for free-text fields).
  [[nodiscard]] const std::string& line() const noexcept { return line_; }
  [[nodiscard]] std::size_t lineno() const noexcept { return lineno_; }

 private:
  std::istream& in_;
  std::size_t lineno_ = 0;
  std::string line_;
};

}  // namespace fppn::io::detail
