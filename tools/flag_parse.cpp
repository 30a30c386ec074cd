#include "flag_parse.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace fppn {
namespace tool {

namespace {

[[noreturn]] void out_of_range(const char* program, const char* flag,
                               const std::string& value) {
  std::fprintf(stderr, "%s: %s out of range, got '%s'\n", program, flag, value.c_str());
  std::exit(2);
}

}  // namespace

std::int64_t parse_int_flag(const char* program, const char* flag,
                            const std::string& value, std::int64_t min_value,
                            std::int64_t max_value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    std::fprintf(stderr, "%s: expected an integer for %s, got '%s'\n", program, flag,
                 value.c_str());
    std::exit(2);
  }
  if (errno == ERANGE) {
    out_of_range(program, flag, value);
  }
  if (parsed < min_value || parsed > max_value) {
    if (max_value == std::numeric_limits<std::int64_t>::max()) {
      std::fprintf(stderr, "%s: %s must be >= %lld, got '%s'\n", program, flag,
                   static_cast<long long>(min_value), value.c_str());
    } else {
      std::fprintf(stderr, "%s: %s must be in [%lld, %lld], got '%s'\n", program, flag,
                   static_cast<long long>(min_value),
                   static_cast<long long>(max_value), value.c_str());
    }
    std::exit(2);
  }
  return parsed;
}

std::uint64_t parse_u64_flag(const char* program, const char* flag,
                             const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const bool has_sign = !value.empty() && (value[0] == '-' || value[0] == '+');
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || has_sign || end != value.c_str() + value.size()) {
    std::fprintf(stderr, "%s: expected an unsigned integer for %s, got '%s'\n", program,
                 flag, value.c_str());
    std::exit(2);
  }
  if (errno == ERANGE) {
    out_of_range(program, flag, value);
  }
  return parsed;
}

std::string parse_cache_dir_flag(const char* program, const std::string& value) {
  if (value.empty()) {
    std::fprintf(stderr, "%s: --cache-dir must not be empty\n", program);
    std::exit(2);
  }
  return value;
}

void require_cache_dir_for_bound(const char* program, const char* bound_flag,
                                 bool cache_dir_given) {
  if (bound_flag != nullptr && !cache_dir_given) {
    std::fprintf(stderr, "%s: %s requires --cache-dir\n", program, bound_flag);
    std::exit(2);
  }
}

}  // namespace tool
}  // namespace fppn
