// The checked flag parsers fppn_tool and fppn_serve share: a value that
// is not an integer, or falls outside the flag's range, exits 2 with
// "<program>: <message>" naming the flag — never a raw stoll exception,
// never a silently wrapped value. The cache flags follow one rule in both
// tools: an empty --cache-dir exits 2, a --cache-max-entries or
// --cache-max-bytes of 0 means unbounded, and a bound given without
// --cache-dir exits 2.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace fppn {
namespace tool {

/// The max_value of a flag stored in an int.
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Signed parse into [min_value, max_value].
std::int64_t parse_int_flag(const char* program, const char* flag,
                            const std::string& value, std::int64_t min_value,
                            std::int64_t max_value =
                                std::numeric_limits<std::int64_t>::max());

/// Unsigned parse over all of uint64 (for seeds): rejects signs and
/// non-digits.
std::uint64_t parse_u64_flag(const char* program, const char* flag,
                             const std::string& value);

/// --cache-dir's value; an empty one exits 2.
std::string parse_cache_dir_flag(const char* program, const std::string& value);

/// Exits 2 when a cache bound flag came without --cache-dir. `bound_flag`
/// names the bound given (nullptr: none was).
void require_cache_dir_for_bound(const char* program, const char* bound_flag,
                                 bool cache_dir_given);

}  // namespace tool
}  // namespace fppn
