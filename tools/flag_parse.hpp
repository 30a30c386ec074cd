// The checked numeric flag parsers fppn_tool and fppn_serve share: a
// value that is not an integer, or falls outside the flag's range, exits
// 2 with "<program>: <message>" naming the flag — never a raw stoll
// exception, never a silently wrapped value.
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

}  // namespace tool
}  // namespace fppn
