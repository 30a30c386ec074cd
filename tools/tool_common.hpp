// Shared plumbing of the fppn_tool subcommand modules: the parsed Args,
// the checked flag parsers (a non-integer or out-of-range value exits 2
// with an actionable message — never a raw stoi/stoll exception), usage
// printing, and the translation of Args into an engine::SolveRequest.
//
// Subcommands are thin by design: they parse flags into a SolveRequest,
// call engine::Engine::solve() (tools/cmd_*.cpp declare themselves in
// tools/commands.hpp) and format the SolveReport. All scheduling
// behavior — presets, cache attachment, determinism — lives in
// src/engine, shared with fppn_serve, the benches and the fuzz loop.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "engine/solve.hpp"
#include "sim/overhead.hpp"

namespace fppn {
namespace tool {

/// Every flag fppn_tool understands, across all subcommands.
struct Args {
  std::string command;
  std::string file;
  std::int64_t processors = 2;
  std::int64_t frames = 1;
  int unfold = 1;
  int jobs = 0;  ///< parallel-search workers; 0 = hardware concurrency
  std::uint64_t seed = 1;
  std::size_t cache_max_entries = 0;  ///< 0 = unbounded cache directory
  std::uint64_t cache_max_bytes = 0;  ///< 0 = no byte-size bound
  std::optional<Duration> uniform_wcet;
  std::optional<std::string> strategy;
  std::optional<std::string> cache_dir;
  std::string runtime = "vm";
  // fuzz subcommand
  std::int64_t fuzz_seeds = 100;
  int shrink_steps = 0;  ///< 0 = the gen::FuzzConfig default
  std::string families;  ///< comma-separated family list; empty = all
  std::string repro_dir;
  std::optional<std::string> replay;
  bool inject_bug = false;
  bool processors_given = false;
  bool no_cache = false;
  bool optimize = false;
  bool dot = false;
  bool gantt = false;
  OverheadModel overhead;
};

void print_usage(std::FILE* out);

[[noreturn]] void usage();

/// Checked integer parse for a numeric flag; see the header comment.
std::int64_t parse_int_flag(const char* flag, const std::string& value,
                            std::int64_t min_value,
                            std::int64_t max_value =
                                std::numeric_limits<std::int64_t>::max());

/// Checked unsigned parse (for --seed): rejects signs, non-digits and
/// values beyond uint64.
std::uint64_t parse_u64_flag(const char* flag, const std::string& value);

Args parse_args(int argc, char** argv);

/// The engine request this invocation describes: network file input,
/// derivation knobs and the consolidated SearchConfig.
[[nodiscard]] engine::SolveRequest solve_request(const Args& args);

/// The per-solve cache stats line ("cache '<dir>': N hit(s), ...") the
/// cached subcommands print before their result. No-op when no cache was
/// attached.
void print_cache_line(const engine::SolveReport& report);

/// The schedule-search result block `schedule` prints: result line,
/// candidate/cache/worker counts and the evaluation accounting.
/// Byte-identical to the pre-engine tool output.
void print_search_report(const engine::SolveReport& report);

}  // namespace tool
}  // namespace fppn
