// Shared plumbing of the fppn_tool subcommand modules: the parsed Args
// (numeric flags through the checked parsers of flag_parse.hpp, the
// network and search flags straight into an engine::SolveRequest) and
// usage printing.
//
// Subcommands are thin by design: they take the parsed SolveRequest,
// call engine::Engine::solve() (tools/cmd_*.cpp declare themselves in
// tools/commands.hpp) and format the SolveReport. All scheduling
// behavior — presets, cache attachment, determinism — lives in
// src/engine, shared with fppn_serve, the benches and the fuzz loop.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "engine/solve.hpp"
#include "sim/overhead.hpp"

namespace fppn {
namespace tool {

/// Every flag fppn_tool understands, across all subcommands. The network
/// file, derivation and search flags are parsed straight into the engine
/// request the invocation describes (also the fuzz loop's -m and --seed,
/// and cache-gc's directory and bounds).
struct Args {
  std::string command;
  engine::SolveRequest request;
  std::int64_t frames = 1;
  std::string runtime = "vm";
  // fuzz subcommand
  std::int64_t fuzz_seeds = 100;
  int shrink_steps = 0;  ///< 0 = the gen::FuzzConfig default
  std::string families;  ///< comma-separated family list; empty = all
  std::string repro_dir;
  std::optional<std::string> replay;
  bool inject_bug = false;
  bool processors_given = false;
  bool dot = false;
  bool gantt = false;
  OverheadModel overhead;
};

void print_usage(std::FILE* out);

[[noreturn]] void usage();

Args parse_args(int argc, char** argv);

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
