// fppn_tool — the command line front end of the toolchain: parse a
// textual FPPN description, validate it, derive the task graph, compute
// schedules and simulate the online policy. This is the analogue of the
// paper's publicly released code-generation tool [10] for this library.
//
// This file is only the dispatcher. Flag parsing (straight into the
// engine::SolveRequest the invocation describes) lives in
// tools/tool_common.*; each subcommand is one thin module in
// tools/cmd_*.cpp (declared in tools/commands.hpp); all scheduling
// behavior — presets, cache attachment, the determinism contract — lives
// in src/engine, shared with fppn_serve, the benches and the fuzz loop.
//
// Scheduling goes through the strategy registry (pass any registered name
// to --strategy; `fppn_tool --help` lists them) and --optimize runs the
// parallel multi-strategy/multi-seed search. Execution goes through the
// runtime registry (--runtime vm|threads). `--jobs W` sets the search's
// worker threads; the winner is bit-identical for every W.
//
// Usage:
//   fppn_tool check     <file>
//   fppn_tool taskgraph <file> [--dot] [--wcet C] [--unfold U]
//   fppn_tool schedule  <file> -m N [--strategy NAME] [--optimize]
//                       [--jobs W] [--seed S] [--wcet C] [--unfold U]
//                       [--cache-dir D] [--cache-max-entries N]
//                       [--cache-max-bytes B] [--no-cache]
//                       [--dot|--gantt]
//   fppn_tool simulate  <file> -m N [--runtime NAME] [--frames F]
//                       [--overhead F1,Fn] [--wcet C] [--seed S]
//                       [--cache-dir D] [--cache-max-entries N] [--no-cache]
//   fppn_tool cache-gc  --cache-dir D [--cache-max-entries N]
//                       [--cache-max-bytes B]
//   fppn_tool roundtrip <file>         # parse and re-emit the description
//   fppn_tool fuzz      [--seeds N] [--seed S] [--families LIST] [-m N]
//                       [--repro-dir D] [--replay FILE] [--shrink-steps K]
//                       [--inject-bug]
//
// `fuzz` runs the differential loop of gen/fuzz.*: generated scenarios,
// reference-vs-production search comparison, TA-oracle and policy-trace
// cross-checks; mismatches are shrunk and written to --repro-dir as
// replayable `.fppn` files. Exit code 4 = at least one mismatch.
//
// --cache-dir enables the on-disk schedule cache (sched::ScheduleCache):
// repeated searches over the same graph are answered from disk instead of
// re-evaluated, with the bit-identical winner of a run without the cache.
// A bad cache path is a hard error (exit 1), never a silent miss.
// --cache-max-entries bounds the directory's entry count and
// --cache-max-bytes its total entry-file size (least-recently used entry
// files, by modification time, are evicted after every store and disk
// hit); `cache-gc` runs the same eviction pass on demand.
//
// Every numeric flag is parsed with a checked helper: a non-integer or
// out-of-range value exits 2 with an actionable message — never a raw
// `stoi`/`stoll` exception.
#include <cstdio>

#include "commands.hpp"
#include "io/text_format.hpp"

using namespace fppn;
using namespace fppn::tool;

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "check") {
      return cmd_check(args);
    }
    if (args.command == "taskgraph") {
      return cmd_taskgraph(args);
    }
    if (args.command == "schedule") {
      return cmd_schedule(args);
    }
    if (args.command == "simulate") {
      return cmd_simulate(args);
    }
    if (args.command == "cache-gc") {
      return cmd_cache_gc(args);
    }
    if (args.command == "roundtrip") {
      return cmd_roundtrip(args);
    }
    if (args.command == "fuzz") {
      return cmd_fuzz(args);
    }
    usage();
  } catch (const io::ParseError& e) {
    std::fprintf(stderr, "fppn_tool: parse error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fppn_tool: %s\n", e.what());
    return 1;
  }
}
