#include "tool_common.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "runtime/runtime.hpp"
#include "sched/registry.hpp"

namespace fppn {
namespace tool {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: fppn_tool "
               "<check|taskgraph|schedule|simulate|roundtrip> "
               "<file> [options]\n"
               "       fppn_tool cache-gc --cache-dir D [--cache-max-entries N]\n"
               "                          [--cache-max-bytes B]\n"
               "       fppn_tool fuzz [--seeds N] [--seed S] [--families LIST]\n"
               "                      [-m N] [--repro-dir D] [--replay FILE]\n"
               "                      [--shrink-steps K] [--inject-bug]\n"
               "options:\n"
               "  -m N             processor count (schedule/simulate)\n"
               "  --strategy NAME  scheduling strategy (schedule)\n"
               "  --optimize       parallel multi-strategy/multi-seed search\n"
               "  --jobs W         parallel-search worker threads (0 = auto)\n"
               "  --runtime NAME   execution backend (simulate)\n"
               "  --frames F       schedule-frame repetitions (simulate)\n"
               "  --overhead F1,Fn frame overhead model (simulate)\n"
               "  --wcet C         uniform WCET override\n"
               "  --unfold U       unfolding factor for the derivation\n"
               "  --seed S         RNG seed (search/sporadic scripts)\n"
               "  --cache-dir D    on-disk schedule cache (schedule/simulate);\n"
               "                   D is created when its parent exists, else error\n"
               "  --cache-max-entries N  bound the cache directory to N entries\n"
               "                   (LRU-style eviction; also the cache-gc bound)\n"
               "  --cache-max-bytes B  bound the cache directory's entry files to\n"
               "                   B bytes total (oldest evicted first; combines\n"
               "                   with --cache-max-entries, also honored by\n"
               "                   cache-gc)\n"
               "  --no-cache       disable the schedule cache even with --cache-dir\n"
               "  --dot | --gantt  graph/schedule rendering\n"
               "  --seeds N        fuzz: scenario count (default 100)\n"
               "  --families LIST  fuzz: comma-separated scenario families\n"
               "  --repro-dir D    fuzz: write shrunk mismatch repros into D\n"
               "  --replay FILE    fuzz: re-run the checks on a repro file\n"
               "  --shrink-steps K fuzz: shrink budget per mismatch\n"
               "  --inject-bug     fuzz: synthetic mismatch (shrinker self-test)\n");
  std::fprintf(out, "strategies:\n");
  for (const std::string& name : sched::StrategyRegistry::global().names()) {
    const auto strategy = sched::StrategyRegistry::global().create(name);
    std::fprintf(out, "  %-20s %s\n", name.c_str(), strategy->description().c_str());
  }
  std::fprintf(out, "runtimes:\n");
  for (const std::string& name : runtime::RuntimeRegistry::global().names()) {
    const auto backend = runtime::make_runtime(name);
    std::fprintf(out, "  %-20s %s\n", name.c_str(), backend->description().c_str());
  }
}

void usage() {
  print_usage(stderr);
  std::exit(2);
}

constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

std::int64_t parse_int_flag(const char* flag, const std::string& value,
                            std::int64_t min_value, std::int64_t max_value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    std::fprintf(stderr, "fppn_tool: expected an integer for %s, got '%s'\n", flag,
                 value.c_str());
    std::exit(2);
  }
  if (errno == ERANGE) {
    std::fprintf(stderr, "fppn_tool: %s out of range, got '%s'\n", flag, value.c_str());
    std::exit(2);
  }
  if (parsed < min_value || parsed > max_value) {
    if (max_value == kNoMax) {
      std::fprintf(stderr, "fppn_tool: %s must be >= %lld, got '%s'\n", flag,
                   static_cast<long long>(min_value), value.c_str());
    } else {
      std::fprintf(stderr, "fppn_tool: %s must be in [%lld, %lld], got '%s'\n", flag,
                   static_cast<long long>(min_value),
                   static_cast<long long>(max_value), value.c_str());
    }
    std::exit(2);
  }
  return parsed;
}

std::uint64_t parse_u64_flag(const char* flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const bool has_sign = !value.empty() && (value[0] == '-' || value[0] == '+');
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || has_sign || end != value.c_str() + value.size()) {
    std::fprintf(stderr, "fppn_tool: expected an unsigned integer for %s, got '%s'\n",
                 flag, value.c_str());
    std::exit(2);
  }
  if (errno == ERANGE) {
    std::fprintf(stderr, "fppn_tool: %s out of range, got '%s'\n", flag, value.c_str());
    std::exit(2);
  }
  return parsed;
}

namespace {

/// Validates a user-supplied registry name; on failure prints the name and
/// the registered list (kind = "strategy" / "runtime") and exits 2.
template <class Registry>
void require_known(const Registry& registry, const char* kind, const char* kind_plural,
                   const std::string& name) {
  if (registry.contains(name)) {
    return;
  }
  std::fprintf(stderr, "fppn_tool: unknown %s '%s'\navailable %s:", kind, name.c_str(),
               kind_plural);
  for (const std::string& n : registry.names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout);
      std::exit(0);
    }
  }
  if (argc < 2) {
    usage();
  }
  Args a;
  a.command = argv[1];
  // cache-gc operates on a cache directory and fuzz on generated
  // scenarios (or --replay FILE), not a network file positional.
  const bool takes_file = a.command != "cache-gc" && a.command != "fuzz";
  if (takes_file) {
    if (argc < 3) {
      usage();
    }
    a.file = argv[2];
  }
  for (int i = takes_file ? 3 : 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (arg == "-m") {
      // Nonsensical values fail here at the CLI, not deep in the engine.
      a.processors = parse_int_flag("-m", next(), 1);
      a.processors_given = true;
    } else if (arg == "--seeds") {
      a.fuzz_seeds = parse_int_flag("--seeds", next(), 1);
    } else if (arg == "--families") {
      a.families = next();
    } else if (arg == "--repro-dir") {
      a.repro_dir = next();
    } else if (arg == "--replay") {
      a.replay = next();
    } else if (arg == "--shrink-steps") {
      a.shrink_steps = static_cast<int>(parse_int_flag(
          "--shrink-steps", next(), 1, std::numeric_limits<int>::max()));
    } else if (arg == "--inject-bug") {
      a.inject_bug = true;
    } else if (arg == "--frames") {
      a.frames = parse_int_flag("--frames", next(), 0);
    } else if (arg == "--unfold") {
      a.unfold = static_cast<int>(
          parse_int_flag("--unfold", next(), 1, std::numeric_limits<int>::max()));
    } else if (arg == "--jobs") {
      a.jobs = static_cast<int>(
          parse_int_flag("--jobs", next(), 0, std::numeric_limits<int>::max()));
    } else if (arg == "--seed") {
      a.seed = parse_u64_flag("--seed", next());
    } else if (arg == "--wcet") {
      a.uniform_wcet = io::parse_duration(next());
    } else if (arg == "--strategy" || arg == "--heuristic") {
      // --heuristic is the pre-registry spelling, kept as an alias.
      a.strategy = next();
      require_known(sched::StrategyRegistry::global(), "strategy", "strategies",
                    *a.strategy);
    } else if (arg == "--runtime") {
      a.runtime = next();
      require_known(runtime::RuntimeRegistry::global(), "runtime", "runtimes",
                    a.runtime);
    } else if (arg == "--cache-dir") {
      a.cache_dir = next();
    } else if (arg == "--cache-max-entries") {
      a.cache_max_entries = static_cast<std::size_t>(parse_int_flag(
          "--cache-max-entries", next(), 1, std::numeric_limits<int>::max()));
    } else if (arg == "--cache-max-bytes") {
      a.cache_max_bytes = static_cast<std::uint64_t>(
          parse_int_flag("--cache-max-bytes", next(), 1));
    } else if (arg == "--no-cache") {
      a.no_cache = true;
    } else if (arg == "--optimize") {
      a.optimize = true;
    } else if (arg == "--dot") {
      a.dot = true;
    } else if (arg == "--gantt") {
      a.gantt = true;
    } else if (arg == "--overhead") {
      const std::string spec = next();
      const auto comma = spec.find(',');
      if (comma == std::string::npos) {
        usage();
      }
      a.overhead.first_frame = io::parse_duration(spec.substr(0, comma));
      a.overhead.other_frames = io::parse_duration(spec.substr(comma + 1));
    } else {
      usage();
    }
  }
  return a;
}

engine::SolveRequest solve_request(const Args& args) {
  engine::SolveRequest request;
  request.network_path = args.file;
  request.unfold = args.unfold;
  request.uniform_wcet = args.uniform_wcet;

  engine::SearchConfig& config = request.config;
  config.processors = args.processors;
  config.workers = args.jobs;
  if (args.strategy.has_value()) {
    config.strategies = {*args.strategy};
  }
  config.seed = args.seed;
  config.optimize = args.optimize;
  config.cache_dir = args.cache_dir;
  config.no_cache = args.no_cache;
  config.cache_max_entries = args.cache_max_entries;
  config.cache_max_bytes = args.cache_max_bytes;

  return request;
}

void print_cache_line(const engine::SolveReport& report) {
  if (!report.cache_attached) {
    return;
  }
  std::printf("cache '%s': %zu hit(s), %zu miss(es), %zu store(s), %zu eviction(s)\n",
              report.cache_directory.c_str(), report.cache.hits, report.cache.misses,
              report.cache.stores, report.cache.evictions);
}

void print_search_report(const engine::SolveReport& report) {
  const sched::ParallelSearchResult& result = report.search;
  std::printf("%s on %lld processor(s): %s, makespan %s ms\n",
              result.best.detail.c_str(), static_cast<long long>(report.processors),
              result.best.feasible ? "FEASIBLE" : "infeasible",
              result.best.makespan.to_string().c_str());
  std::printf(
      "(searched %zu candidate(s), %zu evaluated + %zu cached, on %d worker(s); "
      "winner: %s, seed %llu)\n",
      result.candidates, result.evaluated, result.cache_hits, result.workers_used,
      result.best.strategy.c_str(), static_cast<unsigned long long>(result.seed));
  // Evaluation accounting of the fresh candidate runs (zero when every
  // candidate came from the cache).
  if (result.evals_full + result.evals_incremental > 0) {
    std::printf("evaluations: %llu full, %llu incremental (%llu spliced)\n",
                static_cast<unsigned long long>(result.evals_full),
                static_cast<unsigned long long>(result.evals_incremental),
                static_cast<unsigned long long>(result.evals_spliced));
  }
}

}  // namespace tool
}  // namespace fppn
