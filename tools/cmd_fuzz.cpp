#include <cstdio>

#include "commands.hpp"
#include "gen/fuzz.hpp"

namespace fppn {
namespace tool {

namespace {

void print_mismatch(const gen::FuzzMismatch& m, const char* repro_path) {
  std::fprintf(stderr, "fppn_tool: fuzz MISMATCH [%s] (processors=%lld): %s\n",
               m.check.c_str(), static_cast<long long>(m.processors),
               m.detail.c_str());
  if (repro_path != nullptr) {
    std::fprintf(stderr, "fppn_tool: repro written to %s\n", repro_path);
  }
}

}  // namespace

/// The differential fuzz loop (gen/fuzz.*). Exit codes: 0 all checks
/// agree, 1 hard error, 2 bad usage, 4 at least one mismatch detected.
int cmd_fuzz(const Args& args) {
  gen::FuzzConfig check;
  check.processors = args.processors_given ? args.request.config.processors : 0;
  check.inject_bug = args.inject_bug;
  if (args.shrink_steps > 0) {
    check.shrink_limit = args.shrink_steps;
  }

  if (args.replay.has_value()) {
    const gen::ReplayOutcome out = gen::replay_repro(*args.replay, check);
    if (out.verdict.mismatch.has_value()) {
      print_mismatch(*out.verdict.mismatch, nullptr);
      return 4;
    }
    if (!out.expected_check.empty()) {
      std::printf("replay clean: repro no longer triggers check '%s' (%zu jobs)\n",
                  out.expected_check.c_str(), out.verdict.jobs);
    } else {
      std::printf("replay clean: all checks agree (%zu jobs)\n", out.verdict.jobs);
    }
    return 0;
  }

  gen::FuzzRunConfig cfg;
  cfg.base_seed = args.request.config.seed;
  cfg.seeds = args.fuzz_seeds;
  cfg.repro_dir = args.repro_dir;
  cfg.check = check;
  if (!args.families.empty()) {
    std::string rest = args.families;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      const std::string name = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      const auto family = gen::parse_family(name);
      if (!family.has_value()) {
        std::fprintf(stderr, "fppn_tool: unknown family '%s'\navailable families:",
                     name.c_str());
        for (gen::Family f : gen::all_families()) {
          std::fprintf(stderr, " %s", gen::to_string(f).c_str());
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
      cfg.families.push_back(*family);
    }
  }

  const gen::FuzzStats stats = gen::run_fuzz(cfg);
  std::printf("fuzz: %zu scenarios (%zu jobs total), %zu TA-oracle checked, "
              "%zu policy-trace checked, %zu mismatches\n",
              stats.scenarios, stats.jobs, stats.ta_checked, stats.trace_checked,
              stats.mismatches.size());
  for (const auto& [family, count] : stats.per_family) {
    std::printf("  %-14s %zu\n", family.c_str(), count);
  }
  for (std::size_t i = 0; i < stats.mismatches.size(); ++i) {
    print_mismatch(stats.mismatches[i],
                   i < stats.repro_paths.size() ? stats.repro_paths[i].c_str()
                                                : nullptr);
  }
  return stats.mismatches.empty() ? 0 : 4;
}

}  // namespace tool
}  // namespace fppn
