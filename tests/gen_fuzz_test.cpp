// The differential fuzz loop: clean sweeps over every generated family,
// deterministic stats, and — via the test-only injected bug — proof that
// a mismatch shrinks to a minimal spec and round-trips through a written
// repro that `--replay` re-triggers.
#include "gen/fuzz.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace fppn::gen {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_gen_fuzz_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

FuzzConfig quick_config() {
  FuzzConfig cfg;
  cfg.max_iterations = 60;
  cfg.restarts = 1;
  return cfg;
}

TEST(FuzzLoop, CleanSweepAcrossAllFamilies) {
  // The headline acceptance property at test scale: a batch of seeds over
  // every family, zero mismatches, and both oracles actually engaged.
  FuzzRunConfig run;
  run.base_seed = 1;
  run.seeds = 48;
  run.check = quick_config();
  const FuzzStats stats = run_fuzz(run);
  EXPECT_EQ(stats.scenarios, 48u);
  EXPECT_TRUE(stats.mismatches.empty())
      << stats.mismatches.front().check << ": " << stats.mismatches.front().detail;
  EXPECT_GT(stats.jobs, 0u);
  EXPECT_GT(stats.ta_checked, 0u);
  EXPECT_GT(stats.trace_checked, 0u);
  EXPECT_EQ(stats.per_family.size(), all_families().size());
}

TEST(FuzzLoop, StatsAreDeterministic) {
  FuzzRunConfig run;
  run.base_seed = 100;
  run.seeds = 16;
  run.check = quick_config();
  const FuzzStats a = run_fuzz(run);
  const FuzzStats b = run_fuzz(run);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.ta_checked, b.ta_checked);
  EXPECT_EQ(a.trace_checked, b.trace_checked);
  EXPECT_EQ(a.per_family, b.per_family);
}

TEST(FuzzLoop, FamilyRestrictionIsHonored) {
  FuzzRunConfig run;
  run.base_seed = 1;
  run.seeds = 6;
  run.families = {Family::kSporadic};
  run.check = quick_config();
  const FuzzStats stats = run_fuzz(run);
  ASSERT_EQ(stats.per_family.size(), 1u);
  EXPECT_EQ(stats.per_family.begin()->first, to_string(Family::kSporadic));
  EXPECT_EQ(stats.per_family.begin()->second, 6u);
  EXPECT_EQ(stats.trace_checked, 6u) << "every sporadic scenario is trace-checked";
}

TEST(FuzzInjectedBug, MismatchIsDetectedAndShrinksToMinimalSpec) {
  FuzzConfig cfg = quick_config();
  cfg.inject_bug = true;
  // A rich multi-process scenario with channels and priorities to give
  // the shrinker real work.
  const Scenario full = make_scenario(Family::kDiamond, 2);
  ASSERT_GT(full.spec.processes.size(), 3u);
  const FuzzVerdict verdict = check_scenario(full, cfg);
  ASSERT_TRUE(verdict.mismatch.has_value());
  EXPECT_EQ(verdict.mismatch->check, "injected-bug");

  int steps = 0;
  const Scenario tiny = shrink_scenario(full, *verdict.mismatch, cfg, &steps);
  EXPECT_GT(steps, 0);
  // The injected bug fires on any >= 2-job graph, so greedy dropping must
  // reach the 2-process floor and strip every channel and priority.
  EXPECT_LE(tiny.spec.processes.size(), 2u);
  EXPECT_TRUE(tiny.spec.channels.empty());
  EXPECT_TRUE(tiny.spec.priorities.empty());
  // Still triggers the same check.
  const FuzzVerdict again = check_scenario(tiny, cfg);
  ASSERT_TRUE(again.mismatch.has_value());
  EXPECT_EQ(again.mismatch->check, "injected-bug");
  // And without the injection the shrunk scenario is clean: the shrinker
  // must not have manufactured a real mismatch.
  cfg.inject_bug = false;
  EXPECT_FALSE(check_scenario(tiny, cfg).mismatch.has_value());
}

TEST(FuzzInjectedBug, ReproRoundTripsThroughReplay) {
  FuzzConfig cfg = quick_config();
  cfg.inject_bug = true;
  const Scenario scenario = make_scenario(Family::kPipeline, 5);
  const FuzzVerdict verdict = check_scenario(scenario, cfg);
  ASSERT_TRUE(verdict.mismatch.has_value());

  TempDir dir("replay");
  const std::string path = write_repro(scenario, *verdict.mismatch, dir.path());
  EXPECT_TRUE(fs::exists(path));
  {
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first.rfind("# fppn-fuzz", 0), 0u) << path;
  }

  // Replay with the bug still injected: same check fires again.
  const ReplayOutcome hot = replay_repro(path, cfg);
  EXPECT_EQ(hot.expected_check, "injected-bug");
  EXPECT_EQ(hot.seed, scenario.seed);
  ASSERT_TRUE(hot.verdict.mismatch.has_value());
  EXPECT_EQ(hot.verdict.mismatch->check, "injected-bug");

  // Replay with the bug fixed (not injected): the repro runs clean.
  cfg.inject_bug = false;
  const ReplayOutcome cold = replay_repro(path, cfg);
  EXPECT_FALSE(cold.verdict.mismatch.has_value());
}

TEST(FuzzInjectedBug, RunFuzzWritesOneReproPerMismatch) {
  TempDir dir("run_repros");
  FuzzRunConfig run;
  run.base_seed = 1;
  run.seeds = 3;
  run.repro_dir = dir.path();
  run.check = quick_config();
  run.check.inject_bug = true;
  const FuzzStats stats = run_fuzz(run);
  EXPECT_EQ(stats.mismatches.size(), 3u);
  ASSERT_EQ(stats.repro_paths.size(), 3u);
  for (const std::string& path : stats.repro_paths) {
    EXPECT_TRUE(fs::exists(path)) << path;
  }
}

TEST(FuzzReplay, MissingFileAndIncompleteWcetsThrow) {
  EXPECT_THROW((void)replay_repro("/nonexistent/repro.fppn", quick_config()),
               std::runtime_error);
  TempDir dir("bad_replay");
  const std::string path = dir.path() + "/no_wcets.fppn";
  {
    std::ofstream out(path);
    out << "process A periodic period=100 deadline=100\n";
  }
  EXPECT_THROW((void)replay_repro(path, quick_config()), std::runtime_error);
}

TEST(FuzzReplay, LegacyToggleHeaderStillReplays) {
  // Older repros pinned kernel toggles (incremental=, visited=) that no
  // longer exist; the reader skips them like any unknown token.
  const Scenario scenario = make_scenario(Family::kPipeline, 5);
  TempDir dir("legacy_header");
  const std::string path = dir.path() + "/legacy.fppn";
  {
    std::ofstream out(path);
    out << "# fppn-fuzz v1 repro\n"
        << "# fppn-fuzz seed=" << scenario.seed << " family=pipeline\n"
        << "# fppn-fuzz processors=2 incremental=1 visited=0\n"
        << "# fppn-fuzz check=reference-winner\n"
        << scenario_text(scenario);
  }
  const ReplayOutcome out = replay_repro(path, quick_config());
  EXPECT_EQ(out.seed, scenario.seed);
  EXPECT_EQ(out.expected_check, "reference-winner");
  EXPECT_GT(out.verdict.jobs, 0u);
  EXPECT_FALSE(out.verdict.mismatch.has_value());
}

TEST(FuzzCheck, VerdictGatesAreReported) {
  // A periodic-only scenario has no servers: TA-checked but never
  // trace-checked. A sporadic scenario is trace-checked.
  const FuzzConfig cfg = quick_config();
  const FuzzVerdict periodic = check_scenario(make_scenario(Family::kFanOut, 3), cfg);
  EXPECT_FALSE(periodic.mismatch.has_value());
  EXPECT_GT(periodic.jobs, 0u);
  EXPECT_FALSE(periodic.trace_checked);
  const FuzzVerdict sporadic = check_scenario(make_scenario(Family::kSporadic, 3), cfg);
  EXPECT_FALSE(sporadic.mismatch.has_value());
  EXPECT_TRUE(sporadic.trace_checked);
}

}  // namespace
}  // namespace fppn::gen
