// Golden CLI tests for the fppn_tool binary: every subcommand's exit
// code and stdout/stderr contract, including the exit-2 flag errors.
// These run the real binary (FPPN_TOOL_BIN, wired by CMake) so they pin
// the *user-visible* surface — the engine refactor underneath must keep
// every one of these bytes stable.
//
// Exit codes: 0 ok, 1 hard error, 2 bad usage, 3 infeasible/deadline
// miss, 4 fuzz mismatch.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const std::string kFig1 =
    std::string(FPPN_TEST_SOURCE_DIR) + "/../examples/fig1.fppn";

/// Fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_cli_test_" + tag + "_" + std::to_string(::getpid())))
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

struct CmdResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `fppn_tool <args>` with stdout/stderr captured to files.
CmdResult run_tool(const std::string& args) {
  static int invocation = 0;
  const TempDir dir("run" + std::to_string(++invocation));
  const fs::path out = fs::path(dir.path()) / "out";
  const fs::path err = fs::path(dir.path()) / "err";
  const std::string command = std::string("'") + FPPN_TOOL_BIN + "' " + args +
                              " > '" + out.string() + "' 2> '" + err.string() +
                              "'";
  const int status = std::system(command.c_str());
  CmdResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.out = slurp(out);
  result.err = slurp(err);
  return result;
}

/// First `n` lines of `text` (with trailing newline on each).
std::string first_lines(const std::string& text, std::size_t n) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return text.substr(0, pos == std::string::npos ? text.size() : pos);
}

TEST(ToolCli, CheckReportsTheSchedulableSubclass) {
  const CmdResult r = run_tool("check " + kFig1);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out,
            "ok: 7 processes, 12 channels\n"
            "schedulable subclass: yes; hyperperiod 200 ms\n");
  EXPECT_EQ(r.err, "");
}

TEST(ToolCli, TaskgraphShowsDerivationAndLoadBound) {
  const CmdResult r = run_tool("taskgraph " + kFig1);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(first_lines(r.out, 2),
            "hyperperiod 200 ms, 10 jobs, 11 edges (5 removed by reduction)\n"
            "load 5/3 (~1.6667) => >= 2 processor(s)\n");
}

TEST(ToolCli, ScheduleIsFeasibleOnTwoProcessors) {
  // --jobs pinned: the default is the host's core count, which the
  // worker token would echo.
  const CmdResult r = run_tool("schedule " + kFig1 + " --jobs 1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(first_lines(r.out, 2),
            "list schedule, SP heuristic alap-edf on 2 processor(s): FEASIBLE, "
            "makespan 150 ms\n"
            "(searched 6 candidate(s), 6 evaluated + 0 cached, on 1 worker(s); "
            "winner: alap-edf, seed 1)\n");
  // Kernel instrumentation rides along whenever the counters are nonzero.
  EXPECT_NE(r.out.find("\nevaluations: "), std::string::npos) << r.out;
}

TEST(ToolCli, InfeasibleScheduleExitsThreeAndNamesViolations) {
  const CmdResult r = run_tool("schedule " + kFig1 + " -m 1");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.out.find("infeasible"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("[deadline] OutputA[1]: ends 225 > D=200"),
            std::string::npos)
      << r.out;
}

TEST(ToolCli, ColdThenWarmCacheRunAnswersFromTheCache) {
  const TempDir dir("cache");
  const std::string cache = dir.path() + "/cache";
  const CmdResult cold =
      run_tool("schedule " + kFig1 + " --cache-dir '" + cache + "'");
  EXPECT_EQ(cold.exit_code, 0);
  // The cache line comes first, then the result.
  EXPECT_EQ(first_lines(cold.out, 1), "cache '" + cache +
                                          "': 0 hit(s), 6 miss(es), 6 "
                                          "store(s), 0 eviction(s)\n");

  const CmdResult warm =
      run_tool("schedule " + kFig1 + " --cache-dir '" + cache + "'");
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_EQ(first_lines(warm.out, 1), "cache '" + cache +
                                          "': 6 hit(s), 0 miss(es), 0 "
                                          "store(s), 0 eviction(s)\n");
  EXPECT_NE(warm.out.find("(searched 6 candidate(s), 0 evaluated + 6 cached, "
                          "on 1 worker(s); winner: alap-edf, seed 1)"),
            std::string::npos)
      << warm.out;
  // The cache is a pure memo: no search runs besides the plan, cold or
  // warm, so neither run prints a warm-start overlay line.
  for (const CmdResult* run : {&cold, &warm}) {
    EXPECT_EQ(run->out.find("warm-start overlay"), std::string::npos) << run->out;
  }
}

TEST(ToolCli, OptimizePresetSearchesTheFullStrategyPortfolio) {
  const TempDir dir("optimize");
  const CmdResult r = run_tool("schedule " + kFig1 + " --optimize --jobs 1 --cache-dir '" +
                               dir.path() + "/cache'");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("(searched 10 candidate(s), 10 evaluated + 0 cached, "
                       "on 1 worker(s); winner: "),
            std::string::npos)
      << r.out;
}

TEST(ToolCli, OptimizeOutputIsIdenticalAcrossWorkerCounts) {
  // The determinism contract at the CLI: the same invocation at 1 and 4
  // worker threads prints the same bytes, save the worker count. The
  // "evaluations:" accounting line is compared too: every candidate runs
  // alone, so its counts do not depend on the worker count.
  const auto run_at = [](int jobs) {
    const std::string worker_token = "on " + std::to_string(jobs) + " worker(s);";
    const CmdResult r =
        run_tool("schedule " + kFig1 + " --optimize --gantt --jobs " + std::to_string(jobs));
    EXPECT_EQ(r.exit_code, 0) << "--jobs " << jobs;
    EXPECT_EQ(r.err, "") << "--jobs " << jobs;
    std::string out = r.out;
    const std::size_t workers = out.find(worker_token);
    EXPECT_NE(workers, std::string::npos) << out;
    if (workers != std::string::npos) {
      out.replace(workers, worker_token.size(), "on W worker(s);");
    }
    EXPECT_NE(out.find("\nevaluations: "), std::string::npos) << out;
    return out;
  };
  EXPECT_EQ(run_at(4), run_at(1));
}

TEST(ToolCli, SimulateMeetsEveryDeadline) {
  const CmdResult r = run_tool("simulate " + kFig1 + " --frames 2");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("18 jobs executed, 2 false skips, 0 deadline miss(es), "
                       "span 350 ms"),
            std::string::npos)
      << r.out;
}

TEST(ToolCli, RoundtripPrintsTheCanonicalNetwork) {
  const CmdResult r = run_tool("roundtrip " + kFig1);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(first_lines(r.out, 1), "# fppn network (7 processes, 12 channels)\n");
  EXPECT_NE(r.out.find("channel fifo inA_fA InputA -> FilterA\n"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("priority CoefB > FilterB\n"), std::string::npos) << r.out;
}

TEST(ToolCli, CacheGcHonorsEntryAndByteBounds) {
  const TempDir dir("gc");
  const std::string cache = dir.path() + "/cache";
  // Populate 6 entries through an unbounded scheduling run.
  ASSERT_EQ(run_tool("schedule " + kFig1 + " --cache-dir '" + cache + "'")
                .exit_code,
            0);

  const CmdResult entries =
      run_tool("cache-gc --cache-dir '" + cache + "' --cache-max-entries 2");
  EXPECT_EQ(entries.exit_code, 0);
  EXPECT_EQ(entries.out,
            "cache-gc '" + cache + "': 2 kept, 4 evicted, index rebuilt\n");

  const CmdResult bytes =
      run_tool("cache-gc --cache-dir '" + cache + "' --cache-max-bytes 1");
  EXPECT_EQ(bytes.exit_code, 0);
  EXPECT_EQ(bytes.out, "cache-gc '" + cache + "': 0 kept, 2 evicted\n");

  const CmdResult unbounded = run_tool("cache-gc --cache-dir '" + cache + "'");
  EXPECT_EQ(unbounded.exit_code, 0);
  EXPECT_EQ(unbounded.out,
            "cache-gc '" + cache +
                "': 0 kept, 0 evicted (no bound given: index maintenance "
                "only)\n");
}

TEST(ToolCli, FuzzSmokeFindsNoMismatches) {
  const CmdResult r = run_tool("fuzz --seeds 5");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(first_lines(r.out, 1).find("fuzz: 5 scenarios"), 0u) << r.out;
  EXPECT_NE(r.out.find(", 0 mismatches"), std::string::npos) << r.out;
}

TEST(ToolCli, HelpExitsZero) {
  const CmdResult r = run_tool("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(first_lines(r.out, 1).find("usage: fppn_tool "), 0u) << r.out;
  EXPECT_NE(r.out.find("--cache-max-bytes B"), std::string::npos) << r.out;
}

TEST(ToolCli, FlagErrorsExitTwoWithTheOffendingValue) {
  const std::vector<std::pair<std::string, std::string>> errors = {
      {"schedule " + kFig1 + " --jobs banana",
       "fppn_tool: expected an integer for --jobs, got 'banana'\n"},
      {"schedule " + kFig1 + " -m 0", "fppn_tool: -m must be >= 1, got '0'\n"},
      {"schedule " + kFig1 + " -m 99999999999999999999",
       "fppn_tool: -m out of range, got '99999999999999999999'\n"},
      {"simulate " + kFig1 + " --frames -3",
       "fppn_tool: --frames must be >= 0, got '-3'\n"},
      {"schedule " + kFig1 + " --seed -5",
       "fppn_tool: expected an unsigned integer for --seed, got '-5'\n"},
      {"schedule " + kFig1 + " --cache-max-bytes 0",
       "fppn_tool: --cache-max-bytes must be >= 1, got '0'\n"},
  };
  for (const auto& [args, message] : errors) {
    const CmdResult r = run_tool(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.err, message) << args;
    EXPECT_EQ(r.out, "") << args;
  }
}

TEST(ToolCli, UnknownCommandDumpsUsageAndExitsTwo) {
  const CmdResult r = run_tool("frobnicate " + kFig1);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.err.find("usage: fppn_tool "), 0u) << r.err;
}

TEST(ToolCli, MissingInputFileIsAHardError) {
  const CmdResult r = run_tool("schedule /nonexistent.fppn");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, "fppn_tool: cannot open '/nonexistent.fppn'\n");
}

}  // namespace
