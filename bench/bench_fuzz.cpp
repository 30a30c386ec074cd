// Fuzz-loop throughput and self-check: scenario generation rate, the
// full differential-check rate (reference vs production search, TA oracle,
// policy trace), and two hard gates — a mismatch-free sweep and the
// injected-bug shrink/repro/replay pipeline — emitted as gate bits in
// BENCH_fuzz.json so CI fails when either contract breaks.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench_json.hpp"
#include "gen/fuzz.hpp"
#include "gen/scenario.hpp"

namespace {

using namespace fppn;

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Generation-only rate: make_scenario + derivation, no search.
void print_generation_report(benchjson::Report& report) {
  const std::uint64_t kSeeds = 256;
  const Clock::time_point t0 = Clock::now();
  std::size_t jobs = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const gen::Scenario s = gen::make_scenario(seed);
    jobs += derive_task_graph(s.net, s.wcets).graph.job_count();
  }
  const double elapsed = seconds_since(t0);
  const double graphs_per_sec = static_cast<double>(kSeeds) / elapsed;
  std::printf("generation: %llu scenarios (%zu jobs) in %.2fs = %.0f graphs/sec\n",
              static_cast<unsigned long long>(kSeeds), jobs, elapsed, graphs_per_sec);
  report.metric("generate_graphs_per_sec", graphs_per_sec);
  report.metric("generate_jobs_total", static_cast<long long>(jobs));
}

/// Full differential sweep: every check enabled, all families. The gate:
/// zero mismatches.
bool print_sweep_report(benchjson::Report& report) {
  gen::FuzzRunConfig run;
  run.base_seed = 1;
  run.seeds = 96;
  const Clock::time_point t0 = Clock::now();
  const gen::FuzzStats stats = gen::run_fuzz(run);
  const double elapsed = seconds_since(t0);
  const double checked_per_sec = static_cast<double>(stats.scenarios) / elapsed;
  const bool clean = stats.mismatches.empty();
  std::printf(
      "differential sweep: %zu scenarios (%zu jobs, %zu TA-checked, "
      "%zu trace-checked) in %.2fs = %.1f graphs/sec — %s\n",
      stats.scenarios, stats.jobs, stats.ta_checked, stats.trace_checked, elapsed,
      checked_per_sec, clean ? "clean" : "MISMATCH");
  if (!clean) {
    std::fprintf(stderr, "first mismatch [%s]: %s\n",
                 stats.mismatches.front().check.c_str(),
                 stats.mismatches.front().detail.c_str());
  }
  report.metric("fuzz_graphs_per_sec", checked_per_sec);
  report.metric("fuzz_scenarios", static_cast<long long>(stats.scenarios));
  report.metric("fuzz_jobs_total", static_cast<long long>(stats.jobs));
  report.metric("fuzz_ta_checked", static_cast<long long>(stats.ta_checked));
  report.metric("fuzz_trace_checked", static_cast<long long>(stats.trace_checked));
  report.metric("fuzz_mismatch_free_agree", static_cast<long long>(clean ? 1 : 0));
  return clean;
}

/// The injected-bug pipeline: mismatch -> shrink -> repro -> replay
/// re-trigger, and a clean replay once the "bug" is fixed.
bool print_repro_report(benchjson::Report& report) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / ("fppn_bench_fuzz_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  bool ok = true;
  gen::FuzzConfig cfg;
  cfg.inject_bug = true;
  const gen::Scenario scenario = gen::make_scenario(gen::Family::kDiamond, 3);
  const gen::FuzzVerdict verdict = gen::check_scenario(scenario, cfg);
  ok = ok && verdict.mismatch.has_value();
  if (ok) {
    const gen::Scenario tiny = gen::shrink_scenario(scenario, *verdict.mismatch, cfg);
    ok = ok && tiny.spec.processes.size() <= 2;
    const std::string path = gen::write_repro(tiny, *verdict.mismatch, dir);
    const gen::ReplayOutcome hot = gen::replay_repro(path, cfg);
    ok = ok && hot.verdict.mismatch.has_value() &&
         hot.verdict.mismatch->check == "injected-bug";
    cfg.inject_bug = false;
    const gen::ReplayOutcome cold = gen::replay_repro(path, cfg);
    ok = ok && !cold.verdict.mismatch.has_value();
  }
  fs::remove_all(dir);
  std::printf("repro pipeline (inject -> shrink -> write -> replay): %s\n",
              ok ? "ok" : "FAIL");
  report.metric("fuzz_repro_replay_agree", static_cast<long long>(ok ? 1 : 0));
  return ok;
}

void BM_GenerateScenario(benchmark::State& state) {
  const auto family = static_cast<gen::Family>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const gen::Scenario s = gen::make_scenario(family, ++seed);
    benchmark::DoNotOptimize(derive_task_graph(s.net, s.wcets).graph.job_count());
  }
}
BENCHMARK(BM_GenerateScenario)
    ->DenseRange(0, static_cast<int>(gen::all_families().size()) - 1)
    ->Unit(benchmark::kMicrosecond);

void BM_CheckScenario(benchmark::State& state) {
  const gen::FuzzConfig cfg;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const gen::FuzzVerdict v =
        gen::check_scenario(gen::make_scenario(++seed), cfg);
    benchmark::DoNotOptimize(v.jobs);
  }
}
BENCHMARK(BM_CheckScenario)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "differential fuzz loop: generated scenarios cross-checked against\n"
      "the reference scheduler and the TA oracle. The gates below are the\n"
      "same checks `fppn_tool fuzz` runs at scale.\n\n");
  benchjson::Report report("fuzz");
  print_generation_report(report);
  const bool sweep_ok = print_sweep_report(report);
  const bool repro_ok = print_repro_report(report);
  const std::string json_path = report.write();
  if (!json_path.empty()) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!sweep_ok || !repro_ok) {
    std::fprintf(stderr, "FAIL: fuzz gates did not hold\n");
    return 1;
  }
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) {
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
