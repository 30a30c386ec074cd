// Partitioned-scheduling throughput: the evaluator's partition-constrained
// kernel vs. the reference testing::partitioned_list_schedule rescan, on a
// 256-job periodic pipeline (16 processes x 16 frames — the paper's
// deployment model, one process pinned per "thread"). Two measurements:
//
//   1. orders/sec scoring SP orders under a fixed WFD assignment — the
//      kernel's per-processor ready heaps (O((n+E) log n)) against the
//      reference O(n^2) ready rescan, with score AND placement equality
//      checked side by side (exit 1 on any divergence);
//   2. one reused partition-constrained Evaluator vs. a fresh WFD
//      assignment and Evaluator per call — what "partitioned-wfd" saves
//      by building both once per graph instead of once per seed.
//
// Emits BENCH_partitioned.json (bench_json.hpp). `--smoke` runs the
// report + equality checks only, skipping the google-benchmark loops.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_graphs.hpp"
#include "bench_json.hpp"
#include "sched/evaluator.hpp"
#include "sched/partitioned.hpp"
#include "sched/priorities.hpp"
#include "testing/list_scheduler.hpp"

namespace {

using namespace fppn;

using benchgraphs::periodic_pipeline_graph;

constexpr int kProcesses = 16;
constexpr int kFrames = 16;
constexpr std::int64_t kPeriod = 100;
constexpr std::int64_t kProcessors = 4;

sched::EvalScore score_of(const TaskGraph& tg, const StaticSchedule& s) {
  sched::EvalScore score;
  score.makespan = s.makespan(tg);
  score.deadline_violations = s.count_violations(tg).deadline;
  return score;
}

bool placements_equal(const StaticSchedule& a, const StaticSchedule& b) {
  if (a.job_count() != b.job_count()) {
    return false;
  }
  for (std::size_t i = 0; i < a.job_count(); ++i) {
    const JobId id(i);
    if (a.is_placed(id) != b.is_placed(id)) {
      return false;
    }
    if (a.is_placed(id) &&
        (a.placement(id).processor != b.placement(id).processor ||
         a.placement(id).start != b.placement(id).start)) {
      return false;
    }
  }
  return true;
}

/// One SP order per heuristic — the same candidate pool "partitioned-wfd"
/// walks across parallel_search seeds.
std::vector<std::vector<JobId>> heuristic_orders(const TaskGraph& tg) {
  std::vector<std::vector<JobId>> orders;
  for (const PriorityHeuristic h : all_heuristics()) {
    orders.push_back(schedule_priority(tg, h));
  }
  return orders;
}

/// Kernel vs. reference orders/sec under one fixed WFD assignment.
/// Returns false when any order's score or placement diverges or the
/// kernel misses the 3x acceptance floor.
bool print_kernel_report(benchjson::Report& report) {
  const TaskGraph tg = periodic_pipeline_graph(kProcesses, kFrames, kPeriod, 7);
  const std::size_t n = tg.job_count();
  const std::vector<std::vector<JobId>> orders = heuristic_orders(tg);
  std::printf("=== partition kernel vs reference rescan, %zu jobs, M=%lld ===\n\n",
              n, static_cast<long long>(kProcessors));

  const std::vector<ProcessorId> assignment = wfd_assignment(tg, kProcesses, kProcessors);
  sched::Evaluator kernel(tg, kProcessors, assignment);
  const auto reference_schedule = [&](const std::vector<JobId>& order) {
    return testing::partitioned_list_schedule(tg, assignment, order, kProcessors);
  };

  // Equality first: every order's schedule, placement by placement.
  bool agree = true;
  for (const std::vector<JobId>& order : orders) {
    const StaticSchedule fast = kernel.materialize(order);
    const StaticSchedule slow = reference_schedule(order);
    const sched::EvalScore fast_score = score_of(tg, fast);
    const sched::EvalScore slow_score = score_of(tg, slow);
    agree = agree && placements_equal(fast, slow) &&
            fast_score.makespan == slow_score.makespan &&
            fast_score.deadline_violations == slow_score.deadline_violations &&
            kernel.evaluate(order).makespan == fast_score.makespan;
  }

  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kEvals = 2000;
  const auto rate_of = [&](auto&& eval) {
    (void)eval(orders[0]);  // scratch warm-up
    const auto begin = Clock::now();
    std::size_t checksum = 0;
    for (std::size_t k = 0; k < kEvals; ++k) {
      checksum += eval(orders[k % orders.size()]);
    }
    benchmark::DoNotOptimize(checksum);
    const double sec = std::chrono::duration<double>(Clock::now() - begin).count();
    return sec > 0.0 ? static_cast<double>(kEvals) / sec : 0.0;
  };
  // Score-only on the kernel (what the strategy's search loop does) vs.
  // the reference path, which has no score-only mode and must materialize.
  const double kernel_rate = rate_of([&](const std::vector<JobId>& order) {
    return kernel.evaluate(order).deadline_violations;
  });
  const double reference_rate = rate_of([&](const std::vector<JobId>& order) {
    return score_of(tg, reference_schedule(order)).deadline_violations;
  });
  const double speedup = reference_rate > 0.0 ? kernel_rate / reference_rate : 0.0;

  std::printf("score+placement agreement over %zu orders: %s\n", orders.size(),
              agree ? "IDENTICAL" : "DIVERGED");
  std::printf("kernel:    %12.0f orders/sec\n", kernel_rate);
  std::printf("reference: %12.0f orders/sec\n", reference_rate);
  std::printf("speedup:   %12.1fx (acceptance floor: 3x)\n\n", speedup);

  report.metric("jobs", static_cast<long long>(n));
  report.metric("processors", static_cast<long long>(kProcessors));
  report.metric("kernel_orders_per_sec", kernel_rate);
  report.metric("reference_orders_per_sec", reference_rate);
  report.metric("kernel_speedup", speedup);
  report.metric("kernel_scores_agree", static_cast<long long>(agree ? 1 : 0));
  report.metric("kernel_floor_met",
                static_cast<long long>(speedup >= 3.0 ? 1 : 0));
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: partition kernel speedup %.2fx below the 3x floor\n",
                 speedup);
  }
  return agree && speedup >= 3.0;
}

/// One reused partition-constrained Evaluator vs. fresh-per-round
/// construction: the per-seed setup cost (WFD assignment + constrained-
/// evaluator compile) that reuse amortizes away — what "partitioned-wfd"
/// saves by keeping one evaluator per graph across parallel_search seeds. Returns
/// false on any score divergence between the two paths (no speedup floor
/// — the ratio is a setup:work balance, not a kernel property).
bool print_reuse_report(benchjson::Report& report) {
  const TaskGraph tg = periodic_pipeline_graph(kProcesses, kFrames, kPeriod, 7);
  std::printf("=== evaluator reuse vs per-call setup, %zu jobs ===\n\n",
              tg.job_count());

  const std::vector<std::vector<JobId>> orders = heuristic_orders(tg);
  constexpr std::size_t kRounds = 200;
  using Clock = std::chrono::steady_clock;

  bool agree = true;
  // Per-call: a fresh evaluator every round — WFD assignment + evaluator
  // compile paid per seed.
  const auto fresh_begin = Clock::now();
  std::size_t fresh_checksum = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    sched::Evaluator fresh(tg, kProcessors, wfd_assignment(tg, kProcesses, kProcessors));
    fresh_checksum += fresh.evaluate(orders[k % orders.size()]).deadline_violations;
  }
  const double fresh_seconds =
      std::chrono::duration<double>(Clock::now() - fresh_begin).count();

  // Reuse: one evaluator, score-only per round (the strategy's loop).
  const auto reuse_begin = Clock::now();
  sched::Evaluator kernel(tg, kProcessors, wfd_assignment(tg, kProcesses, kProcessors));
  std::size_t reuse_checksum = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    reuse_checksum += kernel.evaluate(orders[k % orders.size()]).deadline_violations;
  }
  const double reuse_seconds =
      std::chrono::duration<double>(Clock::now() - reuse_begin).count();
  agree = fresh_checksum == reuse_checksum;

  const double fresh_rate =
      fresh_seconds > 0.0 ? static_cast<double>(kRounds) / fresh_seconds : 0.0;
  const double reuse_rate =
      reuse_seconds > 0.0 ? static_cast<double>(kRounds) / reuse_seconds : 0.0;
  const double speedup = fresh_rate > 0.0 ? reuse_rate / fresh_rate : 0.0;

  std::printf("score agreement over %zu rounds: %s\n", kRounds,
              agree ? "IDENTICAL" : "DIVERGED");
  std::printf("reuse:    %12.0f scores/sec\n", reuse_rate);
  std::printf("per-call: %12.0f scores/sec\n", fresh_rate);
  std::printf("speedup:  %12.1fx\n\n", speedup);

  report.metric("reuse_scores_per_sec", reuse_rate);
  report.metric("fresh_scores_per_sec", fresh_rate);
  report.metric("reuse_speedup", speedup);
  report.metric("reuse_scores_agree", static_cast<long long>(agree ? 1 : 0));
  return agree;
}

void BM_PartitionKernel(benchmark::State& state) {
  const TaskGraph tg = periodic_pipeline_graph(
      static_cast<int>(state.range(0)), kFrames, kPeriod, 7);
  sched::Evaluator kernel(
      tg, kProcessors,
      wfd_assignment(tg, static_cast<std::size_t>(state.range(0)), kProcessors));
  const std::vector<JobId> order =
      schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.evaluate(order).deadline_violations);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs");
}
BENCHMARK(BM_PartitionKernel)->Arg(8)->Arg(16);

void BM_PartitionReference(benchmark::State& state) {
  const TaskGraph tg = periodic_pipeline_graph(
      static_cast<int>(state.range(0)), kFrames, kPeriod, 7);
  const std::vector<ProcessorId> assignment =
      wfd_assignment(tg, static_cast<std::size_t>(state.range(0)), kProcessors);
  const std::vector<JobId> order =
      schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  for (auto _ : state) {
    const StaticSchedule s =
        testing::partitioned_list_schedule(tg, assignment, order, kProcessors);
    benchmark::DoNotOptimize(s.count_violations(tg).deadline);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs");
}
BENCHMARK(BM_PartitionReference)->Arg(8)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "partitioned scheduling: the evaluator's partition-constrained\n"
      "kernel vs the reference rescan, and what reusing one evaluator\n"
      "saves over per-call setup.\n\n");
  benchjson::Report report("partitioned");
  const bool kernel_ok = print_kernel_report(report);
  const bool reuse_ok = print_reuse_report(report);
  const std::string json_path = report.write();
  if (!json_path.empty()) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!kernel_ok || !reuse_ok) {
    return 1;  // divergence or floor miss, already reported
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
