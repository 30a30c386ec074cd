// The evaluation kernel's headline numbers: candidate-evaluations/sec of
// sched::Evaluator vs. the reference list_schedule + feasibility pipeline
// on a 256-job synthetic graph (the ISSUE-5 acceptance metric), plus a
// winner-equality smoke against the reference search oracle on the paper's
// fig7 FMS example that CI runs on every push (exit 1 on any divergence).
//
// Emits BENCH_local_search.json (bench_json.hpp). `--smoke` runs the
// report + equality check only, skipping the google-benchmark loops.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>

#include "apps/fms.hpp"
#include "bench_graphs.hpp"
#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "sched/evaluator.hpp"
#include "sched/hill_climb.hpp"
#include "sched/local_search.hpp"
#include "sched/parallel_search.hpp"
#include "sched/search_context.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/reference_search.hpp"

namespace {

using namespace fppn;

using benchgraphs::periodic_pipeline_graph;
using benchgraphs::random_task_graph;
using testing::reference_score;

/// Evaluations/sec of one evaluation function over a rotating set of
/// orders (a small pool so the measurement is not one memoized order).
template <class Eval>
double measure_evals_per_sec(const std::vector<std::vector<JobId>>& orders,
                             std::size_t evaluations, Eval&& eval) {
  using Clock = std::chrono::steady_clock;
  // One warm-up pass (first kernel call sizes its scratch).
  (void)eval(orders[0]);
  const auto begin = Clock::now();
  std::size_t checksum = 0;
  for (std::size_t k = 0; k < evaluations; ++k) {
    checksum += eval(orders[k % orders.size()]).deadline_violations;
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - begin).count();
  benchmark::DoNotOptimize(checksum);
  return seconds > 0.0 ? static_cast<double>(evaluations) / seconds : 0.0;
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

/// Winner-equality smoke on fig7 (the FMS avionics application): the full
/// parallel search must pick the bit-identical winner of the serial
/// reference search (testing/reference_search.hpp). Returns true on
/// equality.
bool fms_winner_equality(benchjson::Report& report) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  engine::SearchConfig config;
  config.processors = 1;
  config.workers = 2;
  config.seeds_per_strategy = 2;  // on the quick preset's budget
  const sched::ParallelSearchResult fast =
      engine::solve_graph(derived.graph, config).search;
  const sched::ParallelSearchResult reference =
      testing::reference_search(derived.graph, config.search_options());
  const bool equal = fast.best.strategy == reference.best.strategy &&
                     fast.seed == reference.seed &&
                     fast.best.makespan == reference.best.makespan &&
                     fast.best.deadline_violations ==
                         reference.best.deadline_violations &&
                     fast.best.feasible == reference.best.feasible &&
                     placements_equal(fast.best.schedule, reference.best.schedule);
  std::printf("fig7 FMS winner equality (fast vs reference): %s\n",
              equal ? "IDENTICAL" : "DIVERGED");
  std::printf("  fast:      %s seed %llu makespan %s\n", fast.best.strategy.c_str(),
              static_cast<unsigned long long>(fast.seed),
              fast.best.makespan.to_string().c_str());
  std::printf("  reference: %s seed %llu makespan %s\n",
              reference.best.strategy.c_str(),
              static_cast<unsigned long long>(reference.seed),
              reference.best.makespan.to_string().c_str());
  report.label("fms_winner", fast.best.strategy);
  report.metric("fms_winner_equal", static_cast<long long>(equal ? 1 : 0));
  return equal;
}

/// The headline report: kernel vs. reference evaluations/sec on a 256-job
/// graph. Returns false when the two pipelines disagree on any score.
bool print_report(benchjson::Report& report) {
  const TaskGraph tg = random_task_graph(16, 16, 900, 7);  // 256 jobs
  const std::int64_t processors = 4;
  std::printf("=== evaluation kernel vs reference, %zu jobs, %zu edges, M=%lld ===\n\n",
              tg.job_count(), tg.edge_count(), static_cast<long long>(processors));

  // A pool of candidate orders: all four heuristics plus random moves of
  // the first, mimicking the local search's neighborhood.
  std::vector<std::vector<JobId>> orders;
  for (const PriorityHeuristic h : all_heuristics()) {
    orders.push_back(schedule_priority(tg, h));
  }
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::size_t> pick(0, tg.job_count() - 1);
  for (int k = 0; k < 12; ++k) {
    std::vector<JobId> moved = orders[0];
    std::swap(moved[pick(rng)], moved[pick(rng)]);
    orders.push_back(std::move(moved));
  }

  sched::Evaluator kernel(tg, processors);
  bool scores_agree = true;
  for (const auto& order : orders) {
    const sched::EvalScore fast = kernel.evaluate(order);
    const sched::EvalScore ref = reference_score(tg, order, processors);
    scores_agree = scores_agree &&
                   fast.deadline_violations == ref.deadline_violations &&
                   fast.makespan == ref.makespan;
  }
  std::printf("score agreement over %zu orders: %s\n", orders.size(),
              scores_agree ? "IDENTICAL" : "DIVERGED");

  const double kernel_rate = measure_evals_per_sec(
      orders, 2000, [&](const std::vector<JobId>& o) { return kernel.evaluate(o); });
  const double reference_rate = measure_evals_per_sec(
      orders, 60,
      [&](const std::vector<JobId>& o) { return reference_score(tg, o, processors); });
  const double speedup = reference_rate > 0.0 ? kernel_rate / reference_rate : 0.0;
  std::printf("kernel:    %12.0f evaluations/sec\n", kernel_rate);
  std::printf("reference: %12.0f evaluations/sec\n", reference_rate);
  std::printf("speedup:   %12.1fx (acceptance floor: 5x)\n\n", speedup);

  report.metric("jobs", static_cast<long long>(tg.job_count()));
  report.metric("edges", static_cast<long long>(tg.edge_count()));
  report.metric("processors", static_cast<long long>(processors));
  report.metric("kernel_evals_per_sec", kernel_rate);
  report.metric("reference_evals_per_sec", reference_rate);
  report.metric("speedup", speedup);
  report.metric("scores_agree", static_cast<long long>(scores_agree ? 1 : 0));
  return scores_agree;
}

/// The incremental layer's headline: moves/sec scoring a realistic
/// hill-climb move trace through evaluate_move (checkpoint resume +
/// suffix splice) vs. a from-scratch kernel evaluation per move, on a
/// 256-job periodic pipeline — the paper's workload model, where frame
/// boundaries drain the machine and bound how far a move's divergence can
/// propagate. The trace is recorded once — moves, acceptances and
/// rebaseline points, with the search's own 3:1 insertion:swap mix — then
/// replayed identically against both scorers, so the two measurements do
/// the exact same scheduling work. Returns false when any replayed score
/// diverges or the median per-pair speedup misses the 3x acceptance floor.
bool print_incremental_report(benchjson::Report& report) {
  const TaskGraph tg = periodic_pipeline_graph(16, 16, 100, 7);  // 256 jobs
  const std::int64_t processors = 4;
  const std::size_t n = tg.job_count();
  constexpr std::size_t kMoves = 3000;
  std::printf("=== incremental vs full move scoring, %zu jobs, M=%lld ===\n\n",
              n, static_cast<long long>(processors));

  // Record the trajectory the local search would walk: random
  // insertion/swap perturbations of an incumbent (the search's 3:1 mix),
  // accepted exactly when strictly better.
  struct Move {
    std::vector<JobId> order;  ///< the perturbed order
    std::size_t lo = 0, hi = 0;
    sched::MoveKind kind = sched::MoveKind::kSwap;
    bool accepted = false;
  };
  std::vector<Move> trace;
  trace.reserve(kMoves);
  std::vector<JobId> start = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  {
    sched::Evaluator recorder(tg, processors);
    std::vector<JobId> current = start;
    sched::EvalScore cur = recorder.evaluate_baseline(current);
    std::mt19937_64 rng(23);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (std::size_t k = 0; k < kMoves; ++k) {
      Move mv;
      const std::size_t i = pick(rng);
      std::size_t j = pick(rng);
      if (i == j) {
        j = (j + 1) % n;
      }
      mv.lo = std::min(i, j);
      mv.hi = std::max(i, j);
      const bool swap_move = (rng() & 3U) == 0U;
      mv.kind = swap_move ? sched::MoveKind::kSwap : sched::MoveKind::kRotate;
      mv.order = current;
      if (swap_move) {
        std::swap(mv.order[i], mv.order[j]);
      } else {
        std::rotate(mv.order.begin() + static_cast<std::ptrdiff_t>(mv.lo),
                    mv.order.begin() + static_cast<std::ptrdiff_t>(mv.hi),
                    mv.order.begin() + static_cast<std::ptrdiff_t>(mv.hi) + 1);
      }
      const sched::EvalScore score =
          recorder.evaluate_move(mv.order, mv.lo, mv.hi, mv.kind);
      if (score.better_than(cur)) {
        mv.accepted = true;
        current = mv.order;
        cur = recorder.evaluate_baseline(current);
      }
      trace.push_back(std::move(mv));
    }
  }

  using Clock = std::chrono::steady_clock;
  bool scores_agree = true;

  // Both scorers replay the identical trace in interleaved pairs — one
  // full pass, then one incremental pass — so a load spike on a shared
  // host slows both sides of a pair alike. The floor gate reads the
  // median of the per-pair speedups, so one disturbed pair cannot flip
  // it. The score vectors come from the first pair (every pass
  // recomputes the identical values).
  constexpr int kPairs = 7;

  // Full: a from-scratch kernel evaluation per move (what the search does
  // without the incremental layer). Incremental: evaluate_move per move,
  // rebaselining on each acceptance exactly like the recorded trajectory.
  sched::Evaluator full(tg, processors);
  sched::Evaluator inc(tg, processors);
  std::vector<sched::EvalScore> full_scores;
  std::vector<sched::EvalScore> inc_scores;
  full_scores.reserve(trace.size());
  inc_scores.reserve(trace.size());
  (void)full.evaluate(start);  // scratch warm-up
  std::vector<double> full_passes;
  std::vector<double> inc_passes;
  std::vector<double> pair_speedups;
  sched::EvalStats one_pass_stats;
  for (int pair = 0; pair < kPairs; ++pair) {
    auto begin = Clock::now();
    for (const Move& mv : trace) {
      const sched::EvalScore s = full.evaluate(mv.order);
      if (pair == 0) {
        full_scores.push_back(s);
      }
      benchmark::DoNotOptimize(s.deadline_violations);
    }
    full_passes.push_back(std::chrono::duration<double>(Clock::now() - begin).count());

    (void)inc.evaluate_baseline(start);
    begin = Clock::now();
    for (const Move& mv : trace) {
      const sched::EvalScore s =
          inc.evaluate_move(mv.order, mv.lo, mv.hi, mv.kind);
      if (pair == 0) {
        inc_scores.push_back(s);
      }
      benchmark::DoNotOptimize(s.deadline_violations);
      if (mv.accepted) {
        (void)inc.evaluate_baseline(mv.order);
      }
    }
    inc_passes.push_back(std::chrono::duration<double>(Clock::now() - begin).count());
    if (pair == 0) {
      one_pass_stats = inc.stats();  // counters for exactly one trace replay
    }
    pair_speedups.push_back(inc_passes.back() > 0.0 ? full_passes.back() / inc_passes.back()
                                                    : 0.0);
  }
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };

  for (std::size_t k = 0; k < trace.size(); ++k) {
    scores_agree = scores_agree &&
                   inc_scores[k].deadline_violations ==
                       full_scores[k].deadline_violations &&
                   inc_scores[k].makespan == full_scores[k].makespan;
  }

  const double full_seconds = median(full_passes);
  const double inc_seconds = median(inc_passes);
  const double full_rate =
      full_seconds > 0.0 ? static_cast<double>(trace.size()) / full_seconds : 0.0;
  const double inc_rate =
      inc_seconds > 0.0 ? static_cast<double>(trace.size()) / inc_seconds : 0.0;
  const double speedup = median(pair_speedups);
  const sched::EvalStats& st = one_pass_stats;
  std::printf("move-score agreement over %zu moves: %s\n", trace.size(),
              scores_agree ? "IDENTICAL" : "DIVERGED");
  std::printf("incremental: %12.0f moves/sec (%llu resumed, %llu spliced)\n",
              inc_rate, static_cast<unsigned long long>(st.resumed_evals),
              static_cast<unsigned long long>(st.spliced_evals));
  std::printf("full:        %12.0f moves/sec\n", full_rate);
  std::printf("speedup:     %12.1fx (median of %d interleaved pairs; acceptance floor: 3x)\n\n",
              speedup, kPairs);

  report.metric("incremental_moves_per_sec", inc_rate);
  report.metric("full_moves_per_sec", full_rate);
  report.metric("incremental_speedup", speedup);
  report.metric("incremental_pairs", static_cast<long long>(kPairs));
  report.metric("incremental_resumed", static_cast<long long>(st.resumed_evals));
  report.metric("incremental_spliced", static_cast<long long>(st.spliced_evals));
  report.metric("incremental_scores_agree",
                static_cast<long long>(scores_agree ? 1 : 0));
  report.metric("incremental_floor_met",
                static_cast<long long>(speedup >= 3.0 ? 1 : 0));
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: incremental speedup %.2fx below the 3x floor\n",
                 speedup);
  }
  return scores_agree && speedup >= 3.0;
}

/// The incremental layer on the workload it serves: the optimize-preset
/// hill-climbs of the paper FMS (812 jobs, M=2, seeds 1-3) as the search
/// runs them, with every evaluate_move call timed. Reports µs per move,
/// starts simulated per move and the share of moves that spliced, the
/// median of 5 passes over the three climbs. Informational: no gate.
void print_fms_move_report(benchjson::Report& report) {
  const auto app = apps::build_fms(true);
  const TaskGraph tg = derive_task_graph(app.net, app.default_wcets()).graph;
  const std::int64_t processors = 2;
  const sched::SearchContext ctx(tg, processors);
  std::vector<sched::StartPoint> starts;
  for (const PriorityHeuristic h : all_heuristics()) {
    const sched::HeuristicRun& run = ctx.heuristic(h);
    starts.push_back({h, &run.order, run.score});
  }

  /// The production kernel with its moves timed and their starts counted.
  struct TimedScorer {
    sched::Evaluator kernel;
    double move_seconds = 0.0;
    std::uint64_t moves = 0;
    std::uint64_t move_starts = 0;

    sched::EvalScore evaluate(const std::vector<JobId>& o) { return kernel.evaluate(o); }
    sched::EvalScore evaluate_baseline(const std::vector<JobId>& o) {
      return kernel.evaluate_baseline(o);
    }
    sched::EvalScore evaluate_move(const std::vector<JobId>& o, std::size_t lo,
                                   std::size_t hi, sched::MoveKind kind) {
      const std::uint64_t before = kernel.stats().starts_simulated;
      const auto begin = std::chrono::steady_clock::now();
      const sched::EvalScore score = kernel.evaluate_move(o, lo, hi, kind);
      move_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
      ++moves;
      move_starts += kernel.stats().starts_simulated - before;
      return score;
    }
    StaticSchedule materialize(const std::vector<JobId>& o) { return kernel.materialize(o); }
  };

  constexpr int kPasses = 5;
  std::vector<double> us_per_move;
  std::uint64_t moves = 0;
  std::uint64_t move_starts = 0;
  std::uint64_t spliced = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    double seconds = 0.0;
    moves = move_starts = spliced = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sched::StrategyOptions opts;
      opts.processors = processors;
      opts.seed = seed;  // and the default budget, the optimize preset
      TimedScorer scorer{sched::Evaluator(ctx.compiled(), processors)};
      (void)sched::hill_climb(starts, opts, scorer);
      seconds += scorer.move_seconds;
      moves += scorer.moves;
      move_starts += scorer.move_starts;
      spliced += scorer.kernel.stats().spliced_evals;
    }
    us_per_move.push_back(moves > 0 ? 1e6 * seconds / static_cast<double>(moves) : 0.0);
  }
  std::sort(us_per_move.begin(), us_per_move.end());
  const double move_us = us_per_move[us_per_move.size() / 2];
  const double starts_per_move =
      moves > 0 ? static_cast<double>(move_starts) / static_cast<double>(moves) : 0.0;
  const double splice_ratio =
      moves > 0 ? static_cast<double>(spliced) / static_cast<double>(moves) : 0.0;
  std::printf("=== paper FMS climbs, %zu jobs, M=%lld, seeds 1-3 ===\n\n", tg.job_count(),
              static_cast<long long>(processors));
  std::printf("moves per pass:   %12llu\n", static_cast<unsigned long long>(moves));
  std::printf("us per move:      %12.2f (median of %d passes)\n", move_us, kPasses);
  std::printf("starts per move:  %12.1f of %zu\n", starts_per_move, tg.job_count());
  std::printf("splice ratio:     %12.3f\n\n", splice_ratio);
  report.metric("fms_moves", static_cast<long long>(moves));
  report.metric("fms_move_us", move_us);
  report.metric("fms_starts_per_move", starts_per_move);
  report.metric("fms_splice_ratio", splice_ratio);
}

void BM_KernelEvaluate(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)), 900, 7);
  sched::Evaluator kernel(tg, 4);
  const std::vector<JobId> order = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.evaluate(order).deadline_violations);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs");
}
BENCHMARK(BM_KernelEvaluate)->Arg(8)->Arg(16);

void BM_ReferenceEvaluate(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)), 900, 7);
  const std::vector<JobId> order = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_score(tg, order, 4).deadline_violations);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs");
}
BENCHMARK(BM_ReferenceEvaluate)->Arg(8)->Arg(16);

void BM_OptimizePriority(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(10, 10, 500, 7);
  sched::StrategyOptions opts;
  opts.processors = 4;
  opts.max_iterations = 500;
  opts.restarts = 1;
  const bool kernel = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((kernel ? optimize_priority(tg, opts)
                                     : testing::reference_optimize_priority(tg, opts))
                                 .makespan);
  }
  state.SetLabel(kernel ? "kernel" : "reference");
}
BENCHMARK(BM_OptimizePriority)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "local-search evaluation kernel: the same (violations, makespan)\n"
      "scores and placements as the reference pipeline, measured side by\n"
      "side. The search stack is only as fast as this inner loop.\n\n");
  benchjson::Report report("local_search");
  const bool scores_ok = print_report(report);
  const bool incremental_ok = print_incremental_report(report);
  print_fms_move_report(report);
  const bool winner_ok = fms_winner_equality(report);
  const std::string json_path = report.write();
  if (!json_path.empty()) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!scores_ok || !winner_ok) {
    std::fprintf(stderr, "FAIL: kernel diverged from the reference pipeline\n");
    return 1;
  }
  if (!incremental_ok) {
    return 1;  // divergence or speedup floor miss, already reported
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
