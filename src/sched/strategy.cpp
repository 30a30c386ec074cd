#include "sched/strategy.hpp"

#include <algorithm>
#include <utility>

#include "sched/evaluator.hpp"
#include "sched/local_search.hpp"
#include "sched/partitioned.hpp"
#include "sched/priorities.hpp"
#include "sched/registry.hpp"

namespace fppn {
namespace sched {

namespace {

void set_score(StrategyResult& result, const ViolationCounts& counts, Time makespan) {
  result.makespan = std::move(makespan);
  result.feasible = counts.feasible();
  result.deadline_violations = counts.deadline;
}

}  // namespace

void finalize_result(const TaskGraph& tg, StrategyResult& result) {
  // Counts-only feasibility: identical numbers to check_feasibility,
  // none of its violation records or detail strings.
  set_score(result, result.schedule.count_violations(tg), result.schedule.makespan(tg));
}

void finalize_result(const SearchContext& ctx, StrategyResult& result) {
  if (const auto score = result.schedule.score_on_ticks(*ctx.compiled())) {
    set_score(result, score->counts, score->makespan);
  } else {
    finalize_result(ctx.graph(), result);
  }
}

StrategyResult SchedulerStrategy::schedule(const TaskGraph& tg,
                                           const StrategyOptions& opts) const {
  const SearchContext ctx(tg, opts.processors);
  return schedule(ctx, opts);
}

namespace {

/// One §III-B priority heuristic behind the strategy interface: the SP
/// total order list-scheduled through the evaluation kernel — the
/// context's slot for the heuristic.
class HeuristicStrategy final : public SchedulerStrategy {
 public:
  HeuristicStrategy(PriorityHeuristic heuristic, std::string description)
      : heuristic_(heuristic), description_(std::move(description)) {}

  [[nodiscard]] std::string name() const override { return to_string(heuristic_); }
  [[nodiscard]] std::string description() const override { return description_; }

  [[nodiscard]] StrategyResult schedule(const SearchContext& ctx,
                                        const StrategyOptions& /*opts*/) const override {
    StrategyResult result;
    result.strategy = name();
    result.detail = "list schedule, SP heuristic " + name();
    result.schedule = ctx.heuristic(heuristic_).schedule;
    finalize_result(ctx, result);
    return result;
  }

 private:
  PriorityHeuristic heuristic_;
  std::string description_;
};

/// The local-search SP optimizer behind the strategy interface. Seedable:
/// restart shuffles and move picks depend on opts.seed.
class LocalSearchStrategy final : public SchedulerStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "local-search"; }
  [[nodiscard]] std::string description() const override {
    return "hill-climbing SP optimization with seeded restarts";
  }
  [[nodiscard]] bool seedable() const override { return true; }

  [[nodiscard]] StrategyResult schedule(const SearchContext& ctx,
                                        const StrategyOptions& opts) const override {
    LocalSearchResult ls_result = optimize_priority(ctx, opts);

    StrategyResult result;
    result.strategy = name();
    result.detail = "local search from " + to_string(ls_result.start_heuristic) +
                    ", " + std::to_string(ls_result.iterations_used) + " iterations";
    result.schedule = std::move(ls_result.schedule);
    result.full_evals = ls_result.full_evals;
    result.incremental_evals = ls_result.incremental_evals;
    result.spliced_evals = ls_result.spliced_evals;
    finalize_result(ctx, result);
    return result;
  }
};

/// Partitioned scheduling behind the strategy interface: worst-fit-
/// decreasing process-to-processor pinning (the paper's static mapping
/// mu_i, §V) followed by partition-constrained list scheduling. Seedable,
/// with a deliberate split: the seed selects only the SP heuristic used
/// *within* the fixed partition (seed mod heuristic count), never the
/// partition itself — the WFD assignment is a pure function of the graph,
/// so every seed pins each process to the same processor ("assignment
/// stability", tested in partitioned_test.cpp).
class PartitionedStrategy final : public SchedulerStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "partitioned-wfd"; }
  [[nodiscard]] std::string description() const override {
    return "worst-fit-decreasing process pinning + constrained list schedule";
  }
  [[nodiscard]] bool seedable() const override { return true; }

  [[nodiscard]] StrategyResult schedule(const SearchContext& ctx,
                                        const StrategyOptions& opts) const override {
    const TaskGraph& tg = ctx.graph();
    // Processes are identified by the jobs' ProcessId values; the
    // assignment table must cover the largest one.
    std::size_t process_count = 0;
    for (const Job& j : tg.jobs()) {
      if (!j.process.is_valid()) {
        throw std::invalid_argument("partitioned-wfd: job '" + j.name +
                                    "' has no process id");
      }
      process_count = std::max(process_count, j.process.value() + 1);
    }
    const auto& heuristics = all_heuristics();
    const PriorityHeuristic h =
        heuristics[static_cast<std::size_t>(opts.seed % heuristics.size())];

    StrategyResult result;
    result.strategy = name();
    result.detail = "partitioned WFD pinning, SP heuristic " + to_string(h);
    // The partition kernel shares the context's compiled view; the SP
    // order is the heuristic's slot.
    Evaluator kernel(tg, ctx.compiled(), ctx.processors(),
                     wfd_assignment(tg, process_count, ctx.processors()));
    result.schedule = kernel.materialize(ctx.heuristic(h).order);
    finalize_result(ctx, result);
    return result;
  }
};

}  // namespace

void register_builtin_strategies(StrategyRegistry& registry) {
  struct Builtin {
    PriorityHeuristic heuristic;
    const char* description;
  };
  const Builtin heuristics[] = {
      {PriorityHeuristic::kAlapEdf, "EDF on ALAP completion times (the paper's default)"},
      {PriorityHeuristic::kBLevel, "longest remaining WCET path first [Kwok & Ahmad]"},
      {PriorityHeuristic::kDeadlineMonotonic,
       "smallest relative deadline first [Forget et al.]"},
      {PriorityHeuristic::kArrivalOrder, "earliest arrival first (FIFO baseline)"},
  };
  for (const Builtin& b : heuristics) {
    registry.add(to_string(b.heuristic), [h = b.heuristic, d = std::string(b.description)] {
      return std::make_unique<HeuristicStrategy>(h, d);
    });
  }
  registry.add("local-search", [] { return std::make_unique<LocalSearchStrategy>(); });
  registry.add("partitioned-wfd", [] { return std::make_unique<PartitionedStrategy>(); });
}

}  // namespace sched
}  // namespace fppn
