#include "sched/strategy.hpp"

#include <algorithm>
#include <optional>

#include "sched/evaluator.hpp"
#include "sched/local_search.hpp"
#include "sched/partitioned.hpp"
#include "sched/priorities.hpp"
#include "sched/registry.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn {
namespace sched {

void finalize_result(const TaskGraph& tg, StrategyResult& result) {
  result.makespan = result.schedule.makespan(tg);
  // Counts-only feasibility: identical numbers to check_feasibility,
  // none of its violation records or detail strings.
  const ViolationCounts counts = result.schedule.count_violations(tg);
  result.feasible = counts.feasible();
  result.deadline_violations = counts.deadline;
}

namespace {

/// One §III-B priority heuristic behind the strategy interface: compute
/// the SP total order, list-schedule it through the evaluation kernel.
class HeuristicStrategy final : public SchedulerStrategy {
 public:
  HeuristicStrategy(PriorityHeuristic heuristic, std::string description)
      : heuristic_(heuristic), description_(std::move(description)) {}

  [[nodiscard]] std::string name() const override { return to_string(heuristic_); }
  [[nodiscard]] std::string description() const override { return description_; }

  [[nodiscard]] StrategyResult schedule(const TaskGraph& tg,
                                        const StrategyOptions& opts) const override {
    StrategyResult result;
    result.strategy = name();
    result.detail = "list schedule, SP heuristic " + name();
    const std::vector<JobId> order = schedule_priority(tg, heuristic_);
    result.schedule = Evaluator(tg, opts.processors).materialize(order);
    finalize_result(tg, result);
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

  [[nodiscard]] StrategyResult schedule(const TaskGraph& tg,
                                        const StrategyOptions& opts) const override {
    LocalSearchResult ls_result = optimize_priority(tg, opts);

    StrategyResult result;
    result.strategy = name();
    result.detail = "local search from " + to_string(ls_result.start_heuristic) +
                    ", " + std::to_string(ls_result.iterations_used) + " iterations";
    result.schedule = std::move(ls_result.schedule);
    result.full_evals = ls_result.full_evals;
    result.incremental_evals = ls_result.incremental_evals;
    result.spliced_evals = ls_result.spliced_evals;
    finalize_result(tg, result);
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

  [[nodiscard]] StrategyResult schedule(const TaskGraph& tg,
                                        const StrategyOptions& opts) const override {
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
    // parallel_search calls this strategy once per (seed, heuristic) on
    // the same graph; the WFD assignment and the compiled partition
    // kernel depend only on (graph, processors), so one kernel per worker
    // thread serves every seed. The evaluator holds no TaskGraph
    // reference, making the thread-local cache safe across graphs.
    struct CachedKernel {
      std::uint64_t fp = 0;
      std::int64_t processors = 0;
      std::optional<Evaluator> kernel;
    };
    thread_local CachedKernel cache;
    const std::uint64_t fp = fingerprint(tg);
    if (!cache.kernel.has_value() || cache.fp != fp ||
        cache.processors != opts.processors) {
      cache.kernel.emplace(tg, opts.processors,
                           wfd_assignment(tg, process_count, opts.processors));
      cache.fp = fp;
      cache.processors = opts.processors;
    }
    result.schedule = cache.kernel->materialize(schedule_priority(tg, h));
    finalize_result(tg, result);
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
