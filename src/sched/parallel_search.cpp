#include "sched/parallel_search.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "sched/warm_start.hpp"

namespace fppn {
namespace sched {

namespace {

/// The registry name the warm-start overlay owns. Never expanded into the
/// plan: its result depends on cache contents, which the deterministic
/// candidate matrix must not.
constexpr const char* kWarmStartStrategy = "cached-warm-start";

}  // namespace

std::vector<SearchCandidate> enumerate_search_candidates(const ParallelSearchOptions& opts,
                                                         const StrategyRegistry& registry) {
  if (opts.processors < 1) {
    throw std::invalid_argument("parallel_search: processors must be >= 1");
  }
  if (opts.seeds_per_strategy < 1) {
    throw std::invalid_argument("parallel_search: seeds_per_strategy must be >= 1");
  }
  std::vector<std::string> strategy_names =
      opts.strategies.empty() ? registry.names() : opts.strategies;
  if (opts.strategies.empty()) {
    strategy_names.erase(
        std::remove(strategy_names.begin(), strategy_names.end(), kWarmStartStrategy),
        strategy_names.end());
  }
  std::vector<SearchCandidate> candidates;
  for (const std::string& name : strategy_names) {
    const auto strategy = registry.create(name);  // throws on unknown name
    const int seeds = strategy->seedable() ? opts.seeds_per_strategy : 1;
    for (int s = 0; s < seeds; ++s) {
      candidates.push_back(
          SearchCandidate{name, opts.base_seed + static_cast<std::uint64_t>(s)});
    }
  }
  if (candidates.empty()) {
    throw std::invalid_argument("parallel_search: no candidate strategies");
  }
  return candidates;
}

StrategyOptions strategy_options_for(const ParallelSearchOptions& opts,
                                     const SearchCandidate& candidate) {
  StrategyOptions sopts;
  sopts.processors = opts.processors;
  sopts.seed = candidate.seed;
  sopts.max_iterations = opts.max_iterations;
  sopts.restarts = opts.restarts;
  return sopts;
}

/// Feasibility outranks everything: a user-registered strategy can return
/// a schedule whose violations are non-deadline (unplaced jobs,
/// precedence/mutex overlaps) and such a result must never beat a fully
/// feasible one on makespan. Exact rational makespan comparison keeps
/// ties honest.
bool better_search_candidate(const StrategyResult& a, std::uint64_t a_seed,
                             const StrategyResult& b, std::uint64_t b_seed) {
  if (a.feasible != b.feasible) {
    return a.feasible;
  }
  if (a.deadline_violations != b.deadline_violations) {
    return a.deadline_violations < b.deadline_violations;
  }
  if (a.makespan != b.makespan) {
    return a.makespan < b.makespan;
  }
  if (a.strategy != b.strategy) {
    return a.strategy < b.strategy;
  }
  return a_seed < b_seed;
}

/// True when `a` is strictly better than `b` on the score prefix of
/// better_search_candidate — feasibility, then deadline violations, then
/// makespan — i.e. without the name/seed tie-breaks. The warm-start
/// overlay's replacement gate: an equal-scoring warm candidate must keep
/// the plan winner (so a warm rerun matches the cold winner bit for bit),
/// which the full order's name tie-break would not guarantee.
static bool strictly_better_score(const StrategyResult& a, const StrategyResult& b) {
  if (a.feasible != b.feasible) {
    return a.feasible;
  }
  if (a.deadline_violations != b.deadline_violations) {
    return a.deadline_violations < b.deadline_violations;
  }
  return a.makespan < b.makespan;
}

void apply_cached_warm_start(const TaskGraph& tg, const ParallelSearchOptions& opts,
                             ParallelSearchResult& result) {
  if (!opts.warm_start || opts.cache == nullptr) {
    return;
  }
  const std::uint64_t fp = fingerprint(tg);
  const std::vector<std::vector<JobId>> starts = collect_warm_starts(*opts.cache, fp, tg);
  if (starts.empty()) {
    return;
  }
  result.warm_starts = starts.size();

  // The overlay is a pure function of (tg, the options below, starts), so
  // its outcome is memoized under exactly those. The gate against today's
  // plan winner is re-applied on every hit.
  const WarmStartKey key{fp,
                         opts.processors,
                         opts.base_seed,
                         opts.seeds_per_strategy,
                         opts.max_iterations,
                         opts.restarts,
                         warm_start_digest(starts)};
  if (std::optional<WarmStartMemo> memo = opts.cache->lookup_warm_start(key)) {
    if (!strictly_better_score(memo->best, result.best)) {
      return;  // the plan winner stands, as a recompute would decide
    }
    if (memo->kept) {
      result.best = std::move(memo->best);
      finalize_result(tg, result.best);  // rank by numbers from the query graph
      result.seed = memo->seed;
      result.warm_start_won = true;
      return;
    }
    // Better than today's plan winner, yet the schedule was not kept: the
    // plan winner changed since the store. Recompute.
  }

  // One warm candidate per seed, evaluated serially (the plan fan-out is
  // the hot part; the overlay is a handful of local searches), ranked
  // among themselves by the regular candidate order.
  std::optional<StrategyResult> best_warm;
  std::uint64_t best_warm_seed = 0;
  const CachedWarmStartStrategy warm_strategy;
  for (int s = 0; s < opts.seeds_per_strategy; ++s) {
    StrategyOptions sopts = strategy_options_for(
        opts, SearchCandidate{warm_strategy.name(),
                              opts.base_seed + static_cast<std::uint64_t>(s)});
    sopts.warm_starts = starts;
    StrategyResult warm = warm_strategy.schedule(tg, sopts);
    warm.strategy = warm_strategy.name();
    ++result.warm_candidates;
    if (!best_warm.has_value() ||
        better_search_candidate(warm, sopts.seed, *best_warm, best_warm_seed)) {
      best_warm = std::move(warm);
      best_warm_seed = sopts.seed;
    }
  }

  if (!best_warm.has_value()) {
    return;  // seeds_per_strategy < 1 from a direct caller: nothing ran
  }
  // Keep the schedule only when it wins today: a memo that loses needs
  // just its score to lose again.
  const bool won = strictly_better_score(*best_warm, result.best);
  WarmStartMemo memo{*best_warm, best_warm_seed, won};
  if (!won) {
    memo.best.schedule = StaticSchedule();
    memo.best.detail.clear();
  }
  opts.cache->store_warm_start(key, std::move(memo));
  if (won) {
    result.best = std::move(*best_warm);
    result.seed = best_warm_seed;
    result.warm_start_won = true;
  }
}

ParallelSearchResult parallel_search(const TaskGraph& tg,
                                     const ParallelSearchOptions& opts,
                                     const StrategyRegistry& registry) {
  const std::vector<SearchCandidate> candidates =
      enumerate_search_candidates(opts, registry);

  // Cache probe, before any evaluation: a hit fills the candidate's result
  // slot directly; only misses go to the worker pool. Lookups score the
  // cached schedule against `tg` (once per memory entry), so hits and
  // fresh evaluations are ranked by the exact same numbers — cache warmth
  // cannot change the winner.
  std::vector<std::optional<StrategyResult>> results(candidates.size());
  std::vector<std::size_t> pending;
  std::size_t cache_hits = 0;
  const std::uint64_t fp = opts.cache != nullptr ? fingerprint(tg) : 0;
  const auto key_for = [&](std::size_t i) {
    return make_cache_key(fp, candidates[i].strategy,
                          strategy_options_for(opts, candidates[i]));
  };
  if (opts.cache != nullptr) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      results[i] = opts.cache->lookup(key_for(i), tg);
      if (results[i].has_value()) {
        ++cache_hits;
      } else {
        pending.push_back(i);
      }
    }
  } else {
    pending.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      pending[i] = i;
    }
  }

  int workers = opts.workers > 0
                    ? opts.workers
                    : static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  workers = std::min<int>(workers, static_cast<int>(std::max<std::size_t>(pending.size(), 1)));

  // Each slot is written by exactly one worker; the selection below ranks
  // over the index-ordered vector after the join, so the outcome cannot
  // depend on thread interleaving.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  const auto run_candidate = [&](std::size_t index) {
    const SearchCandidate& c = candidates[index];
    results[index] = registry.create(c.strategy)->schedule(tg, strategy_options_for(opts, c));
    // Rank by the candidate's registry key, not the strategy's
    // self-reported name(): cache hits rebuild the name from the key, and
    // a strategy registered under a different name must not rank
    // differently fresh vs. cached.
    results[index]->strategy = c.strategy;
  };

  const auto worker_loop = [&] {
    for (;;) {
      const std::size_t p = next.fetch_add(1, std::memory_order_relaxed);
      if (p >= pending.size()) {
        return;
      }
      try {
        run_candidate(pending[p]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };

  if (!pending.empty()) {
    if (workers <= 1) {
      worker_loop();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back(worker_loop);
      }
      for (std::thread& t : pool) {
        t.join();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }

  // Persist every fresh evaluation (the eventual winner among them), so a
  // repeat of this exact search is answered entirely from the cache.
  if (opts.cache != nullptr) {
    for (const std::size_t i : pending) {
      opts.cache->store(key_for(i), *results[i]);
    }
  }

  ParallelSearchResult out;
  for (const std::size_t i : pending) {
    out.evals_full += results[i]->full_evals;
    out.evals_incremental += results[i]->incremental_evals;
    out.evals_spliced += results[i]->spliced_evals;
  }

  std::size_t best_index = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (better_search_candidate(*results[i], candidates[i].seed, *results[best_index],
                                candidates[best_index].seed)) {
      best_index = i;
    }
  }

  out.best = std::move(*results[best_index]);
  out.seed = candidates[best_index].seed;
  out.candidates = candidates.size();
  out.evaluated = pending.size();
  out.cache_hits = cache_hits;
  out.workers_used = workers;
  apply_cached_warm_start(tg, opts, out);
  return out;
}

}  // namespace sched
}  // namespace fppn
