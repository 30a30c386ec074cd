#include "sched/parallel_search.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

namespace fppn {
namespace sched {

std::vector<SearchCandidate> enumerate_search_candidates(const ParallelSearchOptions& opts,
                                                         const StrategyRegistry& registry) {
  if (opts.processors < 1) {
    throw std::invalid_argument("parallel_search: processors must be >= 1");
  }
  if (opts.seeds_per_strategy < 1) {
    throw std::invalid_argument("parallel_search: seeds_per_strategy must be >= 1");
  }
  const std::vector<std::string> strategy_names =
      opts.strategies.empty() ? registry.names() : opts.strategies;
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

void apply_cached_warm_start(const TaskGraph& /*tg*/,
                             const ParallelSearchOptions& /*opts*/,
                             ParallelSearchResult& /*result*/) {}

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
  const std::uint64_t fp = fingerprint(tg);
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
  out.fingerprint = fp;
  return out;
}

}  // namespace sched
}  // namespace fppn
