// Parallel schedule search over the strategy registry.
//
// Fans a fixed candidate list — (strategy, seed) pairs: one candidate per
// non-seedable strategy, `seeds_per_strategy` per seedable one — out over a
// std::thread pool, evaluates each candidate independently, and selects
// the winner deterministically: feasibility first, then fewest deadline
// violations, then smallest makespan, then strategy name, then seed. The
// candidate list and the selection are both independent of the worker
// count, so the chosen schedule is bit-identical whether the search runs
// on 1 or 64 threads. The search stays in one process on purpose: worker
// threads share the graph and the cache for free, and on the same core
// count they beat separate worker processes (measured in
// docs/ARCHITECTURE.md, "Why the search runs in one process").
//
// The search fingerprints its graph once (ParallelSearchResult::fingerprint)
// and keys every cache probe and store from that value; Engine::solve
// reports it rather than hashing the graph again.
//
// With a ScheduleCache attached (ParallelSearchOptions::cache), candidates
// whose (fingerprint, strategy, seed, processors, budget) key is cached
// are answered from the cache instead of evaluated, and every freshly
// evaluated candidate — the winner included — is stored afterwards.
// Cached results are scored against the query graph (once per memory
// entry, on its first hit), so a fully warm search evaluates zero
// candidates yet selects the bit-identical winner of the cold run — also
// when the warm run is a later process opening the same cache directory
// through a fresh ScheduleCache. The cache is a pure memo: whatever it
// holds, even entries of other options or other graphs, the winner is
// the cacheless one (regression-tested in parallel_search_test.cpp).
//
// Every candidate runs on the evaluation kernel (sched/evaluator.hpp)
// and shares no scoring state with the others, so its result and its
// evaluation counts are the same on any worker count. The serial naive
// search in testing/reference_search.hpp picks the bit-identical winner,
// which the differential suites and the fuzz loop check.
//
// This is the default scheduling path of fppn_tool and the benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "sched/schedule_cache.hpp"
#include "sched/strategy.hpp"

namespace fppn {
namespace sched {

struct ParallelSearchOptions {
  std::int64_t processors = 2;
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int workers = 0;
  /// Strategy names to try; empty = every strategy in the registry.
  /// Unknown names throw UnknownStrategyError before any work starts.
  std::vector<std::string> strategies;
  /// Seeds tried per *seedable* strategy: base_seed .. base_seed+n-1.
  int seeds_per_strategy = 3;
  std::uint64_t base_seed = 1;
  /// Budget forwarded to iterative strategies.
  int max_iterations = 2000;
  int restarts = 2;
  /// Optional schedule cache (not owned; must outlive the call). Null
  /// disables caching. The same cache may serve concurrent searches.
  ScheduleCache* cache = nullptr;
};

struct ParallelSearchResult {
  StrategyResult best;             ///< winning candidate, fully evaluated
  std::uint64_t seed = 0;          ///< seed of the winning candidate
  std::size_t candidates = 0;      ///< total plan candidates considered
  std::size_t evaluated = 0;       ///< candidates actually run (cache misses)
  std::size_t cache_hits = 0;      ///< candidates answered by the cache
  int workers_used = 1;
  std::uint64_t fingerprint = 0;   ///< fingerprint(tg), computed once per search
  // Aggregated evaluation accounting over every candidate run this search
  // (cache hits contribute nothing — they ran no simulation). Independent
  // of the worker count, but informational only; excluded from every
  // determinism contract.
  std::uint64_t evals_full = 0;         ///< from-scratch simulations
  std::uint64_t evals_incremental = 0;  ///< checkpoint-resumed move scores
  std::uint64_t evals_spliced = 0;      ///< moves spliced into a memoized suffix
  /// Always 0: no search skips an evaluation. Kept only because the
  /// benchmark harness (perfbench/src/workloads.cpp) still reads it; it
  /// goes with that harness's next change.
  std::uint64_t visited_skips = 0;
  /// Always 0: no search runs a candidate outside its plan. Kept only
  /// because the benchmark harness still reads it, like visited_skips.
  std::size_t warm_candidates = 0;
};

/// One (strategy, seed) cell of the search's candidate matrix. The pair is
/// unique within one candidate list, which is what makes the winner order
/// total (see better_search_candidate).
struct SearchCandidate {
  std::string strategy;
  std::uint64_t seed = 0;

  friend bool operator==(const SearchCandidate& a, const SearchCandidate& b) {
    return a.strategy == b.strategy && a.seed == b.seed;
  }
  friend bool operator!=(const SearchCandidate& a, const SearchCandidate& b) {
    return !(a == b);
  }
};

/// Builds the deterministic candidate list for (opts, registry): one
/// candidate per non-seedable strategy, opts.seeds_per_strategy per
/// seedable one, in the order of opts.strategies (or sorted registry
/// order when empty). Single source of truth for the candidate matrix:
/// parallel_search evaluates exactly this list. Throws
/// std::invalid_argument for bad options / an empty list and
/// UnknownStrategyError for unknown names, before any scheduling work
/// starts.
[[nodiscard]] std::vector<SearchCandidate> enumerate_search_candidates(
    const ParallelSearchOptions& opts,
    const StrategyRegistry& registry = StrategyRegistry::global());

/// The StrategyOptions a candidate is evaluated with: processors and
/// budget from the search options, seed from the candidate. Also the
/// basis of the candidate's cache key. Deterministic; never throws.
[[nodiscard]] StrategyOptions strategy_options_for(const ParallelSearchOptions& opts,
                                                   const SearchCandidate& candidate);

/// The search's ranking: true when evaluated candidate (a, a_seed) beats
/// (b, b_seed). Feasibility first, then fewest deadline violations, then
/// smallest makespan (exact rational comparison — total and non-throwing
/// even for makespans whose cross products exceed 64 bits), then strategy
/// name, then seed. A strict total order over distinct (strategy, seed)
/// pairs, so the minimum is unique and independent of evaluation order.
[[nodiscard]] bool better_search_candidate(const StrategyResult& a, std::uint64_t a_seed,
                                           const StrategyResult& b, std::uint64_t b_seed);

/// Does nothing. Kept only because the benchmark harness's traced replay
/// (perfbench/src/workloads.cpp) still calls it; it goes with that
/// harness's next change.
void apply_cached_warm_start(const TaskGraph& tg, const ParallelSearchOptions& opts,
                             ParallelSearchResult& result);

/// Runs the search. Deterministic: for fixed (tg, opts, registry
/// contents), the returned winner is bit-identical regardless of worker
/// count, thread interleaving, cache warmth or cache contents. Throws
/// std::invalid_argument when the registry/options yield no candidates,
/// processors < 1, or seeds_per_strategy < 1; UnknownStrategyError for an
/// unknown strategy name (before any work starts). Any exception thrown by
/// a strategy or by a cache store is rethrown on the calling thread.
/// Thread safety: safe to call concurrently, including with a shared
/// registry and a shared cache.
[[nodiscard]] ParallelSearchResult parallel_search(
    const TaskGraph& tg, const ParallelSearchOptions& opts = {},
    const StrategyRegistry& registry = StrategyRegistry::global());

}  // namespace sched
}  // namespace fppn
