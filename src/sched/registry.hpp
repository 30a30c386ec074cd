// Name-keyed factory registry of scheduling strategies.
//
// The process-wide registry (StrategyRegistry::global()) comes pre-loaded
// with the built-in strategies: the four SP heuristics of §III-B and the
// local-search SP optimizer. New strategies plug in without touching any
// engine code:
//
//   StrategyRegistry::global().add("my-strategy", [] {
//     return std::make_unique<MyStrategy>();
//   });
//
// create() returns a fresh instance per call, so concurrent callers (the
// parallel search) never share strategy state.
//
// Thread safety: the registry itself is not internally synchronized —
// add() during concurrent create()/names() is a data race. Register
// strategies at startup (global() pre-loads the built-ins on first use,
// thread-safely via static-local initialization); afterwards the
// read-only operations (contains/names/create) are safe from any number
// of threads. Throw behavior is documented on NameRegistry
// (rt/registry.hpp): add() throws std::invalid_argument on empty or
// duplicate names, create() throws UnknownStrategyError listing every
// registered name.
#pragma once

#include "rt/registry.hpp"
#include "sched/strategy.hpp"

namespace fppn {
namespace sched {

/// Thrown by create() for a name with no registered factory. The message
/// lists every available strategy.
class UnknownStrategyError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class StrategyRegistry
    : public detail::NameRegistry<SchedulerStrategy, UnknownStrategyError> {
 public:
  StrategyRegistry() : NameRegistry("strategy") {}

  /// The process-wide registry, pre-loaded with the built-in strategies.
  /// First call initializes it thread-safely; the instance lives for the
  /// process lifetime.
  [[nodiscard]] static StrategyRegistry& global();
};

/// Registers the built-in strategies (the four SP heuristics, local
/// search, partitioned-wfd) into any registry;
/// global() calls this once.
/// Exposed for tests that want a private registry with the same contents.
/// Throws std::invalid_argument if any of the names is already taken.
void register_builtin_strategies(StrategyRegistry& registry);

}  // namespace sched
}  // namespace fppn
