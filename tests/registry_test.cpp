// Strategy and runtime registries: round-trip resolution of every
// registered name, error behavior on unknown/duplicate names, and
// registration of user-defined strategies/backends.
#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "sched/registry.hpp"

namespace fppn {
namespace {

TEST(StrategyRegistry, GlobalContainsBuiltins) {
  const auto names = sched::StrategyRegistry::global().names();
  ASSERT_GE(names.size(), 6u);
  for (const char* expected : {"alap-edf", "b-level", "deadline-monotonic",
                               "arrival-order", "local-search", "partitioned-wfd"}) {
    EXPECT_TRUE(sched::StrategyRegistry::global().contains(expected)) << expected;
  }
}

TEST(StrategyRegistry, EveryNameResolvesAndRoundTrips) {
  auto& registry = sched::StrategyRegistry::global();
  for (const std::string& name : registry.names()) {
    const auto strategy = registry.create(name);
    ASSERT_NE(strategy, nullptr) << name;
    // Round-trip: the instance reports the key it was registered under.
    EXPECT_EQ(strategy->name(), name);
    EXPECT_FALSE(strategy->description().empty()) << name;
  }
}

TEST(StrategyRegistry, NamesAreSorted) {
  const auto names = sched::StrategyRegistry::global().names();
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(StrategyRegistry, UnknownNameThrowsWithAvailableList) {
  try {
    (void)sched::StrategyRegistry::global().create("no-such-strategy");
    FAIL() << "expected UnknownStrategyError";
  } catch (const sched::UnknownStrategyError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-strategy"), std::string::npos);
    EXPECT_NE(what.find("alap-edf"), std::string::npos);
  }
}

TEST(StrategyRegistry, RejectsBadRegistrations) {
  sched::StrategyRegistry registry;
  sched::register_builtin_strategies(registry);
  EXPECT_THROW(registry.add("", [] {
    return sched::StrategyRegistry::global().create("alap-edf");
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("alap-edf",
                            [] {
                              return sched::StrategyRegistry::global().create("alap-edf");
                            }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("null-factory", nullptr), std::invalid_argument);
  // Names become cache-entry file names, schedule-entry tokens and
  // command-line words, so the lowercase/digits/dashes contract is enforced.
  const auto factory = [] {
    return sched::StrategyRegistry::global().create("alap-edf");
  };
  EXPECT_THROW(registry.add("has space", factory), std::invalid_argument);
  EXPECT_THROW(registry.add("has/slash", factory), std::invalid_argument);
  EXPECT_THROW(registry.add("UpperCase", factory), std::invalid_argument);
  EXPECT_NO_THROW(registry.add("ok-name-2", factory));
}

TEST(StrategyRegistry, UserStrategyPlugsIn) {
  // Registering a new strategy is one add() call; the engine then finds it
  // by name with no other code changes.
  sched::StrategyRegistry registry;
  sched::register_builtin_strategies(registry);
  registry.add("alias-of-alap", [] {
    return sched::StrategyRegistry::global().create("alap-edf");
  });
  EXPECT_TRUE(registry.contains("alias-of-alap"));
  EXPECT_EQ(registry.create("alias-of-alap")->name(), "alap-edf");
}

TEST(RuntimeRegistry, GlobalContainsBothBackends) {
  const auto names = runtime::RuntimeRegistry::global().names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "threads");
  EXPECT_EQ(names[1], "vm");
}

TEST(RuntimeRegistry, EveryNameResolvesAndRoundTrips) {
  auto& registry = runtime::RuntimeRegistry::global();
  for (const std::string& name : registry.names()) {
    const auto backend = registry.create(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    EXPECT_FALSE(backend->description().empty()) << name;
  }
}

TEST(RuntimeRegistry, UnknownNameThrowsWithAvailableList) {
  try {
    (void)runtime::make_runtime("gpu");
    FAIL() << "expected UnknownRuntimeError";
  } catch (const runtime::UnknownRuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu"), std::string::npos);
    EXPECT_NE(what.find("vm"), std::string::npos);
    EXPECT_NE(what.find("threads"), std::string::npos);
  }
}

}  // namespace
}  // namespace fppn
