// Seeded, platform-deterministic scenario generator (ROADMAP item 4).
//
// Produces parameterized workload families the paper's three apps never
// exercise: deep pipelines, wide fan-outs, diamonds, random DAGs,
// multi-rate graphs, sporadic networks with jittered arrivals, fractional
// period/WCET mixes that force the Rational fallback, and near-overflow
// magnitudes that force the tick-timebase fallback. Everything is a pure
// function of the seed: the same seed yields a byte-identical `.fppn`
// rendering on every platform, thread count and process invocation (the
// generator draws from gen::Rng, never from std:: distributions).
//
// Scenarios (ScenarioSpec -> Network + WcetMap) feed the fuzz loop in
// gen/fuzz.*; the spec stays mutable so the shrinker can delta-debug it.
// The graph-level families with zero-WCET jobs, which network derivation
// rejects by design, are test inputs (tests/graph_families.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fppn/network.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn::gen {

enum class Family {
  kPipeline,      ///< deep chain, equal rates, optional buffered links
  kFanOut,        ///< one source, wide worker layer, one sink
  kDiamond,       ///< source -> parallel branches -> join
  kRandomDag,     ///< random forward channel structure
  kMultiRate,     ///< harmonic / near-harmonic period mixes, bursts
  kSporadic,      ///< sporadic processes + periodic user (server derivation)
  kFractional,    ///< fractional periods and WCETs (Rational stress)
  kNearOverflow,  ///< denominators that overflow the int64 tick timebase
};

[[nodiscard]] const std::vector<Family>& all_families();
[[nodiscard]] std::string to_string(Family family);
[[nodiscard]] std::optional<Family> parse_family(const std::string& text);

/// Mutable description of one generated process. `sporadic` implies the
/// (burst, period) bound semantics; otherwise burst > 1 means
/// multi-periodic.
struct ProcessSpec {
  std::string name;
  bool sporadic = false;
  int burst = 1;
  Duration period;
  Duration deadline;
  Duration wcet;
};

/// Channel writer -> reader by process index. capacity >= 2 marks a
/// buffered FIFO (both endpoints must stay periodic, equal rate).
struct ChannelSpec {
  std::string name;
  ChannelKind kind = ChannelKind::kFifo;
  int capacity = 1;
  std::size_t writer = 0;
  std::size_t reader = 0;
};

/// Explicit functional-priority edge higher -> lower (process indices).
struct PrioritySpec {
  std::size_t higher = 0;
  std::size_t lower = 0;
};

/// The mutable scenario description the shrinker operates on. Building
/// always finishes with auto_rate_monotonic_priorities(), so the spec only
/// needs explicit priorities where the rate-monotonic rule would pick the
/// wrong direction.
struct ScenarioSpec {
  std::vector<ProcessSpec> processes;
  std::vector<ChannelSpec> channels;
  std::vector<PrioritySpec> priorities;
};

struct BuiltScenario {
  Network net;
  WcetMap wcets;
};

/// Validates and builds the spec (throws std::invalid_argument /
/// std::logic_error on inconsistent specs, exactly like NetworkBuilder).
[[nodiscard]] BuiltScenario build_scenario(const ScenarioSpec& spec);

struct Scenario {
  ScenarioSpec spec;
  Network net;
  WcetMap wcets;
  Family family = Family::kPipeline;
  std::uint64_t seed = 0;
  std::string name;  ///< "pipeline-42"
};

/// Generates one scenario. Deterministic: a pure function of (family,
/// seed). Distinct seeds below 100003 are guaranteed to produce distinct
/// task-graph fingerprints (a seed-derived epsilon is folded into process
/// 0's deadline).
[[nodiscard]] Scenario make_scenario(Family family, std::uint64_t seed);

/// Family chosen round-robin from the seed.
[[nodiscard]] Scenario make_scenario(std::uint64_t seed);

/// The scenario rendered in the `.fppn` text format (io::write_network).
[[nodiscard]] std::string scenario_text(const Scenario& scenario);

/// Admissible jittered invocation scripts for every sporadic process of
/// `net` over `frames` hyperperiods: per (m, T) window, 0..m invocations
/// at a jittered anchor — some server jobs become 'false', others fire
/// early inside their window. Deterministic per seed.
[[nodiscard]] std::map<ProcessId, SporadicScript> jittered_scripts(
    const Network& net, std::uint64_t seed, std::int64_t frames,
    const Duration& hyperperiod);

}  // namespace fppn::gen
