// Differential fuzz loop over generated scenarios (ROADMAP item 4).
//
// Per seed: generate a scenario, derive its task graph, and cross-check
// the parallel search's winning schedule three ways —
//  1. roundtrip: write_network -> parse -> re-derive must be
//     fingerprint-identical (the repro path must be lossless),
//  2. reference: the production search (evaluation kernel, 1-2 workers)
//     must pick a bit-identical winner to the naive serial
//     reference search (testing/reference_search.hpp),
//  3. ta-oracle: the timed-automata translation executed one frame must
//     reproduce the winning schedule's exact start/end times (gated on
//     structurally clean schedules that fit the oracle horizon),
// plus a policy-trace sanity check on sporadic scenarios: the static-order
// VM run under seeded jittered invocation scripts must keep per-processor
// mutual exclusion, precedence order and WCET-long spans.
//
// Any mismatch is delta-debugged down to a minimal ScenarioSpec (drop
// processes/channels/priorities, simplify rates, halve WCETs) that still
// triggers the same check, and written atomically as a commented `.fppn`
// repro that `fppn_tool fuzz --replay` re-executes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gen/scenario.hpp"

namespace fppn::gen {

struct FuzzConfig {
  /// Fixed processor count; 0 samples 1..3 per scenario from the seed.
  std::int64_t processors = 0;
  /// Search budget per scenario — small on purpose: breadth beats depth
  /// for differential coverage.
  int max_iterations = 120;
  int restarts = 1;
  /// Upper bound on candidate spec evaluations during shrinking.
  int shrink_limit = 400;
  /// Test-only fault injection: report a synthetic mismatch for any
  /// scenario whose derived graph has >= 2 jobs. Exercises the shrink +
  /// repro + replay pipeline end to end.
  bool inject_bug = false;
};

/// One detected disagreement, named by the check that tripped.
struct FuzzMismatch {
  std::string check;   ///< "derivation", "fingerprint", "roundtrip",
                       ///< "reference-winner", "ta-oracle", "policy-trace",
                       ///< "injected-bug"
  std::string detail;  ///< human-readable specifics
  std::int64_t processors = 2;
};

struct FuzzVerdict {
  std::optional<FuzzMismatch> mismatch;
  std::size_t jobs = 0;        ///< derived job count (0 when derivation failed)
  bool ta_checked = false;     ///< the TA-oracle gate admitted this scenario
  bool trace_checked = false;  ///< the policy-trace check ran
};

/// Runs every check on an already-built network. `seed` drives the
/// worker-count/processor sampling and the jittered scripts; `processors`
/// <= 0 samples from the seed.
[[nodiscard]] FuzzVerdict check_network(const Network& net, const WcetMap& wcets,
                                        std::uint64_t seed, const FuzzConfig& cfg,
                                        std::int64_t processors);

[[nodiscard]] FuzzVerdict check_scenario(const Scenario& scenario,
                                         const FuzzConfig& cfg);

/// Greedy delta-debugging: repeatedly applies the first reduction (drop a
/// process and everything referencing it, drop a channel/priority, reset
/// bursts, simplify rates to integers, halve or unit WCETs) whose result
/// still triggers `mismatch.check`, until none applies or the shrink
/// budget is exhausted. Returns the reduced scenario; `steps_out` (when
/// non-null) receives the number of candidate evaluations spent.
[[nodiscard]] Scenario shrink_scenario(const Scenario& scenario,
                                       const FuzzMismatch& mismatch,
                                       const FuzzConfig& cfg,
                                       int* steps_out = nullptr);

/// Writes `scenario` as a replayable `.fppn` repro ("# fppn-fuzz" header
/// comments + the network text) atomically into `dir` (created when
/// missing). Returns the file path.
std::string write_repro(const Scenario& scenario, const FuzzMismatch& mismatch,
                        const std::string& dir);

struct ReplayOutcome {
  FuzzVerdict verdict;
  std::string expected_check;  ///< "check=" header value, "" when absent
  std::uint64_t seed = 0;
};

/// Parses a repro file (or any plain `.fppn` with complete WCETs) and
/// re-runs the checks with the header's seed/processors. Throws
/// std::runtime_error when the file is unreadable or WCETs are missing.
[[nodiscard]] ReplayOutcome replay_repro(const std::string& path,
                                         const FuzzConfig& cfg);

struct FuzzRunConfig {
  std::uint64_t base_seed = 1;
  std::int64_t seeds = 100;
  /// Families to draw from (round-robin by seed); empty = all.
  std::vector<Family> families;
  /// Repro output directory; empty = mismatches reported but not written.
  std::string repro_dir;
  FuzzConfig check;
};

struct FuzzStats {
  std::size_t scenarios = 0;
  std::size_t jobs = 0;          ///< total derived jobs across scenarios
  std::size_t ta_checked = 0;    ///< scenarios the TA-oracle gate admitted
  std::size_t trace_checked = 0; ///< scenarios the policy-trace check ran on
  std::map<std::string, std::size_t> per_family;
  std::vector<FuzzMismatch> mismatches;
  std::vector<std::string> repro_paths;  ///< parallel to `mismatches` when written
};

/// The fuzz loop: seeds base_seed..base_seed+seeds-1, shrink + write a
/// repro per mismatch. Deterministic for a given config.
[[nodiscard]] FuzzStats run_fuzz(const FuzzRunConfig& cfg);

}  // namespace fppn::gen
