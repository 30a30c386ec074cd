// The vm's frame loop on int64 ticks against its exact Time
// instantiation, the oracle: every trace field, the misses, the counters,
// span_end and the histories must be bit-identical. Reached through
// testing::VmTicksProbe, so run_static_order_vm carries no toggle. Also
// pins the runs that must leave the tick loop: a script instant off the
// grid, a fractional actual_time answer, a per_job_sync off the grid,
// and int64 overflow.
#include "runtime/vm_runtime.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "apps/fms.hpp"
#include "gen/scenario.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace testing {

/// Runs the vm's frame loop on a chosen timebase, reached as a friend so
/// the production entry point carries no toggle for it.
struct VmTicksProbe {
  /// The run as run_static_order_vm does it (ticks when the run fits);
  /// `on_ticks` tells whether the tick loop produced it.
  static RunResult ticks_first(const Network& net, const DerivedTaskGraph& derived,
                               const StaticSchedule& schedule, const RunOptions& opts,
                               const InputScripts& inputs,
                               const std::map<ProcessId, SporadicScript>& scripts,
                               bool& on_ticks) {
    return VmFrameLoop::run(net, derived, schedule, opts, inputs, scripts, true, &on_ticks);
  }

  /// The exact Time loop alone.
  static RunResult exact(const Network& net, const DerivedTaskGraph& derived,
                         const StaticSchedule& schedule, const RunOptions& opts,
                         const InputScripts& inputs,
                         const std::map<ProcessId, SporadicScript>& scripts) {
    bool on_ticks = true;
    RunResult r =
        VmFrameLoop::run(net, derived, schedule, opts, inputs, scripts, false, &on_ticks);
    EXPECT_FALSE(on_ticks);
    return r;
  }
};

}  // namespace testing

namespace {

using testing::VmTicksProbe;

void expect_identical(const RunResult& got, const RunResult& want) {
  const auto& g = got.trace.events();
  const auto& w = want.trace.events();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    SCOPED_TRACE("trace event " + std::to_string(i));
    EXPECT_EQ(g[i].kind, w[i].kind);
    EXPECT_EQ(g[i].frame, w[i].frame);
    EXPECT_EQ(g[i].processor, w[i].processor);
    EXPECT_EQ(g[i].label, w[i].label);
    EXPECT_EQ(g[i].time, w[i].time);
    EXPECT_EQ(g[i].end, w[i].end);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  ASSERT_EQ(got.misses.size(), want.misses.size());
  for (std::size_t i = 0; i < got.misses.size(); ++i) {
    EXPECT_EQ(got.misses[i].frame, want.misses[i].frame);
    EXPECT_EQ(got.misses[i].job, want.misses[i].job);
    EXPECT_EQ(got.misses[i].completion, want.misses[i].completion);
    EXPECT_EQ(got.misses[i].deadline, want.misses[i].deadline);
  }
  EXPECT_EQ(got.jobs_executed, want.jobs_executed);
  EXPECT_EQ(got.false_skips, want.false_skips);
  EXPECT_EQ(got.span_end, want.span_end);
  EXPECT_TRUE(got.histories.channel_writes == want.histories.channel_writes);
  EXPECT_TRUE(got.histories.output_samples == want.histories.output_samples);
}

/// Runs both loops, expects identical results, and returns whether the
/// tick loop produced the first.
bool expect_ticks_match_exact(const Network& net, const DerivedTaskGraph& derived,
                              const StaticSchedule& schedule, const RunOptions& opts,
                              const InputScripts& inputs,
                              const std::map<ProcessId, SporadicScript>& scripts) {
  bool on_ticks = false;
  const RunResult ticks =
      VmTicksProbe::ticks_first(net, derived, schedule, opts, inputs, scripts, on_ticks);
  const RunResult exact = VmTicksProbe::exact(net, derived, schedule, opts, inputs, scripts);
  expect_identical(ticks, exact);
  return on_ticks;
}

struct Fms {
  static constexpr std::int64_t kFrames = 10;

  explicit Fms(const WcetMap& wcets)
      : app(apps::build_fms(/*reduced_period=*/true)),
        derived(derive_task_graph(app.net, wcets)),
        schedule(testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2)),
        inputs(app.make_inputs(kFrames * 50, 5)),
        commands(app.random_commands(Time() + derived.hyperperiod * Rational(kFrames - 1),
                                     5)) {
    opts.frames = kFrames;
  }
  Fms() : Fms(apps::build_fms(true).default_wcets()) {}

  bool check(const RunOptions& o) const {
    return expect_ticks_match_exact(app.net, derived, schedule, o, inputs, commands);
  }
  bool check(const std::map<ProcessId, SporadicScript>& scripts) const {
    return expect_ticks_match_exact(app.net, derived, schedule, opts, inputs, scripts);
  }

  apps::FmsApp app;
  DerivedTaskGraph derived;
  StaticSchedule schedule;
  InputScripts inputs;
  std::map<ProcessId, SporadicScript> commands;
  RunOptions opts;
};

TEST(VmTicks, MatchesExactOnEveryGeneratedFamily) {
  constexpr std::int64_t kFrames = 10;
  std::size_t tick_runs = 0;
  std::size_t exact_runs = 0;
  std::size_t misses = 0;
  std::size_t false_skips = 0;
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      DerivedTaskGraph derived;
      try {
        derived = derive_task_graph(s.net, s.wcets);
      } catch (const std::invalid_argument&) {
        continue;  // a scenario that does not derive has no schedule to run
      }
      const auto scripts = gen::jittered_scripts(s.net, seed, kFrames, derived.hyperperiod);
      const TaskGraph& tg = derived.graph;
      for (std::int64_t processors = 1; processors <= 2; ++processors) {
        const StaticSchedule schedule =
            testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, processors);
        // WCETs; the §V-A overhead; actual times on the grid, some
        // overrunning threefold.
        for (int variant = 0; variant < 3; ++variant) {
          SCOPED_TRACE(s.name + " on " + std::to_string(processors) +
                       " processor(s), variant " + std::to_string(variant));
          RunOptions opts;
          opts.frames = kFrames;
          if (variant == 1) {
            opts.overhead = OverheadModel::mppa_measured();
          }
          if (variant == 2) {
            opts.actual_time = [&tg](JobId id, std::int64_t frame) {
              const Duration wcet = tg.job(id).wcet;
              return (id.value() + static_cast<std::size_t>(frame)) % 4 == 0
                         ? wcet * Rational(3)
                         : wcet;
            };
          }
          const bool on_ticks =
              expect_ticks_match_exact(s.net, derived, schedule, opts, {}, scripts);
          (on_ticks ? tick_runs : exact_runs) += 1;
          const RunResult r = run_static_order_vm(s.net, derived, schedule, opts, {}, scripts);
          misses += r.misses.size();
          false_skips += r.false_skips;
        }
      }
    }
  }
  EXPECT_GE(tick_runs, 8u * 6u);
  EXPECT_GT(exact_runs, 0u);  // the near-overflow family's grid leaves int64
  EXPECT_GT(misses, 0u);
  EXPECT_GT(false_skips, 0u);
}

TEST(VmTicks, MatchesExactOnFmsCommandSeeds) {
  const Fms fms;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("commands seed " + std::to_string(seed));
    const auto commands = fms.app.random_commands(
        Time() + fms.derived.hyperperiod * Rational(Fms::kFrames - 1), seed);
    EXPECT_TRUE(fms.check(commands));
  }
  RunOptions overhead = fms.opts;
  overhead.overhead = OverheadModel::mppa_measured();
  overhead.overhead.per_job_sync = Duration::ms(1);  // on the grid: stays on ticks
  EXPECT_TRUE(fms.check(overhead));
}

TEST(VmTicks, ScriptInstantOffTheGridFallsBack) {
  const Fms fms;
  std::map<ProcessId, SporadicScript> scripts = fms.commands;
  // One process's stamps all shifted by 1/3 ms: still admissible, now off
  // the FMS's whole-ms grid.
  const ProcessId p = fms.app.gps_config;
  std::vector<Time> shifted;
  for (const Time& t : scripts.at(p).times()) {
    shifted.push_back(t + Duration::ratio_ms(1, 3));
  }
  ASSERT_FALSE(shifted.empty());
  const EventSpec& event = fms.app.net.process(p).event;
  scripts[p] = SporadicScript(shifted, event.burst, event.period);
  EXPECT_FALSE(fms.check(scripts));
}

TEST(VmTicks, FractionalActualTimeFallsBackAndReplaysTheAnswers) {
  const Fms fms;
  const TaskGraph& tg = fms.derived.graph;
  std::size_t calls = 0;
  RunOptions opts = fms.opts;
  // Whole-ms answers until frame 6, then every fifth job takes 1/3 ms
  // more: the tick loop gives up mid-run.
  opts.actual_time = [&tg, &calls](JobId id, std::int64_t frame) {
    ++calls;
    const Duration wcet = tg.job(id).wcet;
    return frame >= 6 && id.value() % 5 == 0 ? wcet + Duration::ratio_ms(1, 3) : wcet;
  };
  bool on_ticks = true;
  const RunResult r = VmTicksProbe::ticks_first(fms.app.net, fms.derived, fms.schedule, opts,
                                                fms.inputs, fms.commands, on_ticks);
  EXPECT_FALSE(on_ticks);
  EXPECT_EQ(calls, r.jobs_executed);  // once per executed job, despite the restart
  EXPECT_FALSE(fms.check(opts));
}

TEST(VmTicks, PerJobSyncOffTheGridFallsBack) {
  const Fms fms;
  RunOptions opts = fms.opts;
  opts.overhead = OverheadModel::mppa_measured();
  opts.overhead.per_job_sync = Duration::ratio_ms(1, 7);
  EXPECT_FALSE(fms.check(opts));
}

TEST(VmTicks, Int64OverflowFallsBack) {
  // A tenth-ms FMS: its grid has 10 ticks per ms. A stamp far past the
  // horizon is on that grid in exact time but not in int64 ticks.
  WcetMap wcets = apps::build_fms(true).default_wcets();
  for (auto& [process, wcet] : wcets) {
    wcet = wcet - Duration::ratio_ms(1, 10);
  }
  const Fms fms(wcets);
  EXPECT_TRUE(fms.check(fms.opts));
  std::map<ProcessId, SporadicScript> scripts = fms.commands;
  const ProcessId p = fms.app.irs_config;
  std::vector<Time> far = scripts.at(p).times();
  far.push_back(Time::ms(std::numeric_limits<std::int64_t>::max() / 10 + 1));
  const EventSpec& event = fms.app.net.process(p).event;
  scripts[p] = SporadicScript(far, event.burst, event.period);
  EXPECT_FALSE(fms.check(scripts));

  // An execution time whose sum leaves int64: the exact loop takes over
  // and its RationalError reaches the caller, as before ticks.
  RunOptions opts = fms.opts;
  opts.actual_time = [](JobId, std::int64_t) {
    return Duration::ms(std::numeric_limits<std::int64_t>::max() / 4);
  };
  bool on_ticks = true;
  EXPECT_THROW((void)VmTicksProbe::ticks_first(fms.app.net, fms.derived, fms.schedule, opts,
                                               fms.inputs, fms.commands, on_ticks),
               RationalError);
  EXPECT_THROW((void)VmTicksProbe::exact(fms.app.net, fms.derived, fms.schedule, opts,
                                         fms.inputs, fms.commands),
               RationalError);
}

}  // namespace
}  // namespace fppn
