// VM-vs-thread Runtime parity on the fig1 network: both backends, driven
// through the uniform runtime::Runtime interface with the same schedule,
// inputs and sporadic scripts, must produce functionally equal execution
// histories (Prop. 2.1 + Prop. 4.1), equal to the zero-delay reference.
// On generated sporadic scenarios and boundary-stamped scripts, both must
// mark the same server jobs 'false' in every frame.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/fig1.hpp"
#include "gen/scenario.hpp"
#include "runtime/runtime.hpp"
#include "sched/parallel_search.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

struct Fixture {
  apps::Fig1App app = apps::build_fig1();
  DerivedTaskGraph derived = derive_task_graph(app.net, app.fig3_wcets());
  InputScripts inputs =
      app.make_inputs({3.5, 1.5, 4.0, 1.0, 5.5, 9.0, 2.5, 6.0}, {1.5, 2.5, 3.5, 4.5});
  std::map<ProcessId, SporadicScript> sporadics;
  StaticSchedule schedule;

  Fixture() {
    // Both invocations early enough that every run horizon in this file
    // (frames >= 1) serves them; a near-horizon invocation would be served
    // by the static-order runs one frame later than the zero-delay
    // reference records it.
    sporadics.emplace(app.coef_b,
                      SporadicScript({Time::ms(50), Time::ms(130)}, 2,
                                     Duration::ms(700)));
    sched::ParallelSearchOptions opts;
    opts.processors = 2;
    opts.seeds_per_strategy = 1;
    schedule = sched::parallel_search(derived.graph, opts).best.schedule;
  }
};

TEST(RuntimeParity, VmAndThreadsProduceFunctionallyEqualHistories) {
  const std::int64_t frames = 3;
  Fixture f;

  runtime::RunOptions vm_opts;
  vm_opts.frames = frames;
  const RunResult vm = runtime::make_runtime("vm")->run(
      f.app.net, f.derived, f.schedule, vm_opts, f.inputs, f.sporadics);

  runtime::RunOptions th_opts;
  th_opts.frames = frames;
  th_opts.micros_per_model_ms = 100.0;  // 10x real time: slack for sanitizer/CI load
  const RunResult th = runtime::make_runtime("threads")->run(
      f.app.net, f.derived, f.schedule, th_opts, f.inputs, f.sporadics);

  EXPECT_EQ(vm.jobs_executed, th.jobs_executed);
  EXPECT_EQ(vm.false_skips, th.false_skips);
  // Equal histories presuppose met deadlines (runtime.hpp): the miss
  // counts tell a broken precondition from a broken runtime.
  EXPECT_TRUE(vm.histories.functionally_equal(th.histories))
      << "misses: vm " << vm.misses.size() << ", threads " << th.misses.size() << "\n"
      << th.histories.diff(vm.histories, f.app.net);
}

TEST(RuntimeParity, BothBackendsMatchZeroDelayReference) {
  const std::int64_t frames = 2;
  Fixture f;
  const ZeroDelayResult ref = zero_delay_reference(f.app.net, f.derived.hyperperiod,
                                                   frames, f.inputs, f.sporadics);
  for (const std::string& name : runtime::RuntimeRegistry::global().names()) {
    runtime::RunOptions opts;
    opts.frames = frames;
    opts.micros_per_model_ms = 100.0;
    const RunResult run = runtime::make_runtime(name)->run(
        f.app.net, f.derived, f.schedule, opts, f.inputs, f.sporadics);
    EXPECT_TRUE(run.histories.functionally_equal(ref.histories))
        << name << " (" << run.misses.size() << " misses):\n"
        << run.histories.diff(ref.histories, f.app.net);
  }
}

TEST(RuntimeParity, BackendSpecificOptionsAreIgnoredByTheOther) {
  // The shared RunOptions carries the union of backend knobs; a backend
  // must ignore fields it does not model rather than reject them.
  const std::int64_t frames = 1;
  Fixture f;
  runtime::RunOptions opts;
  opts.frames = frames;
  opts.overhead = OverheadModel::mppa_measured();  // vm-only knob
  opts.micros_per_model_ms = 100.0;                 // threads-only knob
  const RunResult vm = runtime::make_runtime("vm")->run(f.app.net, f.derived,
                                                        f.schedule, opts, f.inputs,
                                                        f.sporadics);
  const RunResult th = runtime::make_runtime("threads")->run(
      f.app.net, f.derived, f.schedule, opts, f.inputs, f.sporadics);
  EXPECT_TRUE(vm.histories.functionally_equal(th.histories));
}

TEST(RuntimeParity, IncompleteScheduleRejectedByBothBackends) {
  Fixture f;
  StaticSchedule empty(f.derived.graph.job_count(), 2);  // nothing placed
  for (const std::string& name : runtime::RuntimeRegistry::global().names()) {
    runtime::RunOptions opts;
    EXPECT_THROW((void)runtime::make_runtime(name)->run(f.app.net, f.derived, empty,
                                                        opts, f.inputs, f.sporadics),
                 std::invalid_argument)
        << name;
  }
}

/// The names of one frame's 'false' server jobs, sorted (the threads
/// backend merges its per-worker logs in worker order).
std::vector<std::string> false_skips_of_frame(const RunResult& run, std::int64_t frame) {
  std::vector<std::string> names;
  for (const TraceEvent& e : run.trace.events()) {
    if (e.kind == TraceEventKind::kFalseSkip && e.frame == frame) {
      names.emplace_back(e.label);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Runs `frames` frames on both backends (threads at ~10 ms of wall time
/// per frame), checks that they skip the same server jobs, and returns
/// the vm's run.
RunResult expect_same_false_skips(const Network& net, const DerivedTaskGraph& derived,
                                  const std::map<ProcessId, SporadicScript>& scripts,
                                  std::int64_t frames) {
  const StaticSchedule schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);
  runtime::RunOptions opts;
  opts.frames = frames;
  opts.micros_per_model_ms = 10000.0 / derived.hyperperiod.to_double_ms();
  RunResult vm = runtime::make_runtime("vm")->run(net, derived, schedule, opts, {}, scripts);
  const RunResult th =
      runtime::make_runtime("threads")->run(net, derived, schedule, opts, {}, scripts);
  EXPECT_EQ(vm.false_skips, th.false_skips);
  for (std::int64_t frame = 0; frame < frames; ++frame) {
    EXPECT_EQ(false_skips_of_frame(vm, frame), false_skips_of_frame(th, frame))
        << "frame " << frame;
  }
  return vm;
}

TEST(RuntimeParity, BothBackendsSkipTheSameServerJobsOnGeneratedScenarios) {
  constexpr std::int64_t kFrames = 3;
  std::size_t runs = 0;
  std::size_t skips = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const gen::Scenario s = gen::make_scenario(gen::Family::kSporadic, seed);
    DerivedTaskGraph derived;
    try {
      derived = derive_task_graph(s.net, s.wcets);
    } catch (const std::invalid_argument&) {
      continue;  // a scenario that does not derive has no schedule to run
    }
    SCOPED_TRACE(s.name);
    const auto scripts = gen::jittered_scripts(s.net, seed, kFrames, derived.hyperperiod);
    skips += expect_same_false_skips(s.net, derived, scripts, kFrames).false_skips;
    ++runs;
  }
  EXPECT_GE(runs, 10u);
  EXPECT_GT(skips, 0u);  // the jittered scripts leave some server jobs 'false'
}

TEST(RuntimeParity, BothBackendsSkipTheSameServerJobsForBoundaryInvocations) {
  // A user U (T = 100 ms) and a sporadic S (m = 1, T = 200 ms) feeding it:
  // one server job S[1] per 100 ms frame, subset boundaries 0, 100, 200.
  // S fires exactly on the boundaries 0 and 200. With S -> U the windows
  // are (a, b]: frames 0 and 2 are real and frame 1 is 'false'. Without
  // it the rate-monotonic U -> S makes them [a, b): 0 is served in frame 1
  // and 200 in frame 3, so frames 0 and 2 are 'false'.
  const std::vector<std::string> none;
  const std::vector<std::string> server_job = {"S[1]"};
  for (const bool priority_over_user : {true, false}) {
    SCOPED_TRACE(priority_over_user ? "S -> U, (a, b]" : "U -> S, [a, b)");
    gen::ScenarioSpec spec;
    spec.processes.push_back(gen::ProcessSpec{"U", false, 1, Duration::ms(100),
                                              Duration::ms(100), Duration::ms(5)});
    spec.processes.push_back(gen::ProcessSpec{"S", true, 1, Duration::ms(200),
                                              Duration::ms(200), Duration::ms(5)});
    spec.channels.push_back(gen::ChannelSpec{"c", ChannelKind::kFifo, 1, 1, 0});
    if (priority_over_user) {
      spec.priorities.push_back(gen::PrioritySpec{1, 0});
    }
    const gen::BuiltScenario built = gen::build_scenario(spec);
    const DerivedTaskGraph derived = derive_task_graph(built.net, built.wcets);
    const ProcessId s = *built.net.find_process("S");
    ASSERT_EQ(derived.servers.at(s).priority_over_user, priority_over_user);
    ASSERT_EQ(derived.hyperperiod, Duration::ms(100));
    std::map<ProcessId, SporadicScript> scripts;
    scripts.emplace(s, SporadicScript({Time::ms(0), Time::ms(200)}, 1, Duration::ms(200)));

    const RunResult vm = expect_same_false_skips(built.net, derived, scripts, 3);
    EXPECT_EQ(false_skips_of_frame(vm, 0), priority_over_user ? none : server_job);
    EXPECT_EQ(false_skips_of_frame(vm, 1), priority_over_user ? server_job : none);
    EXPECT_EQ(false_skips_of_frame(vm, 2), priority_over_user ? none : server_job);
  }
}

}  // namespace
}  // namespace fppn
