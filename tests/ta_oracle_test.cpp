// Cross-validation: the schedule-to-TA translation executed by the TA
// engine must reproduce the VM runtime's job start/end times for one
// frame with WCET execution and zero overhead — the same role the
// BIP-based TA translation plays in the paper's toolchain.
#include "ta/translate.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "apps/fig1.hpp"
#include "apps/fft.hpp"
#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "gen/scenario.hpp"
#include "runtime/vm_runtime.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

/// Runs the VM for one frame (servers all invoked at their boundaries so
/// nothing is skipped) and collects job start/end model times.
std::map<std::string, std::pair<Time, Time>> vm_times(
    const Network& net, const DerivedTaskGraph& derived,
    const StaticSchedule& schedule,
    const std::map<ProcessId, SporadicScript>& scripts) {
  RunOptions opts;
  opts.frames = 1;
  const RunResult r = run_static_order_vm(net, derived, schedule, opts, {}, scripts);
  std::map<std::string, std::pair<Time, Time>> out;
  for (const TraceEvent& e : r.trace.events()) {
    if (e.kind == TraceEventKind::kJobRun) {
      out.emplace(e.label, std::make_pair(e.time, *e.end));
    }
  }
  return out;
}

/// Scripts that invoke every server slot (burst m at every window start),
/// so no job is false-marked.
std::map<ProcessId, SporadicScript> saturate_sporadics(const Network& net,
                                                       const DerivedTaskGraph& derived) {
  std::map<ProcessId, SporadicScript> scripts;
  for (const auto& [p, info] : derived.servers) {
    std::vector<Time> times;
    const std::int64_t subsets =
        Rational::floor_div(derived.hyperperiod.value(), info.server_period.value());
    for (std::int64_t n = 1; n <= subsets; ++n) {
      const Time boundary = subset_boundary(info, 0, n, derived.hyperperiod);
      // A burst right at the boundary (right-closed windows) or just after
      // the window opens (left-closed).
      const Time t = info.priority_over_user ? boundary : boundary - info.server_period;
      for (int i = 0; i < info.burst; ++i) {
        if (t >= Time()) {
          times.push_back(t);
        }
      }
    }
    scripts.emplace(p, SporadicScript(std::move(times),
                                      net.process(p).event.burst,
                                      net.process(p).event.period));
  }
  return scripts;
}

void expect_oracle_matches_vm(const Network& net, const DerivedTaskGraph& derived,
                              std::int64_t processors) {
  const StaticSchedule schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, processors);
  const auto scripts = saturate_sporadics(net, derived);
  const auto vm = vm_times(net, derived, schedule, scripts);

  const ta::TaJobTimes oracle = ta::run_schedule_oracle(derived.graph, schedule);
  ASSERT_EQ(oracle.start.size(), derived.graph.job_count());
  for (const auto& [id, start] : oracle.start) {
    const std::string& name = derived.graph.job(id).name;
    const auto it = vm.find(name);
    ASSERT_NE(it, vm.end()) << name << " not executed by the VM";
    EXPECT_EQ(it->second.first, start) << "start of " << name;
    EXPECT_EQ(it->second.second, oracle.end.at(id)) << "end of " << name;
  }
}

TEST(TaOracle, Fig1OnTwoProcessors) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  expect_oracle_matches_vm(app.net, derived, 2);
}

TEST(TaOracle, Fig1OnThreeProcessors) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  expect_oracle_matches_vm(app.net, derived, 3);
}

TEST(TaOracle, FftOnTwoProcessors) {
  const auto app = apps::build_fft(8);
  const auto derived =
      derive_task_graph(app.net, app.uniform_wcets(Duration::ratio_ms(40, 3)));
  expect_oracle_matches_vm(app.net, derived, 2);
}

TEST(TaOracle, SkippedJobsBypassInstantly) {
  // Mark the CoefB servers skipped: FilterB[1] may start as soon as its
  // other predecessors allow, with the skip happening at the boundary.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const StaticSchedule schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);
  std::vector<JobId> skipped;
  for (const JobId id : derived.graph.jobs_of(app.coef_b)) {
    skipped.push_back(id);
  }
  const ta::TaJobTimes oracle =
      ta::run_schedule_oracle(derived.graph, schedule, skipped);
  // The skipped jobs have no start/end events.
  EXPECT_EQ(oracle.start.size(), derived.graph.job_count() - skipped.size());
  // And the VM with no sporadic invocations agrees on every executed job.
  const auto vm = vm_times(app.net, derived, schedule, {});
  for (const auto& [id, start] : oracle.start) {
    const std::string& name = derived.graph.job(id).name;
    const auto it = vm.find(name);
    ASSERT_NE(it, vm.end()) << name;
    EXPECT_EQ(it->second.first, start) << name;
  }
}

TEST(TaOracle, SkippedJobWaitsForItsPredecessors) {
  // S is 'false' and skipped; its predecessor A runs until 10 on M1 while
  // S and its successor B wait on M2. The skip happens when A is done,
  // not at S's arrival 0, so B cannot overtake A.
  TaskGraph tg(Duration::ms(100));
  const auto job = [](const std::string& name, std::int64_t wcet) {
    Job j;
    j.process = ProcessId{0};
    j.arrival = Time::ms(0);
    j.deadline = Time::ms(100);
    j.wcet = Duration::ms(wcet);
    j.name = name;
    return j;
  };
  const JobId a = tg.add_job(job("A", 10));
  const JobId s = tg.add_job(job("S", 5));
  const JobId b = tg.add_job(job("B", 5));
  tg.add_edge(a, s);
  tg.add_edge(s, b);
  StaticSchedule schedule(tg.job_count(), 2);
  schedule.place(a, ProcessorId(0), Time::ms(0));
  schedule.place(s, ProcessorId(1), Time::ms(10));
  schedule.place(b, ProcessorId(1), Time::ms(15));

  const ta::TaJobTimes oracle = ta::run_schedule_oracle(tg, schedule, {s});
  EXPECT_EQ(oracle.start.count(s), 0u);
  EXPECT_EQ(oracle.end.at(a), Time::ms(10));
  EXPECT_EQ(oracle.start.at(b), Time::ms(10));
}

TEST(TaOracle, SkippedJobsNeverStartASuccessorBeforeTheVm) {
  // Generated sporadic scenario 398 under one frame of jittered scripts:
  // the TA, told which jobs the vm marked 'false', starts no executed job
  // earlier than the vm. P0[1] waits for the false P2[2], whose
  // predecessor P2[1] runs until 5/3.
  const gen::Scenario scenario = gen::make_scenario(gen::Family::kSporadic, 398);
  const DerivedTaskGraph derived = derive_task_graph(scenario.net, scenario.wcets);
  const StaticSchedule schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);
  const auto scripts = gen::jittered_scripts(scenario.net, 398, 1, derived.hyperperiod);
  const RunResult run =
      run_static_order_vm(scenario.net, derived, schedule, RunOptions{}, {}, scripts);
  std::vector<JobId> skipped;
  std::map<JobId, Time> vm_start;
  for (const TraceEvent& e : run.trace.events()) {
    if (e.kind == TraceEventKind::kFalseSkip) {
      skipped.push_back(*derived.graph.find(e.label));
    } else if (e.kind == TraceEventKind::kJobRun) {
      vm_start.emplace(*derived.graph.find(e.label), e.time);
    }
  }
  ASSERT_FALSE(skipped.empty());

  const ta::TaJobTimes oracle = ta::run_schedule_oracle(derived.graph, schedule, skipped);
  EXPECT_EQ(oracle.start.size(), vm_start.size());
  for (const auto& [id, start] : oracle.start) {
    ASSERT_EQ(vm_start.count(id), 1u) << derived.graph.job(id).name;
    EXPECT_GE(start, vm_start.at(id)) << derived.graph.job(id).name;
  }
  const std::optional<JobId> p0 = derived.graph.find("P0[1]");
  ASSERT_TRUE(p0.has_value());
  EXPECT_EQ(oracle.start.at(*p0), Time(Rational(5, 3)));
  EXPECT_EQ(vm_start.at(*p0), Time(Rational(5, 3)));
}

TEST(TaOracle, FmsFalseServerJobHoldsItsSuccessorBehindItsPredecessors) {
  // The FMS variant of VmRuntime.FalseServerJobCompletesAfterItsPredecessors
  // under one vm frame of its local-search winner (command seed 13).
  // Told the vm's false set, the TA starts no executed job earlier than
  // the vm. DopplerConfig[32] is 'false'; its predecessor DopplerConfig[31]
  // runs on the other processor until 3002.5, and BCPConfig[32], placed
  // right behind the false job, waits for it. A skip that ignores the
  // predecessors starts BCPConfig[32] at 3001.8.
  apps::FmsApp app = apps::build_fms(true);
  WcetMap wcets;
  wcets[app.sensor_input] = Duration::ratio_ms(51, 10);
  wcets[app.high_freq_bcp] = Duration::ratio_ms(54, 5);
  wcets[app.low_freq_bcp] = Duration::ratio_ms(157, 10);
  wcets[app.magn_declin] = Duration::ratio_ms(31, 5);
  wcets[app.performance] = Duration::ratio_ms(43, 5);
  wcets[app.anemo_config] = Duration::ratio_ms(11, 10);
  wcets[app.gps_config] = Duration::ratio_ms(6, 5);
  wcets[app.irs_config] = Duration::ratio_ms(9, 5);
  wcets[app.doppler_config] = Duration::ratio_ms(6, 5);
  wcets[app.bcp_config] = Duration::ratio_ms(13, 10);
  wcets[app.magn_declin_config] = Duration::ratio_ms(11, 10);
  wcets[app.performance_config] = Duration::ratio_ms(11, 10);
  const DerivedTaskGraph derived = derive_task_graph(app.net, wcets);
  const TaskGraph& tg = derived.graph;
  engine::SearchConfig config;
  config.processors = 2;
  config.optimize = true;
  const engine::SolveReport report = engine::solve_graph(tg, config);
  ASSERT_EQ(report.search.best.strategy, "local-search");
  const StaticSchedule& schedule = report.search.best.schedule;

  constexpr std::uint64_t kSeed = 13;
  RunOptions opts;
  opts.frames = 1;
  const RunResult run =
      run_static_order_vm(app.net, derived, schedule, opts, app.make_inputs(50, kSeed),
                          app.random_commands(Time() + derived.hyperperiod, kSeed));
  std::set<JobId> skipped;
  std::map<JobId, Time> vm_start;
  for (const TraceEvent& e : run.trace.events()) {
    if (e.kind == TraceEventKind::kFalseSkip) {
      skipped.insert(*tg.find(e.label));
    } else if (e.kind == TraceEventKind::kJobRun) {
      vm_start.emplace(*tg.find(e.label), e.time);
    }
  }

  const ta::TaJobTimes oracle = ta::run_schedule_oracle(
      tg, schedule, std::vector<JobId>(skipped.begin(), skipped.end()));
  EXPECT_EQ(oracle.start.size(), vm_start.size());
  for (const auto& [id, start] : oracle.start) {
    ASSERT_EQ(vm_start.count(id), 1u) << tg.job(id).name;
    EXPECT_GE(start, vm_start.at(id)) << tg.job(id).name;
  }

  // Every executed BCPConfig job right behind a false DopplerConfig job
  // waits for the false job's predecessors on the other processor.
  for (const std::vector<JobId>& chain : schedule.per_processor_order()) {
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      const JobId s = chain[k];
      const JobId b = chain[k + 1];
      if (skipped.count(s) == 0 || tg.job(s).process != app.doppler_config ||
          tg.job(b).process != app.bcp_config || oracle.start.count(b) == 0) {
        continue;
      }
      for (const JobId p : tg.predecessors(s)) {
        if (oracle.end.count(p) == 0 ||
            schedule.placement(p).processor == schedule.placement(s).processor) {
          continue;
        }
        EXPECT_GE(oracle.start.at(b), oracle.end.at(p))
            << tg.job(b).name << " starts before " << tg.job(p).name << " ends";
      }
    }
  }
  const std::optional<JobId> predecessor = tg.find("DopplerConfig[31]");
  const std::optional<JobId> false_job = tg.find("DopplerConfig[32]");
  const std::optional<JobId> successor = tg.find("BCPConfig[32]");
  ASSERT_TRUE(predecessor && false_job && successor);
  ASSERT_EQ(skipped.count(*false_job), 1u);
  EXPECT_EQ(oracle.end.at(*predecessor), Time(Rational(6005, 2)));
  EXPECT_EQ(oracle.start.at(*successor), Time(Rational(6005, 2)));
}

TEST(TaOracle, TranslationRejectsUnplacedJobs) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const StaticSchedule empty(derived.graph.job_count(), 2);
  EXPECT_THROW((void)ta::translate_schedule(derived.graph, empty),
               std::invalid_argument);
}

}  // namespace
}  // namespace fppn
