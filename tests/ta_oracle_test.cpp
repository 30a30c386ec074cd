// Cross-validation: the schedule-to-TA translation executed by the TA
// engine must reproduce the VM runtime's job start/end times for one
// frame with WCET execution and zero overhead — the same role the
// BIP-based TA translation plays in the paper's toolchain.
#include "ta/translate.hpp"

#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "apps/fft.hpp"
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
  VmRunOptions opts;
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

TEST(TaOracle, TranslationRejectsUnplacedJobs) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const StaticSchedule empty(derived.graph.job_count(), 2);
  EXPECT_THROW((void)ta::translate_schedule(derived.graph, empty),
               std::invalid_argument);
}

}  // namespace
}  // namespace fppn
