#include "sim/vcd.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "apps/fig1.hpp"
#include "runtime/vm_runtime.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

TimedTrace small_trace() {
  TimedTrace t;
  t.add(TraceEvent{TraceEventKind::kOverhead, 0, ProcessorId(), "arrivals",
                   Time::ms(0), Time::ms(20)});
  t.add(TraceEvent{TraceEventKind::kJobRun, 0, ProcessorId(0), "A[1]", Time::ms(20),
                   Time::ms(45)});
  t.add(TraceEvent{TraceEventKind::kJobRun, 0, ProcessorId(1), "B[1]", Time::ms(45),
                   Time::ms(70)});
  t.add(TraceEvent{TraceEventKind::kDeadlineMiss, 0, ProcessorId(1), "B[1]",
                   Time::ms(70), std::nullopt});
  return t;
}

TEST(Vcd, HeaderAndDefinitions) {
  const std::string vcd = render_vcd(small_trace(), 2);
  EXPECT_NE(vcd.find("$timescale 1us $end"), std::string::npos);
  EXPECT_NE(vcd.find("M1_busy"), std::string::npos);
  EXPECT_NE(vcd.find("M2_busy"), std::string::npos);
  EXPECT_NE(vcd.find("deadline_miss"), std::string::npos);
  EXPECT_NE(vcd.find("runtime_overhead"), std::string::npos);
  EXPECT_NE(vcd.find("A_1"), std::string::npos);  // sanitized job name
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
}

TEST(Vcd, TimestampsInMicroseconds) {
  const std::string vcd = render_vcd(small_trace(), 2);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#20000"), std::string::npos);  // 20 ms = 20000 us
  EXPECT_NE(vcd.find("#45000"), std::string::npos);
  EXPECT_NE(vcd.find("#70000"), std::string::npos);
}

TEST(Vcd, ChangesAreTimeSorted) {
  const std::string vcd = render_vcd(small_trace(), 2);
  std::int64_t last = -1;
  std::istringstream is(vcd);
  std::string line;
  bool in_dump = false;
  while (std::getline(is, line)) {
    if (line == "$end") {
      in_dump = true;
      continue;
    }
    if (in_dump && !line.empty() && line[0] == '#') {
      const std::int64_t tick = std::stoll(line.substr(1));
      EXPECT_GT(tick, last);
      last = tick;
    }
  }
  EXPECT_GE(last, 70000);
}

TEST(Vcd, FullPolicyRunExports) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);
  VmRunOptions opts;
  opts.frames = 2;
  opts.overhead = OverheadModel::mppa_measured();
  const RunResult run = run_static_order_vm(app.net, derived, schedule, opts,
                                            app.make_inputs({1, 2, 3}, {}), {});
  const std::string vcd = render_vcd(run.trace, 2);
  // Every executed job label appears as a signal.
  EXPECT_NE(vcd.find("InputA_1"), std::string::npos);
  EXPECT_NE(vcd.find("FilterA_2"), std::string::npos);
  // Fractional model times quantize to whole microseconds without throwing.
  EXPECT_GT(vcd.size(), 500u);
}

TEST(Vcd, RationalTimesQuantize) {
  TimedTrace t;
  t.add(TraceEvent{TraceEventKind::kJobRun, 0, ProcessorId(0), "x[1]",
                   Time(Rational(40, 3)), Time(Rational(80, 3))});
  const std::string vcd = render_vcd(t, 1);
  EXPECT_NE(vcd.find("#13333"), std::string::npos);  // floor(40/3 * 1000)
  EXPECT_NE(vcd.find("#26666"), std::string::npos);
}

}  // namespace
}  // namespace fppn
