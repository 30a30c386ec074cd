#include "sim/gantt.hpp"

#include <gtest/gtest.h>

namespace fppn {
namespace {

TimedTrace sample_trace() {
  TimedTrace t;
  t.add(TraceEvent{TraceEventKind::kFrameStart, 0, ProcessorId(), "frame 0",
                   Time::ms(0), std::nullopt});
  t.add(TraceEvent{TraceEventKind::kOverhead, 0, ProcessorId(), "arrivals",
                   Time::ms(0), Time::ms(41)});
  t.add(TraceEvent{TraceEventKind::kJobRun, 0, ProcessorId(0), "gen[1]", Time::ms(41),
                   Time::ms(55)});
  t.add(TraceEvent{TraceEventKind::kJobRun, 0, ProcessorId(1), "fft[1]", Time::ms(55),
                   Time::ms(69)});
  t.add(TraceEvent{TraceEventKind::kFalseSkip, 0, ProcessorId(0), "cfg[1]",
                   Time::ms(60), std::nullopt});
  t.add(TraceEvent{TraceEventKind::kDeadlineMiss, 0, ProcessorId(1), "fft[1]",
                   Time::ms(69), std::nullopt});
  return t;
}

TEST(TimedTrace, CountsByKind) {
  const TimedTrace t = sample_trace();
  EXPECT_EQ(t.executed_job_count(), 2u);
  EXPECT_EQ(t.false_skip_count(), 1u);
  EXPECT_EQ(t.deadline_miss_count(), 1u);
  EXPECT_EQ(t.of_kind(TraceEventKind::kOverhead).size(), 1u);
  EXPECT_EQ(t.span_end(), Time::ms(69));
}

TEST(TimedTrace, SummaryMentionsEverything) {
  const std::string s = sample_trace().summary();
  EXPECT_NE(s.find("2 jobs executed"), std::string::npos);
  EXPECT_NE(s.find("1 false skips"), std::string::npos);
  EXPECT_NE(s.find("1 deadline miss(es)"), std::string::npos);
}

TEST(Gantt, AsciiHasProcessorAndOverheadRows) {
  const std::string chart = render_gantt(sample_trace(), 2);
  EXPECT_NE(chart.find("M1"), std::string::npos);
  EXPECT_NE(chart.find("M2"), std::string::npos);
  EXPECT_NE(chart.find("RT"), std::string::npos);
  EXPECT_NE(chart.find("gen["), std::string::npos);
  EXPECT_NE(chart.find('!'), std::string::npos);  // miss marker
}

TEST(Gantt, WindowRestriction) {
  GanttOptions opts;
  opts.from = Time::ms(50);
  opts.to = Time::ms(69);
  const std::string chart = render_gantt(sample_trace(), 2, opts);
  EXPECT_NE(chart.find("fft["), std::string::npos);
}

TEST(Gantt, EmptyTraceRendersAxes) {
  const TimedTrace empty;
  const std::string chart = render_gantt(empty, 1);
  EXPECT_NE(chart.find("M1"), std::string::npos);
}

TEST(TraceEventKind, Names) {
  EXPECT_EQ(to_string(TraceEventKind::kJobRun), "job-run");
  EXPECT_EQ(to_string(TraceEventKind::kDeadlineMiss), "deadline-miss");
  EXPECT_EQ(to_string(TraceEventKind::kFrameStart), "frame-start");
}

}  // namespace
}  // namespace fppn
