#include "sim/gantt.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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

/// One job-run event labelled `label` at `ms`.
TraceEvent job_event(std::string_view label, std::int64_t ms) {
  return TraceEvent{TraceEventKind::kJobRun, 0, ProcessorId(0), label, Time::ms(ms),
                    Time::ms(ms + 1)};
}

TEST(TimedTrace, AddKeepsItsOwnCopyOfTheCallersLabel) {
  TimedTrace t;
  {
    std::string name = "a label longer than the small-string buffer[17]";
    t.add(job_event(name, 0));
    name.assign(name.size(), 'x');  // the caller's text changes, then dies
  }
  EXPECT_EQ(t.events()[0].label, "a label longer than the small-string buffer[17]");
}

TEST(TimedTrace, InternedLabelIsSharedByItsEvents) {
  TimedTrace t;
  const std::string_view label = t.intern("MagnDeclinConfig[12]");
  t.add(job_event(label, 0));
  t.add(job_event(label, 5));
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].label.data(), label.data());
  EXPECT_EQ(t.events()[1].label.data(), label.data());
  EXPECT_EQ(t.events()[1].label, "MagnDeclinConfig[12]");
  EXPECT_TRUE(t.intern("").empty());
}

TEST(TimedTrace, MovesKeepTheLabels) {
  static_assert(!std::is_copy_constructible_v<TimedTrace>);
  static_assert(std::is_nothrow_move_constructible_v<TimedTrace>);
  // Enough labels to fill several storage blocks.
  std::vector<std::string> names;
  for (int i = 0; i < 3000; ++i) {
    names.push_back("Process" + std::to_string(i) + "[" + std::to_string(i % 7) + "]");
  }
  auto original = std::make_unique<TimedTrace>();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string_view label =
        i % 2 == 0 ? original->intern(names[i]) : std::string_view(names[i]);
    original->add(job_event(label, static_cast<std::int64_t>(i)));
  }
  original->add(job_event("", 9999));  // an empty label needs no storage
  const char* const first_label = original->events()[0].label.data();
  TimedTrace moved(std::move(*original));
  TimedTrace assigned;
  assigned.add(job_event("replaced", 0));
  assigned = std::move(moved);
  original.reset();
  ASSERT_EQ(assigned.events().size(), names.size() + 1);
  EXPECT_EQ(assigned.events()[0].label.data(), first_label);  // not copied
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(assigned.events()[i].label, names[i]) << i;
  }
  EXPECT_TRUE(assigned.events().back().label.empty());
  // A label viewing another trace is copied in, not shared.
  TimedTrace other;
  other.add(assigned.events()[1]);
  EXPECT_NE(other.events()[0].label.data(), assigned.events()[1].label.data());
  EXPECT_EQ(other.events()[0].label, names[1]);
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

}  // namespace
}  // namespace fppn
