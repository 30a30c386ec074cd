// Action traces (§II-A Act sequences) and the overhead model helpers.
#include "fppn/actions.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fppn/network.hpp"
#include "sim/overhead.hpp"
#include "trace_text.hpp"

namespace fppn {
namespace {

struct Fixture {
  Network net;
  ProcessId p, q;
  ChannelId c;
};

Fixture make() {
  Fixture f;
  NetworkBuilder b;
  f.p = b.periodic("P", Duration::ms(100), Duration::ms(100), no_op_behavior());
  f.q = b.periodic("Q", Duration::ms(100), Duration::ms(100), no_op_behavior());
  f.c = b.fifo("c", f.p, f.q);
  b.priority(f.p, f.q);
  f.net = std::move(b).build();
  return f;
}

ActionTrace sample(const Fixture& f) {
  ActionTrace t;
  t.push(WaitAction{Time::ms(0)});
  t.push(JobStartAction{f.p, 1});
  t.push(WriteAction{f.p, 1, f.c, Value{1.0}});
  t.push(JobEndAction{f.p, 1});
  t.push(JobStartAction{f.q, 1});
  t.push(ReadAction{f.q, 1, f.c, Value{1.0}});
  t.push(JobEndAction{f.q, 1});
  t.push(WaitAction{Time::ms(100)});
  t.push(JobStartAction{f.p, 2});
  t.push(WriteAction{f.p, 2, f.c, Value{2.0}});
  t.push(JobEndAction{f.p, 2});
  return t;
}

TEST(ActionTrace, RenderedFormMatchesPaperNotation) {
  const Fixture f = make();
  const std::string s = testing::trace_to_string(sample(f), f.net, /*multiline=*/false);
  EXPECT_NE(s.find("w(0)"), std::string::npos);
  EXPECT_NE(s.find("P[1]:write(c)=1"), std::string::npos);
  EXPECT_NE(s.find("Q[1]:read(c)=1"), std::string::npos);
  EXPECT_NE(s.find("w(100)"), std::string::npos);
  // Multiline variant: one action per line.
  const std::string ml = testing::trace_to_string(sample(f), f.net, /*multiline=*/true);
  EXPECT_EQ(static_cast<std::size_t>(std::count(ml.begin(), ml.end(), '\n')),
            sample(f).size() - 1);
}

TEST(ActionTrace, ClearEmptiesEverything) {
  const Fixture f = make();
  ActionTrace t = sample(f);
  EXPECT_FALSE(t.empty());
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(OverheadModel, MppaMeasuredValues) {
  const OverheadModel m = OverheadModel::mppa_measured();
  EXPECT_EQ(m.frame_overhead(0), Duration::ms(41));
  EXPECT_EQ(m.frame_overhead(1), Duration::ms(20));
  EXPECT_EQ(m.frame_overhead(100), Duration::ms(20));
  EXPECT_FALSE(m.is_zero());
}

TEST(OverheadModel, NoneIsZero) {
  const OverheadModel m = OverheadModel::none();
  EXPECT_TRUE(m.is_zero());
  EXPECT_EQ(m.frame_overhead(0), Duration::zero());
}

}  // namespace
}  // namespace fppn
