#include "fppn/network.hpp"

#include <gtest/gtest.h>

namespace fppn {
namespace {

NetworkBuilder two_process_builder(ProcessId* a, ProcessId* b) {
  NetworkBuilder builder;
  *a = builder.periodic("A", Duration::ms(100), Duration::ms(100), no_op_behavior());
  *b = builder.periodic("B", Duration::ms(200), Duration::ms(200), no_op_behavior());
  return builder;
}

TEST(NetworkBuilder, RejectsDuplicateProcessName) {
  NetworkBuilder b;
  b.periodic("A", Duration::ms(100), Duration::ms(100), no_op_behavior());
  EXPECT_THROW(
      b.periodic("A", Duration::ms(100), Duration::ms(100), no_op_behavior()),
      std::invalid_argument);
}

TEST(NetworkBuilder, RejectsEmptyNameAndNullBehavior) {
  NetworkBuilder b;
  EXPECT_THROW(b.periodic("", Duration::ms(1), Duration::ms(1), no_op_behavior()),
               std::invalid_argument);
  EXPECT_THROW(b.periodic("X", Duration::ms(1), Duration::ms(1), BehaviorFactory{}),
               std::invalid_argument);
}

TEST(NetworkBuilder, RejectsChannelWithoutPriority) {
  // Def. 2.1: FP must relate every channel-sharing pair.
  ProcessId a, b;
  NetworkBuilder builder = two_process_builder(&a, &b);
  builder.fifo("c", a, b);
  EXPECT_THROW(std::move(builder).build(), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsCyclicPriority) {
  ProcessId a, b;
  NetworkBuilder builder = two_process_builder(&a, &b);
  builder.priority(a, b);
  builder.priority(b, a);
  EXPECT_THROW(std::move(builder).build(), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsSelfChannelAndSelfPriority) {
  NetworkBuilder b;
  const ProcessId a =
      b.periodic("A", Duration::ms(100), Duration::ms(100), no_op_behavior());
  EXPECT_THROW(b.fifo("c", a, a), std::invalid_argument);
  EXPECT_THROW(b.priority(a, a), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsDuplicateChannelName) {
  ProcessId a, b;
  NetworkBuilder builder = two_process_builder(&a, &b);
  builder.fifo("c", a, b);
  EXPECT_THROW(builder.fifo("c", b, a), std::invalid_argument);
}

TEST(Network, ChannelBookkeeping) {
  ProcessId a, b;
  NetworkBuilder builder = two_process_builder(&a, &b);
  const ChannelId c = builder.blackboard("c", a, b);
  const ChannelId in = builder.external_input("in", a);
  const ChannelId out = builder.external_output("out", b);
  builder.priority(a, b);
  const Network net = std::move(builder).build();

  EXPECT_EQ(net.channel(c).kind, ChannelKind::kBlackboard);
  EXPECT_EQ(net.channel(c).scope, ChannelScope::kInternal);
  EXPECT_EQ(net.channel(in).scope, ChannelScope::kExternalInput);
  EXPECT_EQ(net.channel(out).scope, ChannelScope::kExternalOutput);
  EXPECT_EQ(net.internal_channels_of(a), std::vector<ChannelId>{c});
  EXPECT_EQ(net.process(a).writes.size(), 1u);
  EXPECT_EQ(net.process(b).reads.size(), 1u);
}

TEST(Network, PriorityQueries) {
  ProcessId a, b;
  NetworkBuilder builder = two_process_builder(&a, &b);
  builder.priority(a, b);
  const Network net = std::move(builder).build();
  EXPECT_TRUE(net.has_priority(a, b));
  EXPECT_FALSE(net.has_priority(b, a));
  EXPECT_TRUE(net.priority_related(a, b));
  EXPECT_TRUE(net.priority_related(b, a));
}

TEST(Network, FindByName) {
  ProcessId a, b;
  NetworkBuilder builder = two_process_builder(&a, &b);
  const Network net = std::move(builder).build();
  EXPECT_EQ(net.find_process("A"), a);
  EXPECT_EQ(net.find_process("nope"), std::nullopt);
}

TEST(Network, UserOfSporadic) {
  NetworkBuilder b;
  const ProcessId user =
      b.periodic("user", Duration::ms(200), Duration::ms(200), no_op_behavior());
  const ProcessId spor = b.sporadic("spor", 2, Duration::ms(700), Duration::ms(700),
                                    no_op_behavior());
  b.blackboard("cfg", spor, user);
  b.priority(spor, user);
  const Network net = std::move(b).build();
  EXPECT_EQ(net.user_of(spor), user);
  EXPECT_EQ(net.user_of(user), std::nullopt);  // not sporadic
  EXPECT_TRUE(net.in_schedulable_subclass());
}

TEST(Network, SubclassViolatedByTwoUsers) {
  NetworkBuilder b;
  const ProcessId u1 =
      b.periodic("u1", Duration::ms(200), Duration::ms(200), no_op_behavior());
  const ProcessId u2 =
      b.periodic("u2", Duration::ms(200), Duration::ms(200), no_op_behavior());
  const ProcessId spor = b.sporadic("spor", 1, Duration::ms(500), Duration::ms(500),
                                    no_op_behavior());
  b.blackboard("c1", spor, u1);
  b.blackboard("c2", spor, u2);
  b.priority(spor, u1);
  b.priority(spor, u2);
  const Network net = std::move(b).build();
  std::string why;
  EXPECT_FALSE(net.in_schedulable_subclass(&why));
  EXPECT_NE(why.find("spor"), std::string::npos);
  EXPECT_THROW((void)net.hyperperiod(), std::logic_error);
}

TEST(Network, SubclassViolatedByFasterSporadic) {
  // T_u(p) <= T_p is required: a sporadic faster than its user fails.
  NetworkBuilder b;
  const ProcessId user =
      b.periodic("user", Duration::ms(500), Duration::ms(500), no_op_behavior());
  const ProcessId spor = b.sporadic("spor", 1, Duration::ms(200), Duration::ms(200),
                                    no_op_behavior());
  b.blackboard("cfg", spor, user);
  b.priority(spor, user);
  const Network net = std::move(b).build();
  EXPECT_FALSE(net.in_schedulable_subclass());
}

TEST(Network, HyperperiodUsesServerPeriods) {
  // Sporadic 700 served at its user's 200: H = lcm(200, 100) = 200, the
  // 700 never enters (Fig. 3: "its period 700 is replaced by ... 200").
  NetworkBuilder b;
  const ProcessId fast =
      b.periodic("fast", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId user =
      b.periodic("user", Duration::ms(200), Duration::ms(200), no_op_behavior());
  const ProcessId spor = b.sporadic("spor", 2, Duration::ms(700), Duration::ms(700),
                                    no_op_behavior());
  b.blackboard("cfg", spor, user);
  b.priority(spor, user);
  const Network net = std::move(b).build();
  EXPECT_EQ(net.hyperperiod(), Duration::ms(200));
  (void)fast;
}

TEST(Network, AutoRateMonotonicPriorities) {
  NetworkBuilder b;
  const ProcessId slow =
      b.periodic("slow", Duration::ms(400), Duration::ms(400), no_op_behavior());
  const ProcessId fast =
      b.periodic("fast", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.fifo("c", slow, fast);  // writer is the *slower* process
  b.auto_rate_monotonic_priorities();
  const Network net = std::move(b).build();
  // Rate-monotonic: the faster process gets the higher priority.
  EXPECT_TRUE(net.has_priority(fast, slow));
}

TEST(Network, ExplicitPriorityWinsOverAutoRule) {
  NetworkBuilder b;
  const ProcessId slow =
      b.periodic("slow", Duration::ms(400), Duration::ms(400), no_op_behavior());
  const ProcessId fast =
      b.periodic("fast", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.fifo("c", slow, fast);
  b.priority(slow, fast);  // explicit, against rate-monotonic
  b.auto_rate_monotonic_priorities();
  const Network net = std::move(b).build();
  EXPECT_TRUE(net.has_priority(slow, fast));
  EXPECT_FALSE(net.has_priority(fast, slow));
}

}  // namespace
}  // namespace fppn
