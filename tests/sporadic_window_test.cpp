// Fig. 2: mapping real sporadic invocations to server-job subsets, with
// the boundary decided by the FP direction between p and its user.
#include "runtime/sporadic_window.hpp"

#include <gtest/gtest.h>

namespace fppn {
namespace {

ServerInfo make_info(bool priority_over_user) {
  ServerInfo info;
  info.sporadic = ProcessId{0};
  info.user = ProcessId{1};
  info.burst = 2;
  info.server_period = Duration::ms(200);
  info.corrected_deadline = Duration::ms(500);
  info.priority_over_user = priority_over_user;
  return info;
}

TEST(ServerWindow, RightClosedWhenSporadicHasPriority) {
  // p -> u(p): the job invoked exactly at b is handled in this subset.
  const ServerInfo info = make_info(true);
  const ServerWindow w = server_window(info, Time::ms(400));
  EXPECT_EQ(w.a, Time::ms(200));
  EXPECT_EQ(w.b, Time::ms(400));
  EXPECT_TRUE(w.right_closed);
  EXPECT_FALSE(w.contains(Time::ms(200)));  // left end excluded
  EXPECT_TRUE(w.contains(Time::ms(201)));
  EXPECT_TRUE(w.contains(Time::ms(400)));   // boundary included
  EXPECT_FALSE(w.contains(Time::ms(401)));
}

TEST(ServerWindow, LeftClosedWhenUserHasPriority) {
  // u(p) -> p: the job invoked exactly at b goes to the *next* subset.
  const ServerInfo info = make_info(false);
  const ServerWindow w = server_window(info, Time::ms(400));
  EXPECT_TRUE(w.contains(Time::ms(200)));   // left end included
  EXPECT_FALSE(w.contains(Time::ms(400)));  // boundary excluded
}

TEST(ServerWindow, WindowsTileTheTimeline) {
  // Every instant belongs to exactly one window, for both boundary kinds.
  for (const bool over_user : {true, false}) {
    const ServerInfo info = make_info(over_user);
    const std::vector<Time> probes = {Time::ms(0),   Time::ms(1),   Time::ms(199),
                                      Time::ms(200), Time::ms(201), Time::ms(400),
                                      Time::ms(599), Time::ms(600)};
    for (const Time& t : probes) {
      int owners = 0;
      for (int boundary = 0; boundary <= 5; ++boundary) {
        const ServerWindow w =
            server_window(info, Time::ms(200 * static_cast<std::int64_t>(boundary)));
        owners += w.contains(t) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1) << "t=" << t << " over_user=" << over_user;
    }
  }
}

TEST(SubsetBoundary, FrameAndSubsetOffsets) {
  const ServerInfo info = make_info(true);
  const Duration h = Duration::ms(1000);  // 5 subsets per frame
  EXPECT_EQ(subset_boundary(info, 0, 1, h), Time::ms(0));
  EXPECT_EQ(subset_boundary(info, 0, 3, h), Time::ms(400));
  EXPECT_EQ(subset_boundary(info, 2, 1, h), Time::ms(2000));
  EXPECT_EQ(subset_boundary(info, 1, 5, h), Time::ms(1800));
}

TEST(TthInvocation, PicksTthInsideWindow) {
  const std::vector<Time> inv = {Time::ms(210), Time::ms(250), Time::ms(390),
                                 Time::ms(410)};
  const ServerWindow w{Time::ms(200), Time::ms(400), true};
  EXPECT_EQ(tth_invocation_in(inv, w, 1), Time::ms(210));
  EXPECT_EQ(tth_invocation_in(inv, w, 2), Time::ms(250));
  EXPECT_EQ(tth_invocation_in(inv, w, 3), Time::ms(390));
  EXPECT_EQ(tth_invocation_in(inv, w, 4), std::nullopt);  // 410 outside
}

TEST(TthInvocation, BoundaryMembershipFollowsClosedness) {
  const std::vector<Time> inv = {Time::ms(400)};
  const ServerWindow closed{Time::ms(200), Time::ms(400), true};
  const ServerWindow open{Time::ms(200), Time::ms(400), false};
  EXPECT_EQ(tth_invocation_in(inv, closed, 1), Time::ms(400));
  EXPECT_EQ(tth_invocation_in(inv, open, 1), std::nullopt);
  // The invocation at exactly b lands in the *next* open window instead.
  const ServerWindow next_open{Time::ms(400), Time::ms(600), false};
  EXPECT_EQ(tth_invocation_in(inv, next_open, 1), Time::ms(400));
}

TEST(TthInvocation, LeftBoundaryMembership) {
  const std::vector<Time> inv = {Time::ms(200)};
  const ServerWindow closed{Time::ms(200), Time::ms(400), true};  // (200, 400]
  const ServerWindow open{Time::ms(200), Time::ms(400), false};   // [200, 400)
  EXPECT_EQ(tth_invocation_in(inv, closed, 1), std::nullopt);
  EXPECT_EQ(tth_invocation_in(inv, open, 1), Time::ms(200));
}

TEST(TthInvocation, EmptyAndDegenerateCases) {
  const ServerWindow w{Time::ms(0), Time::ms(200), true};
  EXPECT_EQ(tth_invocation_in({}, w, 1), std::nullopt);
  EXPECT_EQ(tth_invocation_in({Time::ms(100)}, w, 0), std::nullopt);
}

TEST(TthInvocation, EveryInvocationHandledExactlyOnce) {
  // Simulated frame stream: each invocation must map to exactly one
  // (subset, t) slot across all boundaries — the runtime invariant that
  // makes the online policy lossless.
  const ServerInfo info = make_info(true);
  const std::vector<Time> inv = {Time::ms(0),   Time::ms(10),  Time::ms(200),
                                 Time::ms(350), Time::ms(360), Time::ms(799),
                                 Time::ms(800)};
  int handled = 0;
  for (int boundary = 0; boundary <= 5; ++boundary) {
    const ServerWindow w =
        server_window(info, Time::ms(200 * static_cast<std::int64_t>(boundary)));
    for (int t = 1; t <= info.burst; ++t) {
      if (tth_invocation_in(inv, w, t).has_value()) {
        ++handled;
      }
    }
  }
  EXPECT_EQ(handled, static_cast<int>(inv.size()));
}

}  // namespace
}  // namespace fppn
