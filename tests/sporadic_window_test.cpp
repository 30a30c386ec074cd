// Fig. 2: mapping real sporadic invocations to server-job subsets, with
// the boundary decided by the FP direction between p and its user; and
// InvocationCursor, the vm's walk-order shortcut, against the binary
// search on every server job of FMS and generated runs.
#include "runtime/sporadic_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "apps/fms.hpp"
#include "gen/rng.hpp"
#include "gen/scenario.hpp"
#include "runtime/vm_runtime.hpp"
#include "testing/list_scheduler.hpp"

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

// ---------------------------------------------------------------- cursor

/// Queries one cursor with `windows` in order, t = 1..burst each, and
/// expects every answer to equal tth_invocation_in's.
void expect_cursor_matches(const std::vector<Time>& sorted,
                           const std::vector<ServerWindow>& windows, int burst) {
  InvocationCursor cursor(sorted);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (int t = 0; t <= burst; ++t) {
      EXPECT_EQ(cursor.tth_in(windows[w], t), tth_invocation_in(sorted, windows[w], t))
          << "window " << w << " (" << windows[w].a << ", " << windows[w].b
          << ") right_closed=" << windows[w].right_closed << " t=" << t;
    }
  }
}

/// The windows of consecutive subsets [from, to) for one closure kind.
std::vector<ServerWindow> subset_windows(bool over_user, int from, int to) {
  const ServerInfo info = make_info(over_user);
  std::vector<ServerWindow> out;
  for (int b = from; b < to; ++b) {
    out.push_back(server_window(info, Time::ms(200 * static_cast<std::int64_t>(b))));
  }
  return out;
}

TEST(InvocationCursor, EmptyScriptMakesEveryJobFalse) {
  const std::vector<Time> none;
  for (const bool over_user : {true, false}) {
    InvocationCursor cursor(none);
    for (const ServerWindow& w : subset_windows(over_user, 0, 6)) {
      EXPECT_EQ(cursor.tth_in(w, 1), std::nullopt);
      EXPECT_EQ(cursor.tth_in(w, 2), std::nullopt);
    }
  }
}

TEST(InvocationCursor, BoundaryInvocationsFollowClosedness) {
  // Invocations exactly on subset boundaries (and bursts on them): (a, b]
  // serves b in the subset arriving at b, [a, b) in the next one.
  const std::vector<Time> inv = {Time::ms(0),   Time::ms(200), Time::ms(200),
                                 Time::ms(400), Time::ms(600), Time::ms(601),
                                 Time::ms(1000)};
  for (const bool over_user : {true, false}) {
    SCOPED_TRACE(over_user ? "(a, b]" : "[a, b)");
    expect_cursor_matches(inv, subset_windows(over_user, 0, 8), 3);
    InvocationCursor cursor(inv);
    const ServerInfo info = make_info(over_user);
    (void)cursor.tth_in(server_window(info, Time::ms(0)), 1);
    const ServerWindow at_200 = server_window(info, Time::ms(200));
    EXPECT_EQ(cursor.tth_in(at_200, 1), over_user ? Time::ms(200) : Time::ms(0));
    EXPECT_EQ(cursor.tth_in(at_200, 2),
              over_user ? std::optional<Time>(Time::ms(200)) : std::nullopt);
  }
}

TEST(InvocationCursor, BurstsShareOneWindow) {
  const std::vector<Time> inv = {Time::ms(210), Time::ms(210), Time::ms(250),
                                 Time::ms(390), Time::ms(600), Time::ms(610)};
  for (const bool over_user : {true, false}) {
    SCOPED_TRACE(over_user ? "(a, b]" : "[a, b)");
    expect_cursor_matches(inv, subset_windows(over_user, 0, 6), 4);
  }
}

TEST(InvocationCursor, BackwardWindowFallsBackToBinarySearch) {
  // A window start that moves backwards, a repeated window, and a switch
  // of closure kind all answer like the binary search.
  const std::vector<Time> inv = {Time::ms(0),   Time::ms(150), Time::ms(200),
                                 Time::ms(380), Time::ms(400), Time::ms(900)};
  const std::vector<ServerWindow> windows = {
      ServerWindow{Time::ms(600), Time::ms(800), true},
      ServerWindow{Time::ms(200), Time::ms(400), true},   // backwards
      ServerWindow{Time::ms(200), Time::ms(400), true},   // same again
      ServerWindow{Time::ms(200), Time::ms(400), false},  // other closure
      ServerWindow{Time::ms(-200), Time::ms(0), false},   // before the script
      ServerWindow{Time::ms(-200), Time::ms(0), true},
      ServerWindow{Time::ms(800), Time::ms(1000), true},  // forwards again
      ServerWindow{Time::ms(0), Time::ms(200), false},    // backwards again
      ServerWindow{Time::ms(1000), Time::ms(1200), false}};  // past the script
  expect_cursor_matches(inv, windows, 3);
}

TEST(InvocationCursor, MatchesBinarySearchOnRandomWalks) {
  // Random scripts (duplicates included) and window runs that mostly move
  // forward, sometimes stay, and sometimes jump back.
  gen::Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    std::vector<Time> inv;
    const int count = static_cast<int>(rng.range(0, 12));
    for (int i = 0; i < count; ++i) {
      inv.push_back(Time::ms(rng.range(0, 20) * 50));
    }
    std::sort(inv.begin(), inv.end());
    const bool over_user = rng.range(0, 1) == 1;
    std::vector<ServerWindow> windows;
    std::int64_t start = -100;
    for (int w = 0; w < 30; ++w) {
      const std::int64_t step = rng.range(-3, 6) * 50;  // < 0: backwards
      start += step;
      windows.push_back(
          ServerWindow{Time::ms(start), Time::ms(start + 100), over_user});
    }
    SCOPED_TRACE("round " + std::to_string(round));
    expect_cursor_matches(inv, windows, 3);
  }
}

/// The 'false' server jobs of a vm run, as (frame, label).
std::set<std::pair<std::int64_t, std::string>> false_jobs(const RunResult& run) {
  std::set<std::pair<std::int64_t, std::string>> out;
  for (const TraceEvent& e : run.trace.events()) {
    if (e.kind == TraceEventKind::kFalseSkip) {
      out.emplace(e.frame, std::string(e.label));
    }
  }
  return out;
}

/// Counts what a differential run covered.
struct Coverage {
  std::size_t queries = 0;
  std::size_t false_jobs = 0;
  std::set<bool> closures;  ///< priority_over_user values seen
};

/// For every server job of `frames` frames, in the vm's per-process walk
/// order (job id order, frame by frame), one cursor per process must
/// answer like tth_invocation_in; the vm run's 'false' jobs must be
/// exactly the jobs the binary search leaves without an invocation.
void expect_vm_decisions_match(const Network& net, const DerivedTaskGraph& derived,
                               const std::map<ProcessId, SporadicScript>& scripts,
                               std::int64_t frames, Coverage& coverage) {
  const TaskGraph& tg = derived.graph;
  std::map<ProcessId, InvocationCursor> cursors;
  for (const auto& [p, script] : scripts) {
    cursors.emplace(p, InvocationCursor(script.times()));
  }
  std::set<std::pair<std::int64_t, std::string>> expected_false;
  for (std::int64_t frame = 0; frame < frames; ++frame) {
    for (std::size_t i = 0; i < tg.job_count(); ++i) {
      const Job& job = tg.job(JobId(i));
      if (!job.is_server) {
        continue;
      }
      const ServerInfo& info = derived.servers.at(job.process);
      coverage.closures.insert(info.priority_over_user);
      const int t = static_cast<int>((job.k - 1) % info.burst) + 1;
      const ServerWindow w = server_window(
          info, subset_boundary(info, frame, job.subset, derived.hyperperiod));
      const auto script = scripts.find(job.process);
      const std::optional<Time> binary =
          script == scripts.end() ? std::nullopt
                                  : tth_invocation_in(script->second.times(), w, t);
      if (const auto c = cursors.find(job.process); c != cursors.end()) {
        EXPECT_EQ(c->second.tth_in(w, t), binary) << job.name << " frame " << frame;
        ++coverage.queries;
      }
      if (!binary.has_value()) {
        expected_false.emplace(frame, job.name);
      }
    }
  }
  const StaticSchedule schedule =
      testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, 2);
  RunOptions opts;
  opts.frames = frames;
  const RunResult run = run_static_order_vm(net, derived, schedule, opts, {}, scripts);
  EXPECT_EQ(false_jobs(run), expected_false);
  coverage.false_jobs += expected_false.size();
}

TEST(InvocationCursor, MatchesBinarySearchOnEveryFmsServerJob) {
  constexpr std::int64_t kFrames = 10;
  const apps::FmsApp app = apps::build_fms(/*reduced_period=*/true);
  const DerivedTaskGraph derived = derive_task_graph(app.net, app.default_wcets());
  const Time horizon = Time() + derived.hyperperiod * Rational(kFrames);
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("FMS commands seed " + std::to_string(seed));
    expect_vm_decisions_match(app.net, derived, app.random_commands(horizon, seed),
                              kFrames, coverage);
  }
  EXPECT_GT(coverage.queries, 50u * 600u);
  EXPECT_GT(coverage.false_jobs, 0u);
}

TEST(InvocationCursor, MatchesBinarySearchOnEveryGeneratedSporadicScenario) {
  constexpr std::int64_t kFrames = 10;
  Coverage coverage;
  std::size_t runs = 0;
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      DerivedTaskGraph derived;
      try {
        derived = derive_task_graph(s.net, s.wcets);
      } catch (const std::exception&) {
        continue;  // a scenario that does not derive has no run
      }
      if (derived.servers.empty()) {
        continue;
      }
      SCOPED_TRACE(s.name);
      const auto scripts = gen::jittered_scripts(s.net, seed, kFrames, derived.hyperperiod);
      expect_vm_decisions_match(s.net, derived, scripts, kFrames, coverage);
      ++runs;
    }
  }
  EXPECT_GE(runs, 25u);
  EXPECT_GT(coverage.queries, 0u);
  EXPECT_GT(coverage.false_jobs, 0u);
  EXPECT_EQ(coverage.closures, (std::set<bool>{false, true}));  // both window kinds
}

}  // namespace
}  // namespace fppn
