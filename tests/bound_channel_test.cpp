// BoundChannel, the example applications' channel handle: bound to its id
// on first use, it fails on misuse with exactly the exception type and
// message of JobContext's by-name calls, and the fig1 and FFT vm histories
// it produces stay equal to the zero-delay reference.
#include "apps/bound_channel.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "runtime/vm_runtime.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

const InputScripts kNoInputs;

using apps::BoundChannel;

/// Writer W -> FIFO "c" -> reader R, both periodic at 100 ms; W runs
/// `w_body`, R runs `r_body`.
Network two_process_net(std::function<void(JobContext&)> w_body,
                        std::function<void(JobContext&)> r_body) {
  NetworkBuilder b;
  const ProcessId w =
      b.periodic("W", Duration::ms(100), Duration::ms(100), behavior(std::move(w_body)));
  const ProcessId r =
      b.periodic("R", Duration::ms(100), Duration::ms(100), behavior(std::move(r_body)));
  b.fifo("c", w, r);
  b.priority(w, r);
  return std::move(b).build();
}

/// "<type>: <message>" of what one job of `who` ("W" or "R") throws when
/// it runs `body`, or "" when it throws nothing.
std::string failure_of(const std::string& who, std::function<void(JobContext&)> body) {
  const auto nothing = [](JobContext&) {};
  const Network net = who == "W" ? two_process_net(std::move(body), nothing)
                                 : two_process_net(nothing, std::move(body));
  ExecutionState state(net, kNoInputs);
  try {
    state.run_job(*net.find_process(who), Time());
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::logic_error& e) {
    return std::string("logic_error: ") + e.what();
  }
  return "";
}

TEST(BoundChannel, UnknownNameThrowsLikeTheNameLookup) {
  const std::string read_by_name =
      failure_of("R", [](JobContext& ctx) { (void)ctx.read("nope"); });
  EXPECT_EQ(read_by_name, "invalid_argument: read: unknown channel 'nope'");
  EXPECT_EQ(failure_of("R",
                       [ch = BoundChannel("nope")](JobContext& ctx) mutable {
                         (void)ch.read(ctx);
                       }),
            read_by_name);

  const std::string write_by_name =
      failure_of("W", [](JobContext& ctx) { ctx.write("nope", 1.0); });
  EXPECT_EQ(write_by_name, "invalid_argument: write: unknown channel 'nope'");
  EXPECT_EQ(failure_of("W",
                       [ch = BoundChannel("nope")](JobContext& ctx) mutable {
                         ch.write(ctx, 1.0);
                       }),
            write_by_name);
}

TEST(BoundChannel, ChannelOfAnotherProcessThrowsLikeTheNameLookup) {
  // W does not read "c" and R does not write it.
  const std::string read_by_name =
      failure_of("W", [](JobContext& ctx) { (void)ctx.read("c"); });
  EXPECT_EQ(read_by_name.rfind("logic_error: ", 0), 0u) << read_by_name;
  EXPECT_EQ(failure_of("W",
                       [ch = BoundChannel("c")](JobContext& ctx) mutable {
                         (void)ch.read(ctx);
                       }),
            read_by_name);

  const std::string write_by_name =
      failure_of("R", [](JobContext& ctx) { ctx.write("c", 1.0); });
  EXPECT_EQ(write_by_name.rfind("logic_error: ", 0), 0u) << write_by_name;
  EXPECT_EQ(failure_of("R",
                       [ch = BoundChannel("c")](JobContext& ctx) mutable {
                         ch.write(ctx, 1.0);
                       }),
            write_by_name);
}

TEST(BoundChannel, BoundAccessMatchesTheNameLookupOverManyJobs) {
  // The same W -> R exchange by name and through bound channels gives
  // equal histories, job after job.
  const auto run = [](const Network& net) {
    ExecutionState state(net, kNoInputs);
    for (int job = 0; job < 5; ++job) {
      state.run_job(*net.find_process("W"), Time::ms(100 * job));
      state.run_job(*net.find_process("R"), Time::ms(100 * job));
    }
    return std::move(state).histories();
  };
  const Network named = two_process_net(
      [](JobContext& ctx) { ctx.write("c", static_cast<double>(ctx.job_index())); },
      [](JobContext& ctx) { (void)ctx.read("c"); });
  const Network bound = two_process_net(
      [ch = BoundChannel("c")](JobContext& ctx) mutable {
        ch.write(ctx, static_cast<double>(ctx.job_index()));
      },
      [ch = BoundChannel("c")](JobContext& ctx) mutable { (void)ch.read(ctx); });
  const ExecutionHistories expected = run(named);
  EXPECT_EQ(expected.channel_writes.at(*named.find_channel("c")).size(), 5u);
  EXPECT_TRUE(run(bound).functionally_equal(expected));
}

/// The vm over `frames` frames on 2 and 3 processors (where every
/// deadline is met) against the zero-delay reference of the same inputs.
void expect_vm_equals_reference(const Network& net, const DerivedTaskGraph& derived,
                                const InputScripts& inputs,
                                const std::map<ProcessId, SporadicScript>& sporadics,
                                std::int64_t frames) {
  const ZeroDelayResult reference =
      zero_delay_reference(net, derived.hyperperiod, frames, inputs, sporadics);
  for (std::int64_t m = 2; m <= 3; ++m) {
    const StaticSchedule schedule =
        testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, m);
    RunOptions opts;
    opts.frames = frames;
    const RunResult run =
        run_static_order_vm(net, derived, schedule, opts, inputs, sporadics);
    ASSERT_TRUE(run.met_all_deadlines()) << m << " processor(s)";
    EXPECT_TRUE(run.histories.functionally_equal(reference.histories))
        << m << " processor(s)";
    EXPECT_FALSE(run.histories.output_samples.empty());
  }
}

TEST(BoundChannel, Fig1VmHistoriesEqualTheReference) {
  const apps::Fig1App app = apps::build_fig1();
  const DerivedTaskGraph derived = derive_task_graph(app.net, app.fig3_wcets());
  const InputScripts inputs = app.make_inputs(
      {3.5, 1.5, 4.0, 1.0, 5.5, 9.0, 2.5, 6.0, 7.0, 0.5}, {1.5, 2.5, 3.5, 4.5});
  std::map<ProcessId, SporadicScript> sporadics;
  sporadics.emplace(app.coef_b, SporadicScript({Time::ms(50), Time::ms(130),
                                                Time::ms(900), Time::ms(1210)},
                                               2, Duration::ms(700)));
  expect_vm_equals_reference(app.net, derived, inputs, sporadics, 4);
}

TEST(BoundChannel, FftVmHistoriesEqualTheReference) {
  const apps::FftApp app = apps::build_fft(8);
  const DerivedTaskGraph derived =
      derive_task_graph(app.net, app.uniform_wcets(Duration::ms(5)));
  const InputScripts inputs = app.make_inputs(
      {{1, 0, 0, 0, 0, 0, 0, 0}, {1, 2, 3, 4, 5, 6, 7, 8}, {0, -1, 0, 1, 0, -1, 0, 1}});
  expect_vm_equals_reference(app.net, derived, inputs, {}, 3);
}

}  // namespace
}  // namespace fppn
