#include "fppn/exec_state.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "trace_text.hpp"

namespace fppn {
namespace {

// The state reads the caller's InputScripts in place, so it cannot be
// built from a temporary one: that would dangle after the full expression.
static_assert(!std::is_constructible_v<ExecutionState, const Network&, InputScripts&&>);
static_assert(!std::is_constructible_v<ExecutionState, const Network&, InputScripts>);
static_assert(!std::is_constructible_v<ExecutionState, const Network&, InputScripts&&,
                                       ActionTrace*>);
static_assert(std::is_constructible_v<ExecutionState, const Network&, const InputScripts&>);
static_assert(std::is_constructible_v<ExecutionState, const Network&, InputScripts&,
                                      ActionTrace*>);

const InputScripts kNoInputs;

struct Fixture {
  Network net;
  ProcessId writer, reader;
  ChannelId chan, in, out;

  static Fixture make(ChannelKind kind = ChannelKind::kFifo) {
    Fixture f;
    NetworkBuilder b;
    f.writer = b.periodic("W", Duration::ms(100), Duration::ms(100),
                          behavior([](JobContext& ctx) {
                            const Value v = ctx.read("in");
                            ctx.write("chan", has_data(v) ? v : Value{std::int64_t{-1}});
                          }));
    f.reader = b.periodic("R", Duration::ms(100), Duration::ms(100),
                          behavior([](JobContext& ctx) {
                            ctx.write("out", ctx.read("chan"));
                          }));
    f.chan = b.channel("chan", kind, f.writer, f.reader);
    f.in = b.external_input("in", f.writer);
    f.out = b.external_output("out", f.reader);
    b.priority(f.writer, f.reader);
    f.net = std::move(b).build();
    return f;
  }
};

TEST(ExecutionState, JobCountsIncrement) {
  const Fixture f = Fixture::make();
  ExecutionState s(f.net, kNoInputs);
  EXPECT_EQ(s.run_job(f.writer, Time::ms(0)), 1);
  EXPECT_EQ(s.run_job(f.writer, Time::ms(100)), 2);
  EXPECT_EQ(s.run_job(f.reader, Time::ms(100)), 1);  // counted per process
}

TEST(ExecutionState, ExternalInputSampledByJobIndex) {
  const Fixture f = Fixture::make();
  InputScripts in;
  in.emplace(f.in, std::vector<Value>{Value{std::int64_t{10}}, Value{std::int64_t{20}}});
  ExecutionState s(f.net, in);
  s.run_job(f.writer, Time::ms(0));    // k=1 reads sample 10
  s.run_job(f.writer, Time::ms(100));  // k=2 reads sample 20
  s.run_job(f.writer, Time::ms(200));  // k=3: script exhausted -> no data
  const auto h = s.histories();
  const auto& writes = h.channel_writes.at(f.chan);
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0], Value{std::int64_t{10}});
  EXPECT_EQ(writes[1], Value{std::int64_t{20}});
  EXPECT_EQ(writes[2], Value{std::int64_t{-1}});  // no_data fallback
}

TEST(ExecutionState, ReadsTheCallersScriptsInPlace) {
  // The scripts are borrowed, not copied: a sample the caller appends
  // after construction is the one the next job reads.
  const Fixture f = Fixture::make();
  InputScripts in;
  in.emplace(f.in, std::vector<Value>{Value{std::int64_t{10}}});
  ExecutionState s(f.net, in);
  s.run_job(f.writer, Time::ms(0));
  in.at(f.in).emplace_back(std::int64_t{20});
  s.run_job(f.writer, Time::ms(100));
  EXPECT_EQ(s.histories().channel_writes.at(f.chan),
            (std::vector<Value>{Value{std::int64_t{10}}, Value{std::int64_t{20}}}));
}

TEST(ExecutionState, OutputSamplesCarryIndexAndTime) {
  const Fixture f = Fixture::make();
  ExecutionState s(f.net, kNoInputs);
  s.run_job(f.writer, Time::ms(0));
  s.run_job(f.reader, Time::ms(5));
  const auto h = s.histories();
  const auto& samples = h.output_samples.at(f.out);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].k, 1);
  EXPECT_EQ(samples[0].time, Time::ms(5));
}

TEST(ExecutionState, AccessControlEnforced) {
  const Fixture f = Fixture::make();
  // A behavior that tries to read a channel it does not own.
  NetworkBuilder b;
  const ProcessId w = b.periodic("W", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   (void)ctx.read("c");  // W is the *writer*
                                 }));
  const ProcessId r =
      b.periodic("R", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.fifo("c", w, r);
  b.priority(w, r);
  const Network net = std::move(b).build();
  ExecutionState s(net, kNoInputs);
  EXPECT_THROW(s.run_job(w, Time::ms(0)), std::logic_error);
}

TEST(ExecutionState, WriteToInputAndReadFromOutputRejected) {
  NetworkBuilder b;
  const ProcessId p = b.periodic("P", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   ctx.write("in", Value{1.0});
                                 }));
  b.external_input("in", p);
  const Network net = std::move(b).build();
  ExecutionState s(net, kNoInputs);
  EXPECT_THROW(s.run_job(p, Time::ms(0)), std::logic_error);
}

TEST(ExecutionState, UnknownChannelNameRejected) {
  NetworkBuilder b;
  const ProcessId p = b.periodic("P", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   (void)ctx.read("ghost");
                                 }));
  const Network net = std::move(b).build();
  ExecutionState s(net, kNoInputs);
  EXPECT_THROW(s.run_job(p, Time::ms(0)), std::invalid_argument);
}

TEST(ExecutionState, InputScriptOnNonInputChannelRejected) {
  const Fixture f = Fixture::make();
  InputScripts bad;
  bad.emplace(f.chan, std::vector<Value>{Value{1.0}});
  EXPECT_THROW(ExecutionState(f.net, bad), std::invalid_argument);
}

TEST(ExecutionState, TimeMonotonicityEnforced) {
  const Fixture f = Fixture::make();
  ExecutionState s(f.net, kNoInputs);
  s.advance_time(Time::ms(100));
  EXPECT_THROW(s.advance_time(Time::ms(50)), std::logic_error);
  EXPECT_NO_THROW(s.advance_time(Time::ms(100)));  // equal is fine
}

TEST(ExecutionState, TraceRecordsActions) {
  const Fixture f = Fixture::make();
  InputScripts in;
  in.emplace(f.in, std::vector<Value>{Value{std::int64_t{7}}});
  ActionTrace trace;
  ExecutionState s(f.net, in, &trace);
  s.advance_time(Time::ms(0));
  s.run_job(f.writer, Time::ms(0));
  const auto& actions = trace.actions();
  // w(0), JobStart, Read, Write, JobEnd.
  ASSERT_EQ(actions.size(), 5u);
  EXPECT_TRUE(std::holds_alternative<WaitAction>(actions[0]));
  EXPECT_TRUE(std::holds_alternative<JobStartAction>(actions[1]));
  EXPECT_TRUE(std::holds_alternative<ReadAction>(actions[2]));
  EXPECT_TRUE(std::holds_alternative<WriteAction>(actions[3]));
  EXPECT_TRUE(std::holds_alternative<JobEndAction>(actions[4]));
  const std::string rendered = testing::trace_to_string(trace, f.net, false);
  EXPECT_NE(rendered.find("W[1]:read(in)=7"), std::string::npos);
}

TEST(ExecutionState, NoSinkRecordsNothingButKeepsHistories) {
  const Fixture f = Fixture::make();
  InputScripts in;
  in.emplace(f.in, std::vector<Value>{Value{std::int64_t{7}}});
  ActionTrace traced;
  ExecutionState with_sink(f.net, in, &traced);
  ExecutionState without_sink(f.net, in);
  for (ExecutionState* s : {&with_sink, &without_sink}) {
    s->advance_time(Time::ms(0));
    s->run_job(f.writer, Time::ms(0));
  }
  EXPECT_EQ(traced.size(), 5u);
  EXPECT_TRUE(without_sink.histories().functionally_equal(with_sink.histories()));
  // Time monotonicity is checked with or without a sink.
  EXPECT_THROW(without_sink.advance_time(Time::ms(-1)), std::logic_error);
}

TEST(ExecutionState, MovedHistoriesEqualTheSnapshot) {
  const Fixture f = Fixture::make();
  InputScripts in;
  in.emplace(f.in, std::vector<Value>{Value{std::int64_t{7}}, Value{std::int64_t{8}}});
  ExecutionState s(f.net, in);
  s.run_job(f.writer, Time::ms(0));
  s.run_job(f.reader, Time::ms(0));
  s.run_job(f.writer, Time::ms(100));
  const ExecutionHistories snapshot = s.histories();
  const ExecutionHistories moved = std::move(s).histories();
  EXPECT_EQ(moved.channel_writes, snapshot.channel_writes);
  EXPECT_EQ(moved.output_samples, snapshot.output_samples);
  EXPECT_FALSE(moved.channel_writes.empty());
  EXPECT_FALSE(moved.output_samples.empty());
}

TEST(ExecutionState, BehaviorStateIsFreshPerExecution) {
  // Two ExecutionStates over the same network must not share behavior
  // instances (X_p0 initialization per run).
  NetworkBuilder b;
  class Counter final : public ProcessBehavior {
   public:
    void on_job(JobContext& ctx) override {
      ctx.write("out", Value{++count_});
    }

   private:
    std::int64_t count_ = 0;
  };
  const ProcessId p = b.periodic("P", Duration::ms(100), Duration::ms(100),
                                 [] { return std::make_unique<Counter>(); });
  const ChannelId out = b.external_output("out", p);
  const Network net = std::move(b).build();
  ExecutionState s1(net, kNoInputs);
  s1.run_job(p, Time::ms(0));
  s1.run_job(p, Time::ms(100));
  ExecutionState s2(net, kNoInputs);
  s2.run_job(p, Time::ms(0));
  EXPECT_EQ(s1.histories().output_samples.at(out).back().value, Value{std::int64_t{2}});
  EXPECT_EQ(s2.histories().output_samples.at(out).back().value, Value{std::int64_t{1}});
}

}  // namespace
}  // namespace fppn
