// The buffered-channel / pipelining extension (the paper's named future
// work): buffered FIFOs keep writer-over-reader functional priority for
// zero-delay determinism, but replace the §III-A serialization edges with
// dataflow edges w[k] -> r[k] and buffer-reuse edges r[k] -> w[k+B] — so a
// producer/consumer pair can finally overlap across hyperperiods.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "runtime/vm_runtime.hpp"
#include "sched/registry.hpp"
#include "sched/search.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

/// The same 2-stage pipeline as unfolding_test's deep_pipeline, but with a
/// capacity-B buffered channel and real data flowing through it.
struct Pipeline {
  Network net;
  ProcessId stage1, stage2;
  ChannelId out;
};

Pipeline buffered_pipeline(int capacity) {
  Pipeline p;
  NetworkBuilder b;
  p.stage1 = b.periodic("stage1", Duration::ms(100), Duration::ms(250),
                        behavior([](JobContext& ctx) {
                          const double k = static_cast<double>(ctx.job_index());
                          ctx.write("q", k * k);
                        }));
  p.stage2 = b.periodic("stage2", Duration::ms(100), Duration::ms(250),
                        behavior([](JobContext& ctx) {
                          ctx.write("O", ctx.read("q"));
                        }));
  b.buffered_fifo("q", p.stage1, p.stage2, capacity);
  p.out = b.external_output("O", p.stage2);
  p.net = std::move(b).build();
  return p;
}

WcetMap pipeline_wcets(const Pipeline& p, std::int64_t c) {
  WcetMap w;
  w.emplace(p.stage1, Duration::ms(c));
  w.emplace(p.stage2, Duration::ms(c));
  return w;
}

TEST(BufferedChannel, BuilderValidation) {
  NetworkBuilder b;
  const ProcessId w =
      b.periodic("w", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId r =
      b.periodic("r", Duration::ms(100), Duration::ms(100), no_op_behavior());
  EXPECT_THROW(b.buffered_fifo("q", w, r, 1), std::invalid_argument);
  EXPECT_THROW(b.buffered_fifo("q", w, r, 0), std::invalid_argument);
}

TEST(BufferedChannel, WriterPriorityInstalledAutomatically) {
  const Pipeline p = buffered_pipeline(2);
  EXPECT_TRUE(p.net.has_priority(p.stage1, p.stage2));
}

TEST(BufferedChannel, ConflictingExplicitPriorityRejected) {
  NetworkBuilder b;
  const ProcessId w =
      b.periodic("w", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId r =
      b.periodic("r", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.priority(r, w);  // reader over writer...
  b.buffered_fifo("q", w, r, 2);  // ...conflicts with the implied w -> r
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);  // FP cycle
}

TEST(BufferedChannel, UnequalRatesRejectedAtDerivation) {
  NetworkBuilder b;
  const ProcessId w =
      b.periodic("w", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId r =
      b.periodic("r", Duration::ms(200), Duration::ms(200), no_op_behavior());
  b.buffered_fifo("q", w, r, 2);
  const Network net = std::move(b).build();
  EXPECT_THROW(derive_task_graph(net, Duration::ms(10)), std::invalid_argument);
}

TEST(BufferedChannel, SporadicEndpointRejectedAtDerivation) {
  NetworkBuilder b;
  const ProcessId u =
      b.periodic("u", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId s = b.sporadic("s", 1, Duration::ms(200), Duration::ms(300),
                                 no_op_behavior());
  b.buffered_fifo("q", s, u, 2);
  const Network net = std::move(b).build();
  EXPECT_THROW(derive_task_graph(net, Duration::ms(10)), std::invalid_argument);
}

TEST(BufferedChannel, DataflowAndReuseEdgesReplaceSerialization) {
  const Pipeline p = buffered_pipeline(2);
  DerivationOptions opts;
  opts.unfolding = 4;
  const auto derived = derive_task_graph(p.net, pipeline_wcets(p, 70), opts);
  const TaskGraph& tg = derived.graph;
  ASSERT_EQ(tg.job_count(), 8u);
  const auto job = [&](const std::string& n) { return *tg.find(n); };
  // Dataflow edges w[k] -> r[k].
  EXPECT_TRUE(tg.has_edge(job("stage1[1]"), job("stage2[1]")));
  EXPECT_TRUE(tg.has_edge(job("stage1[3]"), job("stage2[3]")));
  // Buffer-reuse edges r[k] -> w[k+2].
  EXPECT_TRUE(tg.has_edge(job("stage2[1]"), job("stage1[3]")));
  EXPECT_TRUE(tg.has_edge(job("stage2[2]"), job("stage1[4]")));
  // NO serialization edge r[k] -> w[k+1] (the unbuffered rule's edge).
  const Reachability reach(tg.precedence());
  EXPECT_FALSE(reach.reaches(NodeId(job("stage2[1]").value()),
                             NodeId(job("stage1[2]").value())));
}

TEST(BufferedChannel, PipeliningBecomesFeasible) {
  // The flip the unbuffered model cannot achieve (see unfolding_test's
  // FpSerializationLimitsPipeliningWithoutBuffering): 70+70 ms of work per
  // 100 ms period is infeasible single-slot at any M, but pipelines on two
  // processors with capacity 2.
  DerivationOptions opts;
  opts.unfolding = 5;
  opts.truncate_deadlines = false;  // steady-state view (no frame-edge clip)

  const Pipeline unbuffered_like = buffered_pipeline(2);
  // Re-derive the *unbuffered* variant for reference.
  NetworkBuilder b;
  const ProcessId s1 =
      b.periodic("stage1", Duration::ms(100), Duration::ms(250), no_op_behavior());
  const ProcessId s2 =
      b.periodic("stage2", Duration::ms(100), Duration::ms(250), no_op_behavior());
  b.fifo("q", s1, s2);
  b.priority(s1, s2);
  const Network serial_net = std::move(b).build();
  WcetMap serial_wcets;
  serial_wcets.emplace(s1, Duration::ms(70));
  serial_wcets.emplace(s2, Duration::ms(70));
  const auto serial = derive_task_graph(serial_net, serial_wcets, opts);
  EXPECT_EQ(min_processors(serial.graph, 8).processors, 0) << "sanity: serialized";

  const auto buffered =
      derive_task_graph(unbuffered_like.net, pipeline_wcets(unbuffered_like, 70), opts);
  const auto result = min_processors(buffered.graph, 8);
  EXPECT_EQ(result.processors, 2);
  ASSERT_TRUE(result.attempt.has_value());
  // Pipelining evidence: stage1[k+1] starts before stage2[k] completes.
  const StaticSchedule& s = result.attempt->schedule;
  bool overlap = false;
  for (std::int64_t k = 1; k < 5; ++k) {
    const auto a = buffered.graph.find("stage1[" + std::to_string(k + 1) + "]");
    const auto c = buffered.graph.find("stage2[" + std::to_string(k) + "]");
    overlap |= s.start(*a) < s.end(*c, buffered.graph);
  }
  EXPECT_TRUE(overlap);
}

TEST(BufferedChannel, VmMatchesZeroDelayUnderPipelining) {
  const Pipeline p = buffered_pipeline(2);
  DerivationOptions opts;
  opts.unfolding = 2;
  opts.truncate_deadlines = false;
  const auto derived = derive_task_graph(p.net, pipeline_wcets(p, 70), opts);
  sched::StrategyOptions sched_opts;
  sched_opts.processors = 2;
  const sched::StrategyResult attempt =
      sched::StrategyRegistry::global().create("alap-edf")->schedule(derived.graph,
                                                                      sched_opts);
  RunOptions run_opts;
  run_opts.frames = 3;
  const RunResult run =
      run_static_order_vm(p.net, derived, attempt.schedule, run_opts, {}, {});
  const ZeroDelayResult ref =
      zero_delay_reference(p.net, derived.hyperperiod, 3, {}, {});
  EXPECT_TRUE(run.histories.functionally_equal(ref.histories))
      << run.histories.diff(ref.histories, p.net);
  // The reader saw 1, 4, 9, 16, ... in order.
  const auto& samples = run.histories.output_samples.at(p.out);
  ASSERT_EQ(samples.size(), 6u);  // 2 stage2 jobs per 200 ms super-frame x 3
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double expect = static_cast<double>((k + 1) * (k + 1));
    EXPECT_EQ(samples[k].value, Value{expect}) << "k=" << k;
  }
}

TEST(BufferedChannel, OverflowGuardTrips) {
  // Writing capacity+1 tokens without a read trips the runtime guard.
  NetworkBuilder b;
  const ProcessId w = b.periodic("w", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   ctx.write("q", Value{1.0});
                                   ctx.write("q", Value{2.0});
                                   ctx.write("q", Value{3.0});  // overflow
                                 }));
  const ProcessId r =
      b.periodic("r", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.buffered_fifo("q", w, r, 2);
  const Network net = std::move(b).build();
  ExecutionState state(net);
  EXPECT_THROW(state.run_job(w, Time::ms(0)), std::logic_error);
}

TEST(BufferedChannel, MixedPairStaysSerialized) {
  // A pair with BOTH a buffered and a single-slot channel keeps the full
  // serialization (the single-slot channel demands it).
  NetworkBuilder b;
  const ProcessId w =
      b.periodic("w", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId r =
      b.periodic("r", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.buffered_fifo("q", w, r, 2);
  b.blackboard("bb", w, r);
  const Network net = std::move(b).build();
  DerivationOptions opts;
  opts.unfolding = 3;
  const auto derived = derive_task_graph(net, Duration::ms(10), opts);
  const Reachability reach(derived.graph.precedence());
  // Serialization edge r[k] -> w[k+1] is back.
  const auto rk = derived.graph.find("r[1]");
  const auto wk1 = derived.graph.find("w[2]");
  EXPECT_TRUE(reach.reaches(NodeId(rk->value()), NodeId(wk1->value())));
}

}  // namespace
}  // namespace fppn
