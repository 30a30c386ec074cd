// Zero-delay semantics (§II-B): trace construction, FP-ordering of
// simultaneous invocations, and the worked example from the paper's text:
//   alpha = w(0), x?[1]I1, x := x^2, x!c1, w(100), y?c1, O1![2]y
// Also the untraced reference the runtimes are compared with: it must
// reproduce the traced run's histories on every app and generated family.
#include "fppn/semantics.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/rng.hpp"
#include "gen/scenario.hpp"
#include "graph/algorithms.hpp"
#include "runtime/vm_runtime.hpp"
#include "taskgraph/derivation.hpp"
#include "trace_text.hpp"

namespace fppn {
namespace {

/// One group's order as the interpreter computes it.
std::vector<ProcessId> order_of(
    const Digraph& fp, const std::vector<ProcessId>& group,
    SimultaneityTieBreak tie_break = SimultaneityTieBreak::kByProcessId) {
  SimultaneousOrder order(fp, tie_break);
  for (const ProcessId p : group) {
    order.add(p);
  }
  return order.take();
}

/// The oracle: topological_sort_subset over the group's distinct
/// processes under the tie-break's preference, each repeated by its
/// multiplicity; nullopt on a cycle.
std::optional<std::vector<ProcessId>> reference_order(const Digraph& fp,
                                                      const std::vector<ProcessId>& group,
                                                      SimultaneityTieBreak tie_break) {
  std::map<ProcessId, std::size_t> multiplicity;
  for (const ProcessId p : group) {
    ++multiplicity[p];
  }
  std::vector<NodeId> subset;
  for (const auto& [p, count] : multiplicity) {
    subset.push_back(NodeId(p.value()));
  }
  const auto prefer = [tie_break](NodeId a, NodeId b) {
    return tie_break == SimultaneityTieBreak::kByProcessId ? a < b : a > b;
  };
  const auto nodes = topological_sort_subset(fp, subset, prefer);
  if (!nodes.has_value()) {
    return std::nullopt;
  }
  std::vector<ProcessId> out;
  for (const NodeId v : *nodes) {
    out.insert(out.end(), multiplicity[ProcessId(v.value())], ProcessId(v.value()));
  }
  return out;
}

/// A random FP DAG on `n` processes: edges only from lower to higher
/// rank of a shuffled ranking, so ids do not follow the topology.
Digraph random_fp_dag(gen::Rng& rng, std::size_t n) {
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(rank[i - 1], rank[static_cast<std::size_t>(
                               rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  }
  Digraph fp(n);
  const std::int64_t density = rng.range(1, 30);  // percent of pairs related
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (rank[a] < rank[b] && rng.chance(density, 100)) {
        fp.add_edge(NodeId(a), NodeId(b));
      }
    }
  }
  return fp;
}

TEST(OrderSimultaneous, RespectsFunctionalPriority) {
  NetworkBuilder b;
  const ProcessId hi =
      b.periodic("hi", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId lo =
      b.periodic("lo", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.priority(hi, lo);
  const Network net = std::move(b).build();
  const auto order = order_of(net.priority_graph(), {lo, hi});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], hi);
  EXPECT_EQ(order[1], lo);
}

TEST(OrderSimultaneous, BurstsStayAdjacent) {
  NetworkBuilder b;
  const ProcessId hi =
      b.periodic("hi", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId lo =
      b.periodic("lo", Duration::ms(100), Duration::ms(100), no_op_behavior());
  b.priority(hi, lo);
  const Network net = std::move(b).build();
  const auto order = order_of(net.priority_graph(), {lo, hi, hi, hi});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], hi);
  EXPECT_EQ(order[1], hi);
  EXPECT_EQ(order[2], hi);
  EXPECT_EQ(order[3], lo);
}

TEST(OrderSimultaneous, TieBreakOnlyAffectsUnrelated) {
  NetworkBuilder b;
  const ProcessId a =
      b.periodic("a", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId c =
      b.periodic("c", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const Network net = std::move(b).build();
  const auto fwd = order_of(net.priority_graph(), {a, c}, SimultaneityTieBreak::kByProcessId);
  const auto rev =
      order_of(net.priority_graph(), {a, c}, SimultaneityTieBreak::kByReverseProcessId);
  EXPECT_EQ(fwd[0], a);
  EXPECT_EQ(rev[0], c);
}

// The Kahn pass against topological_sort_subset: random FP DAGs of 1 to
// 200 processes (so the bitsets span one to four words), random
// multisets with bursts, both tie-breaks, one SimultaneousOrder reused
// for every group of a graph as the interpreter reuses it.
TEST(OrderSimultaneous, MatchesTopologicalSortSubsetOnRandomDags) {
  gen::Rng rng(0x5eed0de5ULL);
  std::size_t groups = 0;
  std::size_t wide_groups = 0;  // a member above id 63
  std::size_t max_n = 0;
  for (int graph = 0; graph < 120; ++graph) {
    const std::size_t n =
        graph < 8 ? static_cast<std::size_t>(graph + 1)
                  : static_cast<std::size_t>(rng.range(1, 200));
    max_n = std::max(max_n, n);
    const Digraph fp = random_fp_dag(rng, n);
    for (const SimultaneityTieBreak tie_break :
         {SimultaneityTieBreak::kByProcessId, SimultaneityTieBreak::kByReverseProcessId}) {
      SimultaneousOrder order(fp, tie_break);
      for (int g = 0; g < 12; ++g) {
        std::vector<ProcessId> group;
        const std::int64_t distinct = rng.range(1, static_cast<std::int64_t>(n));
        for (std::int64_t k = 0; k < distinct; ++k) {
          const ProcessId p(static_cast<std::size_t>(
              rng.range(0, static_cast<std::int64_t>(n) - 1)));
          const std::int64_t burst = rng.chance(1, 4) ? rng.range(2, 5) : 1;
          group.insert(group.end(), static_cast<std::size_t>(burst), p);
        }
        for (std::size_t k = group.size(); k > 1; --k) {  // any arrival order
          std::swap(group[k - 1], group[static_cast<std::size_t>(
                                      rng.range(0, static_cast<std::int64_t>(k) - 1))]);
        }
        for (const ProcessId p : group) {
          order.add(p);
          wide_groups += p.value() >= 64 ? 1 : 0;
        }
        const auto want = reference_order(fp, group, tie_break);
        ASSERT_TRUE(want.has_value());
        ASSERT_EQ(order.take(), *want)
            << "graph " << graph << " (" << n << " processes), group " << g;
        ++groups;
      }
    }
  }
  EXPECT_EQ(groups, 120u * 2u * 12u);
  EXPECT_GT(wide_groups, 0u);
  EXPECT_GE(max_n, 190u);
}

TEST(OrderSimultaneous, CyclicGroupThrowsAndLeavesTheOrderUsable) {
  Digraph fp(70);
  fp.add_edge(NodeId(3), NodeId(66));
  fp.add_edge(NodeId(66), NodeId(3));
  fp.add_edge(NodeId(0), NodeId(3));
  SimultaneousOrder order(fp);
  order.add(ProcessId(66));
  order.add(ProcessId(0));
  order.add(ProcessId(3));
  try {
    (void)order.take();
    FAIL() << "a cyclic group was ordered";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "simultaneous invocation group cannot be ordered: FP cycle");
  }
  EXPECT_FALSE(reference_order(fp, {ProcessId(66), ProcessId(0), ProcessId(3)},
                               SimultaneityTieBreak::kByProcessId)
                   .has_value());
  // The failed group is gone: the next one is ordered on its own.
  order.add(ProcessId(3));
  order.add(ProcessId(0));
  EXPECT_EQ(order.take(), (std::vector<ProcessId>{ProcessId(0), ProcessId(3)}));
  EXPECT_THROW(order.add(ProcessId(70)), std::invalid_argument);
}

// The paper's §II-A example trace: a producer squares input sample [1] at
// time 0 and writes it to c1; at time 100 a consumer reads c1 and emits
// output sample [2... (here [1]).
TEST(ZeroDelay, PaperExampleTrace) {
  NetworkBuilder b;
  const ProcessId prod = b.periodic("prod", Duration::ms(200), Duration::ms(200),
                                    behavior([](JobContext& ctx) {
                                      const Value x = ctx.read("I1");
                                      const double v =
                                          has_data(x) ? std::get<double>(x) : 0.0;
                                      ctx.write("c1", v * v);
                                    }));
  const ProcessId cons = b.periodic("cons", Duration::ms(200), Duration::ms(200),
                                    behavior([](JobContext& ctx) {
                                      ctx.write("O1", ctx.read("c1"));
                                    }));
  b.fifo("c1", prod, cons);
  b.priority(prod, cons);
  const ChannelId i1 = b.external_input("I1", prod);
  const ChannelId o1 = b.external_output("O1", cons);
  const Network net = std::move(b).build();

  InvocationPlan plan;
  plan.add(Time::ms(0), prod);
  plan.add(Time::ms(100), cons);
  InputScripts inputs;
  inputs.emplace(i1, std::vector<Value>{Value{5.0}});

  const ZeroDelayResult r = run_zero_delay(net, plan, inputs);
  EXPECT_EQ(r.jobs_executed, 2u);
  const auto& samples = r.histories.output_samples.at(o1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].value, Value{25.0});
  EXPECT_EQ(samples[0].time, Time::ms(100));

  const std::string trace = testing::trace_to_string(r.trace, net, false);
  // w(0) ... read(I1)=5 ... write(c1)=25 w(100) ... read(c1)=25 ... write(O1)=25
  EXPECT_NE(trace.find("w(0)"), std::string::npos);
  EXPECT_NE(trace.find("prod[1]:read(I1)=5"), std::string::npos);
  EXPECT_NE(trace.find("prod[1]:write(c1)=25"), std::string::npos);
  EXPECT_NE(trace.find("w(100)"), std::string::npos);
  EXPECT_NE(trace.find("cons[1]:read(c1)=25"), std::string::npos);
  EXPECT_NE(trace.find("cons[1]:write(O1)=25"), std::string::npos);
}

TEST(ZeroDelay, PriorityDecidesValueSeenOnBlackboard) {
  // Writer and reader invoked simultaneously: FP decides whether the
  // reader sees this round's value or the previous one.
  const auto build = [](bool writer_first, ChannelId* out_chan) {
    NetworkBuilder b;
    const ProcessId w = b.periodic("w", Duration::ms(100), Duration::ms(100),
                                   behavior([](JobContext& ctx) {
                                     ctx.write("bb",
                                               Value{static_cast<double>(
                                                   ctx.job_index())});
                                   }));
    const ProcessId r = b.periodic("r", Duration::ms(100), Duration::ms(100),
                                   behavior([](JobContext& ctx) {
                                     ctx.write("O", ctx.read("bb"));
                                   }));
    b.blackboard("bb", w, r);
    if (writer_first) {
      b.priority(w, r);
    } else {
      b.priority(r, w);
    }
    *out_chan = b.external_output("O", r);
    return std::move(b).build();
  };

  ChannelId out1, out2;
  const Network net_wf = build(true, &out1);
  const Network net_rf = build(false, &out2);
  const InvocationPlan plan_wf = InvocationPlan::build(net_wf, Time::ms(200));
  const InvocationPlan plan_rf = InvocationPlan::build(net_rf, Time::ms(200));

  const auto r_wf = run_zero_delay(net_wf, plan_wf);
  const auto r_rf = run_zero_delay(net_rf, plan_rf);
  // Writer first: reader sees 1 then 2. Reader first: none then 1.
  EXPECT_EQ(r_wf.histories.output_samples.at(out1)[0].value, Value{1.0});
  EXPECT_EQ(r_wf.histories.output_samples.at(out1)[1].value, Value{2.0});
  EXPECT_EQ(r_rf.histories.output_samples.at(out2)[0].value, no_data());
  EXPECT_EQ(r_rf.histories.output_samples.at(out2)[1].value, Value{1.0});
}

TEST(ZeroDelay, FifoBuffersAcrossRates) {
  // Fast writer (100 ms), slow reader (200 ms): FIFO accumulates; reads
  // drain one per reader job.
  NetworkBuilder b;
  const ProcessId w = b.periodic("w", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   ctx.write("q", Value{ctx.job_index()});
                                 }));
  const ProcessId r = b.periodic("r", Duration::ms(200), Duration::ms(200),
                                 behavior([](JobContext& ctx) {
                                   ctx.write("O", ctx.read("q"));
                                 }));
  b.fifo("q", w, r);
  b.priority(w, r);
  const ChannelId o = b.external_output("O", r);
  const Network net = std::move(b).build();
  const auto res =
      run_zero_delay(net, InvocationPlan::build(net, Time::ms(600)));
  const auto& samples = res.histories.output_samples.at(o);
  // Reader at 0, 200, 400 sees 1, 2, 4 (writer wrote 1; 2,3; 4,5... reads
  // drain in FIFO order: 1, then 2, then 3? — at t=200 the queue holds
  // [2,3] after job 1 consumed 1... reader takes the head each time).
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].value, Value{std::int64_t{1}});
  EXPECT_EQ(samples[1].value, Value{std::int64_t{2}});
  EXPECT_EQ(samples[2].value, Value{std::int64_t{3}});
}

TEST(ZeroDelay, EmptyPlanProducesEmptyTrace) {
  NetworkBuilder b;
  b.periodic("p", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const Network net = std::move(b).build();
  const auto res = run_zero_delay(net, InvocationPlan{});
  EXPECT_EQ(res.jobs_executed, 0u);
  EXPECT_TRUE(res.trace.empty());
}

/// zero_delay_reference against the traced run_zero_delay on the same
/// plan: equal histories and job counts, and no trace in the reference.
void expect_reference_matches_traced(const Network& net, const Duration& hyperperiod,
                                     std::int64_t frames, const InputScripts& inputs,
                                     const std::map<ProcessId, SporadicScript>& scripts,
                                     const std::string& what) {
  SCOPED_TRACE(what);
  const ZeroDelayResult ref =
      zero_delay_reference(net, hyperperiod, frames, inputs, scripts);
  const InvocationPlan plan =
      InvocationPlan::build(net, Time() + hyperperiod * Rational(frames), scripts);
  const ZeroDelayResult traced = run_zero_delay(net, plan, inputs);
  EXPECT_TRUE(ref.histories.functionally_equal(traced.histories))
      << ref.histories.diff(traced.histories, net);
  EXPECT_EQ(ref.histories.fingerprint(), traced.histories.fingerprint());
  EXPECT_EQ(ref.jobs_executed, traced.jobs_executed);
  EXPECT_GT(ref.jobs_executed, 0u);
  EXPECT_TRUE(ref.trace.empty());
  EXPECT_FALSE(traced.trace.empty());
}

TEST(ZeroDelay, ReferenceMatchesTracedRun) {
  // FMS over 10 hyperperiods, commands ending one hyperperiod early.
  const apps::FmsApp fms = apps::build_fms(true);
  const Duration fms_h = derive_task_graph(fms.net, fms.default_wcets()).hyperperiod;
  constexpr std::int64_t kFmsFrames = 10;
  for (const std::uint64_t seed : {1, 7, 42, 20260101}) {
    expect_reference_matches_traced(
        fms.net, fms_h, kFmsFrames,
        fms.make_inputs(static_cast<std::size_t>(kFmsFrames * 50), seed),
        fms.random_commands(Time() + fms_h * Rational(kFmsFrames - 1), seed),
        "fms seed " + std::to_string(seed));
  }

  const apps::Fig1App fig1 = apps::build_fig1();
  std::map<ProcessId, SporadicScript> coefs;
  coefs.emplace(fig1.coef_b, SporadicScript({Time::ms(50), Time::ms(50), Time::ms(760)},
                                            2, Duration::ms(700)));
  expect_reference_matches_traced(
      fig1.net, derive_task_graph(fig1.net, fig1.fig3_wcets()).hyperperiod, 5,
      fig1.make_inputs({3, 1, 4, 1, 5, 9, 2, 6}, {1.5, 2.5, 3.5}), coefs, "fig1");

  const apps::FftApp fft = apps::build_fft();
  std::vector<std::vector<double>> blocks;
  for (int frame = 0; frame < 4; ++frame) {
    std::vector<double> block;
    for (int i = 0; i < fft.points; ++i) {
      block.push_back(static_cast<double>((frame + 1) * (i % 3) - i));
    }
    blocks.push_back(std::move(block));
  }
  expect_reference_matches_traced(
      fft.net,
      derive_task_graph(fft.net, fft.uniform_wcets(Duration::ms(10))).hyperperiod, 4,
      fft.make_inputs(blocks), {}, "fft");

  std::set<gen::Family> derived_families;
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      Duration hyperperiod;
      try {
        hyperperiod = derive_task_graph(s.net, s.wcets).hyperperiod;
      } catch (const std::invalid_argument&) {
        continue;  // only the families that derive have a hyperperiod
      }
      derived_families.insert(family);
      constexpr std::int64_t kFrames = 2;
      expect_reference_matches_traced(
          s.net, hyperperiod, kFrames, {},
          gen::jittered_scripts(s.net, seed, kFrames, hyperperiod), s.name);
    }
  }
  EXPECT_EQ(derived_families.size(), gen::all_families().size());
}

}  // namespace
}  // namespace fppn
