// Generative property suite: random FPPNs in the schedulable subclass are
// pushed through the COMPLETE pipeline — build, derive, analyze, schedule,
// run the online policy — and checked against the model's invariants:
//  * derivation: job-count formula, DAG-ness, <J edge direction,
//  * Prop. 3.1: min_processors never undercuts ceil(load),
//  * Def. 3.2: every accepted schedule passes the feasibility checker,
//  * Prop. 4.1: the policy meets deadlines on feasible schedules,
//  * Prop. 2.1: VM histories equal the zero-delay reference, under random
//    sporadic scripts and random actual execution times.
#include <gtest/gtest.h>

#include <random>

#include "runtime/vm_runtime.hpp"
#include "sched/search.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

struct RandomNet {
  Network net;
  WcetMap wcets;
  std::map<ProcessId, SporadicScript> scripts;
};

/// Draws a layered network: 3-8 periodic processes with periods from
/// {100, 200, 400} wired forward by random channels, plus 0-2 sporadic
/// configurators attached to periodic users. WCETs small enough to keep
/// most instances schedulable on <= 4 processors.
RandomNet random_network(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  NetworkBuilder b;
  const std::vector<std::int64_t> periods = {100, 200, 400};
  std::uniform_int_distribution<std::size_t> period_pick(0, periods.size() - 1);
  std::uniform_int_distribution<int> proc_count(3, 8);
  std::uniform_int_distribution<int> spor_count(0, 2);
  std::uniform_int_distribution<std::int64_t> wcet_pick(2, 12);

  RandomNet out;
  const int n = proc_count(rng);
  std::vector<ProcessId> periodic;
  std::vector<Duration> period_of;
  for (int i = 0; i < n; ++i) {
    const Duration period = Duration::ms(periods[period_pick(rng)]);
    // Behavior: accumulate whatever arrives on any input channel, write
    // the sum to every output channel (deterministic, data-dependent).
    const ProcessId p = b.periodic(
        "P" + std::to_string(i), period, period, [] {
          class Acc final : public ProcessBehavior {
           public:
            void on_job(JobContext& ctx) override {
              const ProcessDecl& self = ctx.network().process(ctx.self());
              for (const ChannelId c : self.reads) {
                const Value v = ctx.read(c);
                if (const auto* d = std::get_if<double>(&v)) {
                  acc_ += *d;
                } else if (const auto* i64 = std::get_if<std::int64_t>(&v)) {
                  acc_ += static_cast<double>(*i64);
                }
              }
              acc_ = 0.5 * acc_ + 1.0;
              for (const ChannelId c : self.writes) {
                ctx.write(c, acc_);
              }
            }

           private:
            double acc_ = 0.0;
          };
          return std::make_unique<Acc>();
        });
    periodic.push_back(p);
    period_of.push_back(period);
  }
  // Forward channels i -> j (i < j): ~40% density, alternating kinds.
  std::bernoulli_distribution channel_coin(0.4);
  int channel_id = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (channel_coin(rng)) {
        const std::string name = "c" + std::to_string(channel_id++);
        if ((rng() & 1U) == 0U) {
          b.fifo(name, periodic[static_cast<std::size_t>(i)],
                 periodic[static_cast<std::size_t>(j)]);
        } else {
          b.blackboard(name, periodic[static_cast<std::size_t>(i)],
                       periodic[static_cast<std::size_t>(j)]);
        }
        b.priority(periodic[static_cast<std::size_t>(i)],
                   periodic[static_cast<std::size_t>(j)]);
      }
    }
  }
  // Sporadic configurators.
  const int spors = spor_count(rng);
  for (int s = 0; s < spors; ++s) {
    const std::size_t user = rng() % periodic.size();
    const Duration user_period = period_of[user];
    const Duration spor_period = user_period * Rational(2);
    const Duration deadline = user_period * Rational(3);  // > T_u
    std::uniform_int_distribution<int> burst_pick(1, 2);
    const int burst = burst_pick(rng);
    const ProcessId sp =
        b.sporadic("S" + std::to_string(s), burst, spor_period, deadline,
                   behavior([](JobContext& ctx) {
                     const ProcessDecl& self = ctx.network().process(ctx.self());
                     for (const ChannelId c : self.writes) {
                       ctx.write(c, static_cast<double>(ctx.job_index()));
                     }
                   }));
    b.blackboard("s" + std::to_string(s), sp, periodic[user]);
    // Random priority direction exercises both Fig. 2 window kinds.
    if ((rng() & 1U) == 0U) {
      b.priority(sp, periodic[user]);
    } else {
      b.priority(periodic[user], sp);
    }
  }
  out.net = std::move(b).build();
  for (std::size_t i = 0; i < out.net.process_count(); ++i) {
    out.wcets.emplace(ProcessId{i}, Duration::ms(wcet_pick(rng)));
  }
  return out;
}

class RandomNetworkPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetworkPipeline, FullPipelineInvariantsHold) {
  const std::uint64_t seed = GetParam();
  RandomNet rn = random_network(seed);
  ASSERT_TRUE(rn.net.in_schedulable_subclass());

  const auto derived = derive_task_graph(rn.net, rn.wcets);
  const TaskGraph& tg = derived.graph;
  ASSERT_TRUE(tg.is_acyclic()) << "seed " << seed;
  for (const auto& [u, v] : tg.precedence().edges()) {
    EXPECT_LT(u.value(), v.value()) << "<J order violated, seed " << seed;
  }
  // Job-count formula.
  for (std::size_t i = 0; i < rn.net.process_count(); ++i) {
    const ProcessId p{i};
    const EventSpec& spec = rn.net.process(p).event;
    const Duration period = spec.kind == EventKind::kSporadic
                                ? derived.servers.at(p).server_period
                                : spec.period;
    EXPECT_EQ(Rational(static_cast<std::int64_t>(tg.jobs_of(p).size())),
              Rational(spec.burst) * (derived.hyperperiod / period))
        << "seed " << seed;
  }

  // Prop. 3.1 lower bound vs the search result.
  const LoadResult load = task_graph_load(tg);
  const MinProcessorsResult mp = min_processors(tg, 6);
  if (mp.processors > 0) {
    EXPECT_GE(mp.processors, load.min_processors()) << "seed " << seed;
    ASSERT_TRUE(mp.attempt.has_value());
    const FeasibilityReport report = mp.attempt->schedule.check_feasibility(tg);
    ASSERT_TRUE(report.feasible()) << report.to_string(tg);

    // Random sporadic scripts over 2 frames (kept within the covered
    // window span), random sub-WCET actual times.
    const std::int64_t frames = 2;
    std::uint64_t salt = seed;
    for (const auto& [p, info] : derived.servers) {
      (void)info;
      const EventSpec& spec = rn.net.process(p).event;
      rn.scripts.emplace(
          p, SporadicScript::random(
                 spec.burst, spec.period,
                 Time() + derived.hyperperiod * Rational(frames - 1), ++salt));
    }
    RunOptions opts;
    opts.frames = frames;
    opts.actual_time = [seed, &tg](JobId id, std::int64_t frame) {
      const std::uint64_t mix =
          seed ^ (id.value() * 2654435761ULL) ^ static_cast<std::uint64_t>(frame);
      const Rational fraction(static_cast<std::int64_t>(mix % 100 + 1), 100);
      return tg.job(id).wcet * fraction;
    };
    const RunResult run = run_static_order_vm(rn.net, derived, mp.attempt->schedule,
                                              opts, {}, rn.scripts);
    EXPECT_TRUE(run.met_all_deadlines()) << "Prop. 4.1 violated, seed " << seed;
    const ZeroDelayResult ref =
        zero_delay_reference(rn.net, derived.hyperperiod, frames, {}, rn.scripts);
    EXPECT_TRUE(run.histories.functionally_equal(ref.histories))
        << "Prop. 2.1 violated, seed " << seed << "\n"
        << run.histories.diff(ref.histories, rn.net);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkPipeline,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace fppn
