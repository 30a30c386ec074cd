// Exact reproduction of Fig. 3 of the paper: the task graph derived from
// the Fig. 1 process network with uniform 25 ms WCETs.
//
// The paper states (Fig. 3 + §III-A text):
//  - hyperperiod H = 200 ms,
//  - every process contributes m_p * H / T_p jobs; CoefB, served at its
//    user's (FilterB) period 200 instead of its own 700, contributes 2;
//    10 jobs total,
//  - job tuples (A, D, C): InputA[1](0,200,25) FilterA[1](0,100,25)
//    FilterA[2](100,200,25) FilterB[1](0,200,25) NormA[1](0,200,25)
//    OutputA[1](0,200,25) OutputB[1](0,100,25) OutputB[2](100,200,25)
//    CoefB[1](0,200,25) CoefB[2](0,200,25),
//  - the CoefB server deadline is corrected to 700 - 200 = 500 and then
//    truncated to H = 200,
//  - the server jobs CoefB[1], CoefB[2] arrive at 0 in one subset and have
//    a precedence edge to FilterB[1] (via CoefB[2] after reduction),
//  - InputA is joined to FilterA and NormA, but the InputA -> NormA edge
//    is redundant (path through FilterA) and removed by reduction.
#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

using apps::build_fig1;
using apps::Fig1App;

class Fig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = build_fig1();
    derived_ = derive_task_graph(app_.net, app_.fig3_wcets());
  }

  [[nodiscard]] JobId job(const std::string& name) const {
    const auto id = derived_.graph.find(name);
    EXPECT_TRUE(id.has_value()) << "missing job " << name;
    return id.value_or(JobId());
  }

  [[nodiscard]] bool edge(const std::string& from, const std::string& to) const {
    return derived_.graph.has_edge(job(from), job(to));
  }

  Fig1App app_;
  DerivedTaskGraph derived_;
};

TEST_F(Fig3Test, HyperperiodIs200) {
  EXPECT_EQ(derived_.hyperperiod, Duration::ms(200));
  EXPECT_EQ(app_.net.hyperperiod(), Duration::ms(200));
}

TEST_F(Fig3Test, TenJobsTotal) { EXPECT_EQ(derived_.graph.job_count(), 10u); }

TEST_F(Fig3Test, JobCountsPerProcess) {
  // m_p * H / T_p vertices per process (CoefB at its server period 200).
  EXPECT_EQ(derived_.graph.jobs_of(app_.input_a).size(), 1u);
  EXPECT_EQ(derived_.graph.jobs_of(app_.filter_a).size(), 2u);
  EXPECT_EQ(derived_.graph.jobs_of(app_.filter_b).size(), 1u);
  EXPECT_EQ(derived_.graph.jobs_of(app_.norm_a).size(), 1u);
  EXPECT_EQ(derived_.graph.jobs_of(app_.output_a).size(), 1u);
  EXPECT_EQ(derived_.graph.jobs_of(app_.output_b).size(), 2u);
  EXPECT_EQ(derived_.graph.jobs_of(app_.coef_b).size(), 2u);
}

TEST_F(Fig3Test, JobTuplesMatchFigure) {
  const auto check = [this](const std::string& name, std::int64_t a, std::int64_t d) {
    const Job& j = derived_.graph.job(job(name));
    EXPECT_EQ(j.arrival, Time::ms(a)) << name;
    EXPECT_EQ(j.deadline, Time::ms(d)) << name;
    EXPECT_EQ(j.wcet, Duration::ms(25)) << name;
  };
  check("InputA[1]", 0, 200);
  check("FilterA[1]", 0, 100);
  check("FilterA[2]", 100, 200);
  check("FilterB[1]", 0, 200);
  check("NormA[1]", 0, 200);
  check("OutputA[1]", 0, 200);
  check("OutputB[1]", 0, 100);
  check("OutputB[2]", 100, 200);
  check("CoefB[1]", 0, 200);  // 0 + (700-200) = 500, truncated to H = 200
  check("CoefB[2]", 0, 200);
}

TEST_F(Fig3Test, CoefBServerTransformation) {
  const ServerInfo& info = derived_.servers.at(app_.coef_b);
  EXPECT_EQ(info.user, app_.filter_b);
  EXPECT_EQ(info.burst, 2);
  EXPECT_EQ(info.server_period, Duration::ms(200));
  EXPECT_EQ(info.corrected_deadline, Duration::ms(500));
  EXPECT_TRUE(info.priority_over_user);  // CoefB -> FilterB in Fig. 1
  // Both server jobs are in subset 1 (same user period boundary 0).
  EXPECT_EQ(derived_.graph.job(job("CoefB[1]")).subset, 1);
  EXPECT_EQ(derived_.graph.job(job("CoefB[2]")).subset, 1);
  EXPECT_TRUE(derived_.graph.job(job("CoefB[1]")).is_server);
}

TEST_F(Fig3Test, ServerJobsPrecedeUserJob) {
  // "jobs CoefB[1] and CoefB[2] ... arrive at time 0 and have precedence
  // edge to FilterB[1]" — after reduction the chain is
  // CoefB[1] -> CoefB[2] -> FilterB[1].
  EXPECT_TRUE(edge("CoefB[1]", "CoefB[2]"));
  EXPECT_TRUE(edge("CoefB[2]", "FilterB[1]"));
  EXPECT_FALSE(edge("CoefB[1]", "FilterB[1]"));  // redundant, reduced away
}

TEST_F(Fig3Test, RedundantInputAToNormAEdgeRemoved) {
  // "InputA has priority over FilterA and NormA, and hence it is joined to
  // both of them. However, in the latter case the edge is redundant due to
  // a path from InputA to NormA."
  EXPECT_TRUE(edge("InputA[1]", "FilterA[1]"));
  EXPECT_FALSE(edge("InputA[1]", "NormA[1]"));
  // The path that makes it redundant still exists.
  EXPECT_TRUE(edge("FilterA[1]", "NormA[1]"));
  EXPECT_GE(derived_.edges_removed, 1u);
}

TEST_F(Fig3Test, ExactReducedEdgeSet) {
  // The full derived edge set after transitive reduction, per the §III-A
  // edge rule applied to our Fig. 1 reconstruction (see DESIGN.md).
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"InputA[1]", "FilterA[1]"},  {"InputA[1]", "FilterB[1]"},
      {"FilterA[1]", "NormA[1]"},   {"FilterA[1]", "OutputB[1]"},
      {"NormA[1]", "OutputA[1]"},   {"NormA[1]", "FilterA[2]"},
      {"FilterB[1]", "OutputB[1]"}, {"CoefB[1]", "CoefB[2]"},
      {"CoefB[2]", "FilterB[1]"},   {"OutputB[1]", "FilterA[2]"},
      {"FilterA[2]", "OutputB[2]"},
  };
  for (const auto& [from, to] : expected) {
    EXPECT_TRUE(edge(from, to)) << from << " -> " << to;
  }
  EXPECT_EQ(derived_.graph.edge_count(), expected.size());
}

TEST_F(Fig3Test, GraphIsAcyclicAndOrdered) {
  EXPECT_TRUE(derived_.graph.is_acyclic());
  // Jobs are stored in <J order: every edge goes forward.
  for (const auto& [u, v] : derived_.graph.precedence().edges()) {
    EXPECT_LT(u.value(), v.value());
  }
}

TEST_F(Fig3Test, UntruncatedDeadlineShowsCorrection) {
  DerivationOptions opts;
  opts.truncate_deadlines = false;
  const auto raw = derive_task_graph(app_.net, app_.fig3_wcets(), opts);
  const auto id = raw.graph.find("CoefB[1]");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(raw.graph.job(*id).deadline, Time::ms(500));  // 0 + (700 - 200)
}

TEST_F(Fig3Test, LoadAndNecessaryCondition) {
  // 10 jobs x 25 ms over a 200 ms frame: the deadline structure makes the
  // graph need 2 processors (Prop. 3.1 gives the ceil(load) lower bound).
  const LoadResult load = task_graph_load(derived_.graph);
  EXPECT_GT(load.load, Rational(1));
  EXPECT_LE(load.load, Rational(2));
  const NecessaryCondition nc1 = check_necessary_condition(derived_.graph, 1);
  EXPECT_FALSE(nc1.holds());
  const NecessaryCondition nc2 = check_necessary_condition(derived_.graph, 2);
  EXPECT_TRUE(nc2.holds()) << "load " << nc2.load.load;
}

}  // namespace
}  // namespace fppn
