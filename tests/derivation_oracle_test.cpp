// Production derivation (taskgraph/derivation.hpp, one pass) against the
// reference derivation (testing/reference_derivation.hpp, edge by edge
// then reduced). Every job field, every successor and predecessor list in
// order, the server table, the hyperperiod, the edge counts, to_table and
// the fingerprint must agree. The fingerprint sums per-edge hashes, so it
// cannot see an order change on its own; the list comparison does.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "gen/rng.hpp"
#include "gen/scenario.hpp"
#include "io/text_format.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/reference_derivation.hpp"

namespace fppn {
namespace {

/// Derives with both; both must throw the same exception type or agree.
/// Returns the production job count (0 on a throw).
std::size_t check(const Network& net, const WcetMap& wcets, const DerivationOptions& opts,
                  const std::string& what) {
  std::optional<DerivedTaskGraph> got;
  std::optional<DerivedTaskGraph> want;
  std::string got_error;
  std::string want_error;
  try {
    got = derive_task_graph(net, wcets, opts);
  } catch (const std::exception& e) {
    got_error = typeid(e).name();
  }
  try {
    want = testing::reference_derive_task_graph(net, wcets, opts);
  } catch (const std::exception& e) {
    want_error = typeid(e).name();
  }
  EXPECT_EQ(got_error, want_error) << what;
  if (got.has_value() && want.has_value()) {
    EXPECT_EQ(testing::derivation_difference(*got, *want), "") << what;
    return got->graph.job_count();
  }
  return 0;
}

/// Every option combination the suite sweeps: the default, no reduction,
/// and untruncated deadlines, at unfolding 1..3.
std::vector<DerivationOptions> option_sweep() {
  std::vector<DerivationOptions> out;
  for (int u = 1; u <= 3; ++u) {
    DerivationOptions opts;
    opts.unfolding = u;
    out.push_back(opts);
    opts.transitive_reduce = false;
    out.push_back(opts);
    opts.transitive_reduce = true;
    opts.truncate_deadlines = false;
    out.push_back(opts);
  }
  return out;
}

std::string describe(const std::string& name, const DerivationOptions& opts) {
  return name + " U=" + std::to_string(opts.unfolding) +
         (opts.transitive_reduce ? "" : " no-reduce") +
         (opts.truncate_deadlines ? "" : " no-truncate");
}

/// The FMS WCETs, each raised by k/10 ms with k in 0..9 drawn from
/// `seed`; 0 keeps the application's values.
WcetMap jittered(const apps::FmsApp& app, std::uint64_t seed) {
  WcetMap wcets = app.default_wcets();
  if (seed != 0) {
    gen::Rng rng(seed);
    for (auto& [p, c] : wcets) {
      c += Duration(Rational(rng.range(0, 9), 10));
    }
  }
  return wcets;
}

void check_fms(bool reduced_period) {
  const apps::FmsApp app = apps::build_fms(reduced_period);
  for (std::uint64_t seed = 0; seed <= 10; ++seed) {
    const WcetMap wcets = jittered(app, seed);
    for (const DerivationOptions& opts : option_sweep()) {
      const std::string what =
          describe(std::string(reduced_period ? "FMS" : "FMS full") + " jitter " +
                       std::to_string(seed),
                   opts);
      EXPECT_GT(check(app.net, wcets, opts, what), 0u) << what;
    }
  }
}

TEST(DerivationOracle, FmsReducedPeriod) { check_fms(true); }

TEST(DerivationOracle, FmsFullPeriod) { check_fms(false); }

TEST(DerivationOracle, Fig1AndFft) {
  const apps::Fig1App fig1 = apps::build_fig1();
  const apps::FftApp fft = apps::build_fft();
  for (const DerivationOptions& opts : option_sweep()) {
    EXPECT_GT(check(fig1.net, fig1.fig3_wcets(), opts, describe("fig1", opts)), 0u);
    EXPECT_GT(check(fft.net, fft.uniform_wcets(Duration(Rational(40, 3))), opts,
                    describe("fft", opts)),
              0u);
  }
}

/// Two processes joined by a capacity-`capacity` buffered FIFO, each
/// invoked `burst` times per 100 ms; with burst > capacity the reuse edge
/// r[k] -> w[k+B] points backwards in <J.
Network buffered_pair(int burst, int capacity, bool with_blackboard) {
  NetworkBuilder b;
  const ProcessId w = b.multi_periodic("w", burst, Duration::ms(100), Duration::ms(250),
                                       no_op_behavior());
  const ProcessId r = b.multi_periodic("r", burst, Duration::ms(100), Duration::ms(250),
                                       no_op_behavior());
  b.buffered_fifo("q", w, r, capacity);
  if (with_blackboard) {
    b.blackboard("bb", w, r);
  }
  return std::move(b).build();
}

/// A `stages`-deep chain of buffered FIFOs with two channels on the first
/// link (repeated dataflow edges) and a periodic side process.
Network buffered_chain(int stages, int capacity) {
  NetworkBuilder b;
  std::vector<ProcessId> p;
  for (int i = 0; i < stages; ++i) {
    p.push_back(b.periodic("s" + std::to_string(i), Duration::ms(100), Duration::ms(300),
                           no_op_behavior()));
  }
  const ProcessId side =
      b.periodic("side", Duration::ms(50), Duration::ms(50), no_op_behavior());
  for (int i = 0; i + 1 < stages; ++i) {
    b.buffered_fifo("q" + std::to_string(i), p[static_cast<std::size_t>(i)],
                    p[static_cast<std::size_t>(i + 1)], capacity);
  }
  b.buffered_fifo("extra", p[0], p[1], capacity + 1);
  b.fifo("tap", side, p[0]);
  b.priority(side, p[0]);
  return std::move(b).build();
}

TEST(DerivationOracle, BufferedChannels) {
  std::vector<std::pair<std::string, Network>> nets;
  for (const int burst : {1, 3, 5}) {
    for (const int capacity : {2, 3}) {
      for (const bool bb : {false, true}) {
        nets.emplace_back("pair burst " + std::to_string(burst) + " cap " +
                              std::to_string(capacity) + (bb ? " +bb" : ""),
                          buffered_pair(burst, capacity, bb));
      }
    }
  }
  for (const int stages : {3, 6}) {
    for (const int capacity : {2, 4}) {
      nets.emplace_back("chain " + std::to_string(stages) + " cap " +
                            std::to_string(capacity),
                        buffered_chain(stages, capacity));
    }
  }
  // The sweep reaches reuse edges that point backwards in <J.
  const DerivedTaskGraph bursty = derive_task_graph(buffered_pair(3, 2, false), Duration::ms(10));
  bool backward = false;
  for (const auto& [from, to] : bursty.graph.edges()) {
    backward |= to < from;
  }
  EXPECT_TRUE(backward);

  for (const auto& [name, net] : nets) {
    WcetMap wcets;
    for (std::size_t i = 0; i < net.process_count(); ++i) {
      wcets.emplace(ProcessId{i}, Duration::ms(10 + static_cast<std::int64_t>(i)));
    }
    for (DerivationOptions opts : option_sweep()) {
      EXPECT_GT(check(net, wcets, opts, describe(name, opts)), 0u);
      opts.unfolding += 2;  // up to 5 frames, as the pipelining tests use
      EXPECT_GT(check(net, wcets, opts, describe(name, opts)), 0u);
    }
  }
}

TEST(DerivationOracle, GeneratedFamilies) {
  std::size_t largest = 0;
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      DerivationOptions opts;
      opts.unfolding = 1 + static_cast<int>(seed % 2);
      const std::size_t jobs = check(s.net, s.wcets, opts, describe(s.name, opts));
      largest = std::max(largest, jobs);
    }
  }
  // The generator stays far below the job bound, so no family exercises it.
  EXPECT_LT(largest, kMaxDerivedJobs / 8);
}

TEST(DerivationOracle, InvalidNetworksThrowTheSameType) {
  const apps::Fig1App fig1 = apps::build_fig1();
  WcetMap missing = fig1.fig3_wcets();
  missing.erase(fig1.coef_b);
  check(fig1.net, missing, {}, "missing WCET");
  WcetMap zero = fig1.fig3_wcets();
  zero[fig1.filter_a] = Duration();
  check(fig1.net, zero, {}, "zero WCET");
  DerivationOptions unfold0;
  unfold0.unfolding = 0;
  check(fig1.net, fig1.fig3_wcets(), unfold0, "unfolding 0");

  NetworkBuilder b;
  const ProcessId w = b.periodic("w", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId r = b.periodic("r", Duration::ms(200), Duration::ms(200), no_op_behavior());
  b.buffered_fifo("q", w, r, 2);
  const Network unequal = std::move(b).build();
  WcetMap wcets{{w, Duration::ms(10)}, {r, Duration::ms(10)}};
  check(unequal, wcets, {}, "buffered channel with unequal rates");
  EXPECT_THROW((void)derive_task_graph(unequal, wcets), std::invalid_argument);
}

// ------------------------------------------------------------ job bound

/// Two periodic processes, `fast` ms and `slow` ms, one job each per
/// period: slow/fast + 1 jobs per frame when fast divides slow.
std::string two_rate_network(const std::string& fast, const std::string& slow) {
  return "process Fast periodic period=" + fast + " deadline=" + fast +
         " wcet=1/100000\n"
         "process Slow periodic period=" +
         slow + " deadline=" + slow +
         " wcet=1/100000\n"
         "channel fifo c Fast -> Slow\n"
         "priority Fast > Slow\n";
}

TEST(DerivationJobBound, RejectsAFrameJustAboveTheBound) {
  // 32768 Fast jobs + 1 Slow job: one above the bound.
  const io::ParsedNetwork above = io::parse_network_string(
      two_rate_network("1", std::to_string(kMaxDerivedJobs)));
  try {
    (void)derive_task_graph(above.net, above.wcets);
    FAIL() << "a frame of " << kMaxDerivedJobs + 1 << " jobs was derived";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("more than 32768 jobs"), std::string::npos)
        << e.what();
  }
  // A million jobs from a 135-byte request: rejected before allocating.
  const io::ParsedNetwork huge =
      io::parse_network_string(two_rate_network("1/1000", "1000"));
  EXPECT_THROW((void)derive_task_graph(huge.net, huge.wcets), std::invalid_argument);
  // The unfolding multiplies the frame: 2 x 16385 jobs.
  const io::ParsedNetwork half = io::parse_network_string(
      two_rate_network("1", std::to_string(kMaxDerivedJobs / 2)));
  DerivationOptions twice;
  twice.unfolding = 2;
  EXPECT_THROW((void)derive_task_graph(half.net, half.wcets, twice), std::invalid_argument);
}

TEST(DerivationJobBound, AcceptsAFrameAtTheBound) {
  const io::ParsedNetwork at = io::parse_network_string(
      two_rate_network("1", std::to_string(kMaxDerivedJobs - 1)));
  DerivationOptions opts;
  opts.transitive_reduce = false;  // the bound is on jobs; skip the 128 MB bitset
  EXPECT_EQ(derive_task_graph(at.net, at.wcets, opts).graph.job_count(), kMaxDerivedJobs);
}

TEST(DerivationJobBound, TheWireReportsAnError) {
  engine::Engine engine;
  engine::SolveService service(engine, engine::ServiceOptions{});
  const std::string response =
      service.handle(two_rate_network("1/1000", "1000"), 0.0);
  EXPECT_EQ(response.rfind("fppn-serve error: ", 0), 0u) << response;
  EXPECT_NE(response.find("more than 32768 jobs"), std::string::npos) << response;
}

}  // namespace
}  // namespace fppn
