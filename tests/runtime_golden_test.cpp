// Bit-for-bit goldens of the deployed application: the FMS (reduced
// 10 s hyperperiod) on the static-order "vm" runtime over 10 frames, and
// the zero-delay reference for the same inputs, over fixed command seeds.
//
// Each digest hashes every observable output — TimedTrace events,
// deadline misses, job counters, span end and the histories (doubles by
// their bit pattern) for the vm; the rendered action trace and the
// histories for the reference. The reference records no trace, so the
// trace half comes from the traced run_zero_delay on the same plan. The
// expected values were recorded before the runtime and rational hot paths
// were optimized, so any change to an output bit — an event, an instant,
// an order — fails here. The vm digests were re-recorded once, when a
// 'false' server job began to complete only after its predecessors: its
// skip instant, and the start of the few jobs it orders, moved; the
// histories did not.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/fms.hpp"
#include "fppn/actions.hpp"
#include "runtime/vm_runtime.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"
#include "trace_text.hpp"

namespace fppn {
namespace {

constexpr std::int64_t kFrames = 10;

/// FNV-1a over a byte stream of the outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void f64(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  void rational(const Rational& r) {
    i64(r.num());
    i64(r.den());
  }
  void time(const Time& t) { rational(t.value()); }
  void value(const Value& v) {
    u64(v.index());
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      i64(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      f64(*d);
    } else if (const auto* s = std::get_if<std::string>(&v)) {
      str(*s);
    } else if (const auto* xs = std::get_if<std::vector<double>>(&v)) {
      u64(xs->size());
      for (const double x : *xs) {
        f64(x);
      }
    }
  }
  void histories(const ExecutionHistories& h) {
    u64(h.channel_writes.size());
    for (const auto& [c, values] : h.channel_writes) {
      u64(c.value());
      u64(values.size());
      for (const Value& v : values) {
        value(v);
      }
    }
    u64(h.output_samples.size());
    for (const auto& [c, samples] : h.output_samples) {
      u64(c.value());
      u64(samples.size());
      for (const OutputSample& s : samples) {
        i64(s.k);
        time(s.time);
        value(s.value);
      }
    }
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest_of(const RunResult& r) {
  Digest d;
  d.u64(r.trace.events().size());
  for (const TraceEvent& e : r.trace.events()) {
    d.u64(static_cast<std::uint64_t>(e.kind));
    d.i64(e.frame);
    d.u64(e.processor.is_valid() ? e.processor.value() : ~std::uint64_t{0});
    d.str(e.label);
    d.time(e.time);
    d.u64(e.end.has_value() ? 1 : 0);
    if (e.end.has_value()) {
      d.time(*e.end);
    }
  }
  d.u64(r.misses.size());
  for (const DeadlineMiss& m : r.misses) {
    d.i64(m.frame);
    d.u64(m.job.value());
    d.time(m.completion);
    d.time(m.deadline);
  }
  d.u64(r.jobs_executed);
  d.u64(r.false_skips);
  d.time(r.span_end);
  d.histories(r.histories);
  return d.hex();
}

/// `trace` is the Act* trace of the traced run on the reference's plan.
std::string digest_of(const ZeroDelayResult& r, const ActionTrace& trace,
                      const Network& net) {
  Digest d;
  d.str(testing::trace_to_string(trace, net));
  d.histories(r.histories);
  d.u64(r.jobs_executed);
  return d.hex();
}

struct FmsRun {
  apps::FmsApp app = apps::build_fms(true);
  DerivedTaskGraph derived = derive_task_graph(app.net, app.default_wcets());
  StaticSchedule schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);

  /// Sensor inputs and sporadic commands for one seed; commands end one
  /// hyperperiod before the horizon, as in the deployed application.
  [[nodiscard]] InputScripts inputs(std::uint64_t seed) const {
    return app.make_inputs(static_cast<std::size_t>(kFrames * 50), seed);
  }
  [[nodiscard]] std::map<ProcessId, SporadicScript> commands(std::uint64_t seed) const {
    return app.random_commands(Time() + derived.hyperperiod * Rational(kFrames - 1), seed);
  }
};

struct GoldenCase {
  std::uint64_t seed;
  const char* vm;
  const char* reference;
};

TEST(RuntimeGolden, FmsVmAndZeroDelayAreBitIdentical) {
  const FmsRun fms;
  ASSERT_TRUE(fms.schedule.check_feasibility(fms.derived.graph).feasible());
  const GoldenCase cases[] = {
      {1, "877d9c17a1efabdc", "a6d28b7eb83bd7ac"},
      {7, "8ccb6963d059a34e", "aa2dbf66fe9cd3d3"},
      {42, "8909c40d3b127e58", "e8a72e7e2db13df1"},
      {20260101, "9c04835ad9ac1a3e", "5b98a1840f3238d1"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    const InputScripts in = fms.inputs(c.seed);
    const auto cmds = fms.commands(c.seed);
    RunOptions opts;
    opts.frames = kFrames;
    const RunResult vm =
        run_static_order_vm(fms.app.net, fms.derived, fms.schedule, opts, in, cmds);
    const ZeroDelayResult ref =
        zero_delay_reference(fms.app.net, fms.derived.hyperperiod, kFrames, in, cmds);
    const ZeroDelayResult traced = run_zero_delay(
        fms.app.net,
        InvocationPlan::build(fms.app.net,
                              Time() + fms.derived.hyperperiod * Rational(kFrames), cmds),
        in);
    EXPECT_EQ(digest_of(vm), c.vm);
    EXPECT_EQ(digest_of(ref, traced.trace, fms.app.net), c.reference);
  }
}

// The overrun path: the measured MPPA frame overhead plus execution times
// near 40x the WCET (in thirds, so instants turn fractional), so frames spill into each other and deadlines are
// missed; pins the carry-over, overhead and miss events bit for bit.
TEST(RuntimeGolden, FmsVmOverrunIsBitIdentical) {
  const FmsRun fms;
  RunOptions opts;
  opts.frames = kFrames;
  opts.overhead = OverheadModel::mppa_measured();
  const TaskGraph& tg = fms.derived.graph;
  opts.actual_time = [&tg](JobId j, std::int64_t frame) {
    return tg.job(j).wcet * Rational(119 + frame % 3, 3);
  };
  const RunResult vm = run_static_order_vm(fms.app.net, fms.derived, fms.schedule, opts,
                                           fms.inputs(3), fms.commands(3));
  EXPECT_FALSE(vm.met_all_deadlines());
  EXPECT_EQ(digest_of(vm), "ecdeae48f2f2cff3");
}

}  // namespace
}  // namespace fppn
