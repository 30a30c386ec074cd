#include "gen/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "gen/rng.hpp"
#include "io/text_format.hpp"

namespace fppn::gen {
namespace {

// Seed-derived deadline epsilon subtracted from process 0's deadline so
// distinct seeds below 100003 provably produce distinct task-graph
// fingerprints even when every other drawn parameter collides. Subtraction
// (not addition) keeps A + d <= H, so frame truncation can never mask it;
// the value stays in (0, 1/2) ms, so any base deadline >= 1 ms stays
// positive.
Duration seed_epsilon(std::uint64_t seed) {
  return Duration(Rational(1 + static_cast<std::int64_t>(seed % 100003), 200006));
}

void apply_seed_epsilon(ScenarioSpec& spec, std::uint64_t seed) {
  spec.processes.at(0).deadline = spec.processes.at(0).deadline - seed_epsilon(seed);
}

std::string proc_name(std::size_t i) { return "P" + std::to_string(i); }

ProcessSpec periodic_spec(std::size_t i, Duration period, Duration deadline,
                          Duration wcet, int burst = 1) {
  ProcessSpec p;
  p.name = proc_name(i);
  p.burst = burst;
  p.period = std::move(period);
  p.deadline = std::move(deadline);
  p.wcet = std::move(wcet);
  return p;
}

ChannelSpec link(std::size_t idx, std::size_t writer, std::size_t reader,
                 ChannelKind kind = ChannelKind::kFifo, int capacity = 1) {
  ChannelSpec c;
  c.name = "c" + std::to_string(idx);
  c.kind = kind;
  c.capacity = capacity;
  c.writer = writer;
  c.reader = reader;
  return c;
}

// Draws a WCET targeting total work around `load_pct`% of period*processors
// spread over `jobs_sharing_load` jobs, with an optional small fractional
// part so Rational paths stay exercised.
Duration draw_wcet(Rng& rng, const Duration& period, std::int64_t jobs_sharing_load,
                   std::int64_t load_pct, bool allow_fraction) {
  const Rational budget =
      period.value() * Rational(load_pct, 100 * std::max<std::int64_t>(jobs_sharing_load, 1));
  std::int64_t hi = budget.num() / budget.den();  // floor
  if (hi < 1) {
    hi = 1;
  }
  Rational w(rng.range(1, hi));
  if (allow_fraction && rng.chance(1, 3)) {
    w = w + Rational(rng.range(1, 4), rng.range(2, 7));
  }
  return Duration(w);
}

// Explicit FP edges for every channel-sharing pair, all oriented one way
// (ascending or descending process index). A single global orientation
// keeps the FP graph trivially acyclic; mixing orientations across pairs
// can close a cycle through a third process.
void orient_all_pairs(ScenarioSpec& spec, bool ascending) {
  for (const ChannelSpec& c : spec.channels) {
    const std::size_t lo = std::min(c.writer, c.reader);
    const std::size_t hi = std::max(c.writer, c.reader);
    PrioritySpec p;
    p.higher = ascending ? lo : hi;
    p.lower = ascending ? hi : lo;
    bool dup = false;
    for (const PrioritySpec& q : spec.priorities) {
      if (q.higher == p.higher && q.lower == p.lower) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      spec.priorities.push_back(p);
    }
  }
}

// Equal-rate families may flip the whole FP orientation against the
// declaration order. Buffered channels pin it ascending: the builder
// installs writer -> reader itself and a conflicting explicit edge would
// fail the DAG check.
void finish_equal_rate_priorities(ScenarioSpec& spec, Rng& rng, bool has_buffered) {
  const bool ascending = has_buffered || rng.chance(3, 4);
  if (!ascending) {
    orient_all_pairs(spec, false);
    return;
  }
  // Ascending matches the rate-monotonic tie-break (declaration order), so
  // auto_rate_monotonic_priorities() completes whatever subset we make
  // explicit; emit a random subset to exercise the explicit-edge path.
  for (const ChannelSpec& c : spec.channels) {
    if (c.capacity == 1 && rng.chance(1, 3)) {
      PrioritySpec p;
      p.higher = std::min(c.writer, c.reader);
      p.lower = std::max(c.writer, c.reader);
      spec.priorities.push_back(p);
    }
  }
}

ScenarioSpec gen_pipeline(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  const std::int64_t stages = rng.range(4, 24);
  const Duration period = Duration::ms(rng.pick<std::int64_t>({20, 40, 60, 100}));
  const int burst = rng.chance(1, 4) ? 2 : 1;
  for (std::int64_t i = 0; i < stages; ++i) {
    spec.processes.push_back(periodic_spec(
        static_cast<std::size_t>(i), period, period,
        draw_wcet(rng, period, stages * burst, 120, true), burst));
  }
  bool has_buffered = false;
  for (std::int64_t i = 0; i + 1 < stages; ++i) {
    ChannelKind kind = rng.chance(1, 4) ? ChannelKind::kBlackboard : ChannelKind::kFifo;
    int capacity = 1;
    if (kind == ChannelKind::kFifo && rng.chance(1, 5)) {
      capacity = static_cast<int>(rng.range(2, 3));
      has_buffered = true;
    }
    spec.channels.push_back(link(static_cast<std::size_t>(i), static_cast<std::size_t>(i),
                                 static_cast<std::size_t>(i + 1), kind, capacity));
  }
  finish_equal_rate_priorities(spec, rng, has_buffered);
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_fan_out(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  const std::int64_t width = rng.range(3, 16);
  const Duration period = Duration::ms(rng.pick<std::int64_t>({20, 40, 60}));
  const std::int64_t total = width + 2;  // source + workers + sink
  for (std::int64_t i = 0; i < total; ++i) {
    spec.processes.push_back(periodic_spec(static_cast<std::size_t>(i), period, period,
                                           draw_wcet(rng, period, total, 150, true)));
  }
  std::size_t cid = 0;
  for (std::int64_t w = 1; w <= width; ++w) {
    const ChannelKind kind =
        rng.chance(1, 4) ? ChannelKind::kBlackboard : ChannelKind::kFifo;
    spec.channels.push_back(link(cid++, 0, static_cast<std::size_t>(w), kind));
    spec.channels.push_back(link(cid++, static_cast<std::size_t>(w),
                                 static_cast<std::size_t>(total - 1), kind));
  }
  finish_equal_rate_priorities(spec, rng, false);
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_diamond(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  const std::int64_t branches = rng.range(2, 4);
  const std::int64_t branch_len = rng.range(1, 2);
  const Duration period = Duration::ms(rng.pick<std::int64_t>({20, 40, 80}));
  const std::int64_t total = 2 + branches * branch_len;
  for (std::int64_t i = 0; i < total; ++i) {
    spec.processes.push_back(periodic_spec(static_cast<std::size_t>(i), period, period,
                                           draw_wcet(rng, period, total, 140, true)));
  }
  // Source is 0, join is total-1, branch b occupies [1 + b*len, 1 + (b+1)*len).
  std::size_t cid = 0;
  for (std::int64_t b = 0; b < branches; ++b) {
    std::size_t prev = 0;
    for (std::int64_t s = 0; s < branch_len; ++s) {
      const auto node = static_cast<std::size_t>(1 + b * branch_len + s);
      spec.channels.push_back(link(cid++, prev, node));
      prev = node;
    }
    spec.channels.push_back(link(cid++, prev, static_cast<std::size_t>(total - 1)));
  }
  finish_equal_rate_priorities(spec, rng, false);
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_random_dag(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  const std::int64_t n = rng.range(4, 12);
  const Duration period = Duration::ms(rng.pick<std::int64_t>({20, 40, 50, 100}));
  for (std::int64_t i = 0; i < n; ++i) {
    spec.processes.push_back(periodic_spec(static_cast<std::size_t>(i), period, period,
                                           draw_wcet(rng, period, n, 130, true)));
  }
  std::size_t cid = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      if (rng.chance(1, std::max<std::int64_t>(2, n / 2))) {
        const ChannelKind kind =
            rng.chance(1, 3) ? ChannelKind::kBlackboard : ChannelKind::kFifo;
        spec.channels.push_back(
            link(cid++, static_cast<std::size_t>(i), static_cast<std::size_t>(j), kind));
      }
    }
  }
  finish_equal_rate_priorities(spec, rng, false);
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_multi_rate(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  static const std::vector<std::vector<std::int64_t>> kPools = {
      {10, 20, 40}, {6, 12, 24}, {5, 15, 30}, {10, 15, 30}};
  const std::vector<std::int64_t>& pool = kPools[seed % kPools.size()];
  const std::int64_t n = rng.range(4, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    const Duration period = Duration::ms(rng.pick(pool));
    const int burst = rng.chance(1, 4) ? 2 : 1;
    spec.processes.push_back(periodic_spec(static_cast<std::size_t>(i), period, period,
                                           draw_wcet(rng, period, n, 90, true), burst));
  }
  std::size_t cid = 0;
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    spec.channels.push_back(
        link(cid++, static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1)));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 2; j < n; ++j) {
      if (rng.chance(1, 5)) {
        spec.channels.push_back(
            link(cid++, static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                 ChannelKind::kBlackboard));
      }
    }
  }
  // Heterogeneous rates: leave FP to the rate-monotonic rule, whose
  // (period, declaration-index) order is total and therefore acyclic.
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_sporadic(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  const Duration user_period = Duration::ms(rng.pick<std::int64_t>({20, 30, 40}));
  spec.processes.push_back(periodic_spec(0, user_period, user_period,
                                         draw_wcet(rng, user_period, 4, 60, true)));
  const std::int64_t sporadics = rng.range(1, 3);
  std::size_t cid = 0;
  for (std::int64_t s = 0; s < sporadics; ++s) {
    ProcessSpec p;
    const auto idx = static_cast<std::size_t>(1 + s);
    p.name = proc_name(idx);
    p.sporadic = true;
    p.burst = static_cast<int>(rng.range(1, 2));
    // T_s in {T_u, 3/2 T_u, 2 T_u} keeps T_u <= T_s (schedulable subclass).
    const std::int64_t rate = rng.range(0, 2);
    p.period = rate == 0   ? user_period
               : rate == 1 ? Duration(user_period.value() * Rational(3, 2))
                           : Duration(user_period.value() * Rational(2));
    // Either a safe deadline (> server period) or the footnote-3 zone
    // d <= T_u that forces the fractional fallback server period T_u/q.
    p.deadline = rng.chance(1, 2) ? p.period
                                  : Duration(user_period.value() * Rational(3, 4));
    p.wcet = draw_wcet(rng, user_period, 6, 40, true);
    spec.processes.push_back(p);
    // Every sporadic shares channels only with the user process (the
    // unique-user requirement of the schedulable subclass).
    if (rng.chance(1, 2)) {
      spec.channels.push_back(link(cid++, idx, 0));
    } else {
      spec.channels.push_back(link(cid++, 0, idx, ChannelKind::kBlackboard));
    }
    if (rng.chance(1, 2)) {
      // Explicit sporadic -> user priority flips the server-window rule to
      // right-closed (priority_over_user); without it the rate-monotonic
      // rule orients user -> sporadic (left-closed windows).
      PrioritySpec pr;
      pr.higher = idx;
      pr.lower = 0;
      spec.priorities.push_back(pr);
    }
  }
  // A short periodic tail hanging off the user keeps the graph from being
  // a pure star; these never touch the sporadics.
  const std::int64_t tail = rng.range(0, 2);
  std::size_t prev = 0;
  for (std::int64_t t = 0; t < tail; ++t) {
    const auto idx = static_cast<std::size_t>(1 + sporadics + t);
    const Duration period =
        rng.chance(1, 2) ? user_period : Duration(user_period.value() * Rational(2));
    spec.processes.push_back(
        periodic_spec(idx, period, period, draw_wcet(rng, period, 4, 50, true)));
    spec.channels.push_back(link(cid++, prev, idx));
    prev = idx;
  }
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_fractional(Rng& rng, std::uint64_t seed) {
  ScenarioSpec spec;
  static const std::vector<std::vector<Rational>> kPools = {
      {Rational(40, 3), Rational(20, 3), Rational(80, 3)},
      {Rational(25, 2), Rational(25, 4)},
      {Rational(9, 2), Rational(9), Rational(18)},
  };
  const std::vector<Rational>& pool = kPools[seed % kPools.size()];
  const std::int64_t n = rng.range(3, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    const Duration period = Duration(rng.pick(pool));
    Duration wcet = Duration(Rational(rng.range(1, 8), rng.range(2, 7)));
    if (wcet.value() >= period.value()) {
      wcet = Duration(period.value() * Rational(1, 4));
    }
    spec.processes.push_back(
        periodic_spec(static_cast<std::size_t>(i), period, period, wcet));
  }
  std::size_t cid = 0;
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    spec.channels.push_back(
        link(cid++, static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1)));
  }
  for (std::int64_t i = 0; i + 2 < n; ++i) {
    if (rng.chance(1, 4)) {
      spec.channels.push_back(link(cid++, static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(i + 2),
                                   ChannelKind::kBlackboard));
    }
  }
  apply_seed_epsilon(spec, seed);
  return spec;
}

ScenarioSpec gen_near_overflow(Rng& rng, std::uint64_t seed) {
  // Denominators chosen so the tick-timebase LCM overflows int64 (the
  // CompiledTaskGraph must take the Rational fallback) while every
  // expression the schedulers actually *evaluate* stays far inside int64.
  // The trick: the global LCM combines every denominator in the graph,
  // but heuristic arithmetic (ALAP latest starts, EDF slack, makespan
  // accumulation) only ever mixes ONE deadline with the WCET stream. So
  // all WCETs share a single large prime denominator and two deadlines
  // carry two further large primes — the product of the three overflows
  // the LCM, yet no reachable sum sees more than two of them (den <=
  // ~1.6e13 against values of a few ms).
  ScenarioSpec spec;
  const std::int64_t n = rng.range(3, 6);
  const Duration period = Duration::ms(10);
  for (std::int64_t i = 0; i < n; ++i) {
    Duration deadline = period;
    if (i == 1) {
      deadline = period - Duration(Rational(1, 4000057));
    } else if (i == 2) {
      deadline = period - Duration(Rational(1, 4000117));
    }
    spec.processes.push_back(periodic_spec(
        static_cast<std::size_t>(i), period, deadline,
        Duration(Rational(rng.range(1, 30), 4000037))));
  }
  std::size_t cid = 0;
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    if (rng.chance(2, 3)) {
      spec.channels.push_back(
          link(cid++, static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1)));
    }
  }
  finish_equal_rate_priorities(spec, rng, false);
  apply_seed_epsilon(spec, seed);
  return spec;
}

}  // namespace

const std::vector<Family>& all_families() {
  static const std::vector<Family> kAll = {
      Family::kPipeline,  Family::kFanOut,     Family::kDiamond,
      Family::kRandomDag, Family::kMultiRate,  Family::kSporadic,
      Family::kFractional, Family::kNearOverflow};
  return kAll;
}

std::string to_string(Family family) {
  switch (family) {
    case Family::kPipeline:
      return "pipeline";
    case Family::kFanOut:
      return "fanout";
    case Family::kDiamond:
      return "diamond";
    case Family::kRandomDag:
      return "randomdag";
    case Family::kMultiRate:
      return "multirate";
    case Family::kSporadic:
      return "sporadic";
    case Family::kFractional:
      return "fractional";
    case Family::kNearOverflow:
      return "nearoverflow";
  }
  return "unknown";
}

std::optional<Family> parse_family(const std::string& text) {
  for (Family f : all_families()) {
    if (to_string(f) == text) {
      return f;
    }
  }
  return std::nullopt;
}

BuiltScenario build_scenario(const ScenarioSpec& spec) {
  NetworkBuilder builder;
  std::vector<ProcessId> pids;
  pids.reserve(spec.processes.size());
  for (const ProcessSpec& p : spec.processes) {
    if (p.sporadic) {
      pids.push_back(builder.sporadic(p.name, p.burst, p.period, p.deadline,
                                      no_op_behavior()));
    } else if (p.burst > 1) {
      pids.push_back(builder.multi_periodic(p.name, p.burst, p.period, p.deadline,
                                            no_op_behavior()));
    } else {
      pids.push_back(builder.periodic(p.name, p.period, p.deadline, no_op_behavior()));
    }
  }
  for (const ChannelSpec& c : spec.channels) {
    if (c.writer >= pids.size() || c.reader >= pids.size()) {
      throw std::invalid_argument("channel endpoint out of range in scenario spec");
    }
    if (c.capacity > 1) {
      builder.buffered_fifo(c.name, pids[c.writer], pids[c.reader], c.capacity);
    } else {
      builder.channel(c.name, c.kind, pids[c.writer], pids[c.reader]);
    }
  }
  for (const PrioritySpec& p : spec.priorities) {
    if (p.higher >= pids.size() || p.lower >= pids.size()) {
      throw std::invalid_argument("priority endpoint out of range in scenario spec");
    }
    builder.priority(pids[p.higher], pids[p.lower]);
  }
  builder.auto_rate_monotonic_priorities();
  BuiltScenario out;
  out.net = std::move(builder).build();
  for (std::size_t i = 0; i < spec.processes.size(); ++i) {
    out.wcets[pids[i]] = spec.processes[i].wcet;
  }
  return out;
}

Scenario make_scenario(Family family, std::uint64_t seed) {
  // Decorrelate (family, seed) streams: the same seed must not replay the
  // same draw sequence across families.
  Rng rng(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(family) + 1);
  ScenarioSpec spec;
  switch (family) {
    case Family::kPipeline:
      spec = gen_pipeline(rng, seed);
      break;
    case Family::kFanOut:
      spec = gen_fan_out(rng, seed);
      break;
    case Family::kDiamond:
      spec = gen_diamond(rng, seed);
      break;
    case Family::kRandomDag:
      spec = gen_random_dag(rng, seed);
      break;
    case Family::kMultiRate:
      spec = gen_multi_rate(rng, seed);
      break;
    case Family::kSporadic:
      spec = gen_sporadic(rng, seed);
      break;
    case Family::kFractional:
      spec = gen_fractional(rng, seed);
      break;
    case Family::kNearOverflow:
      spec = gen_near_overflow(rng, seed);
      break;
  }
  Scenario s;
  s.spec = std::move(spec);
  BuiltScenario built = build_scenario(s.spec);
  s.net = std::move(built.net);
  s.wcets = std::move(built.wcets);
  s.family = family;
  s.seed = seed;
  s.name = to_string(family) + "-" + std::to_string(seed);
  return s;
}

Scenario make_scenario(std::uint64_t seed) {
  const std::vector<Family>& fams = all_families();
  return make_scenario(fams[seed % fams.size()], seed);
}

std::string scenario_text(const Scenario& scenario) {
  return io::write_network(scenario.net, scenario.wcets);
}

std::map<ProcessId, SporadicScript> jittered_scripts(const Network& net,
                                                     std::uint64_t seed,
                                                     std::int64_t frames,
                                                     const Duration& hyperperiod) {
  std::map<ProcessId, SporadicScript> out;
  const Rational horizon = hyperperiod.value() * Rational(frames);
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    const ProcessId pid(i);
    const EventSpec& ev = net.process(pid).event;
    if (ev.kind != EventKind::kSporadic) {
      continue;
    }
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    std::vector<Time> times;
    // Window anchors advance by >= T, so at most `burst` invocations land
    // in any window of length T — admissible by construction. The jitter
    // makes some windows empty (false server jobs) and others fire early
    // or mid-window.
    Rational anchor = ev.period.value() * Rational(rng.range(0, 7), 8);
    while (anchor < horizon) {
      const auto count = rng.range(0, ev.burst);
      for (std::int64_t c = 0; c < count; ++c) {
        times.emplace_back(anchor);
      }
      anchor = anchor + ev.period.value() * (Rational(1) + Rational(rng.range(0, 5), 8));
    }
    out.emplace(pid, SporadicScript(std::move(times), ev.burst, ev.period));
  }
  return out;
}

}  // namespace fppn::gen
