#include "gen/fuzz.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/engine.hpp"
#include "io/atomic_file.hpp"
#include "io/text_format.hpp"
#include "runtime/vm_runtime.hpp"
#include "ta/translate.hpp"
#include "taskgraph/fingerprint.hpp"
#include "testing/reference_fingerprint.hpp"
#include "testing/reference_search.hpp"

namespace fppn::gen {
namespace {

std::int64_t sample_processors(std::uint64_t seed) {
  return 1 + static_cast<std::int64_t>((seed >> 8) % 3);
}

/// The search config both runs share: single seed, small budget, no
/// cache, and 1-2 workers sampled from the seed (the reference run is
/// serial whatever the count).
engine::SearchConfig search_config(const FuzzConfig& cfg, std::uint64_t seed,
                                   std::int64_t processors) {
  engine::SearchConfig config;
  config.processors = processors;
  config.workers = 1 + static_cast<int>((seed >> 2) % 2);
  config.seeds_per_strategy = 1;
  config.seed = seed;
  config.max_iterations = cfg.max_iterations;
  config.restarts = cfg.restarts;
  return config;
}

std::string time_str(const Time& t) { return t.value().to_string(); }

/// Full winner comparison: everything the determinism contract promises.
std::optional<std::string> compare_results(const TaskGraph& tg,
                                           const sched::ParallelSearchResult& ref,
                                           const sched::ParallelSearchResult& got) {
  if (ref.best.strategy != got.best.strategy) {
    return "winning strategy differs: reference=" + ref.best.strategy +
           " production=" + got.best.strategy;
  }
  if (ref.seed != got.seed) {
    return "winning seed differs: reference=" + std::to_string(ref.seed) +
           " production=" + std::to_string(got.seed);
  }
  if (ref.best.feasible != got.best.feasible) {
    return "feasibility differs";
  }
  if (ref.best.deadline_violations != got.best.deadline_violations) {
    return "deadline violation count differs: reference=" +
           std::to_string(ref.best.deadline_violations) +
           " production=" + std::to_string(got.best.deadline_violations);
  }
  if (ref.best.makespan != got.best.makespan) {
    return "makespan differs: reference=" + time_str(ref.best.makespan) +
           " production=" + time_str(got.best.makespan);
  }
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const JobId j(i);
    if (ref.best.schedule.is_placed(j) != got.best.schedule.is_placed(j)) {
      return "placement presence differs for " + tg.job(j).name;
    }
    if (!ref.best.schedule.is_placed(j)) {
      continue;
    }
    const Placement& a = ref.best.schedule.placement(j);
    const Placement& b = got.best.schedule.placement(j);
    if (a.processor != b.processor || a.start != b.start) {
      return "placement differs for " + tg.job(j).name + ": reference=(proc " +
             std::to_string(a.processor.value()) + ", " + time_str(a.start) +
             ") production=(proc " + std::to_string(b.processor.value()) + ", " +
             time_str(b.start) + ")";
    }
  }
  return std::nullopt;
}

/// TA-oracle admission: the static-order TA reproduces exactly the
/// schedules that are structurally clean (every job placed, no arrival/
/// precedence/mutex violation — list-scheduler outputs always are) and
/// whose span fits the translation's one-frame horizon. Deadline misses
/// are fine: the TA does not guard on deadlines.
bool ta_gate(const TaskGraph& tg, const sched::StrategyResult& best,
             const ViolationCounts& counts, const Duration& hyperperiod) {
  if (tg.job_count() == 0) {
    return false;
  }
  if (counts.unscheduled != 0 || counts.arrival != 0 || counts.precedence != 0 ||
      counts.mutex != 0) {
    return false;
  }
  return best.makespan <= Time(hyperperiod.value());
}

std::optional<std::string> check_ta_oracle(const TaskGraph& tg,
                                           const sched::StrategyResult& best) {
  const ta::TaJobTimes times = ta::run_schedule_oracle(tg, best.schedule);
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const JobId j(i);
    const auto s = times.start.find(j);
    const auto e = times.end.find(j);
    if (s == times.start.end() || e == times.end.end()) {
      return "TA run never executed " + tg.job(j).name;
    }
    const Time want_start = best.schedule.start(j);
    const Time want_end = best.schedule.end(j, tg);
    if (s->second != want_start || e->second != want_end) {
      return "TA times for " + tg.job(j).name + ": schedule=[" +
             time_str(want_start) + ", " + time_str(want_end) + ") ta=[" +
             time_str(s->second) + ", " + time_str(e->second) + ")";
    }
  }
  return std::nullopt;
}

/// Sanity over the online policy's trace under jittered sporadic arrivals:
/// executed spans are WCET-long, mutually exclusive per processor, and
/// respect the task-graph precedence; non-server jobs never start before
/// their arrival. (Server jobs may: the policy starts them at the real
/// invocation, possibly earlier than the derived A_i — §IV robustness.)
std::optional<std::string> check_policy_trace(const Network& net,
                                              const DerivedTaskGraph& derived,
                                              const StaticSchedule& schedule,
                                              std::uint64_t seed) {
  const auto scripts = jittered_scripts(net, seed, 1, derived.hyperperiod);
  const RunResult run =
      run_static_order_vm(net, derived, schedule, RunOptions{}, {}, scripts);
  const TaskGraph& tg = derived.graph;
  struct Span {
    Time start;
    Time end;
    std::size_t processor = 0;
  };
  std::map<std::string_view, Span> spans;  // views of run.trace's labels
  for (const TraceEvent& e : run.trace.of_kind(TraceEventKind::kJobRun)) {
    if (!e.end.has_value()) {
      return "job-run event without an end: " + std::string(e.label);
    }
    spans[e.label] = Span{e.time, *e.end, e.processor.value()};
  }
  std::map<std::size_t, std::vector<Span>> per_proc;
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const JobId j(i);
    const Job& job = tg.job(j);
    const auto it = spans.find(job.name);
    if (it == spans.end()) {
      if (!job.is_server) {
        return "periodic job never executed: " + job.name;
      }
      continue;  // false server job, legitimately skipped
    }
    const Span& span = it->second;
    if (span.end - span.start != job.wcet) {
      return "span of " + job.name + " is not WCET-long: [" + time_str(span.start) +
             ", " + time_str(span.end) + ") vs C=" + job.wcet.to_string();
    }
    if (!job.is_server && span.start < job.arrival) {
      return "periodic job " + job.name + " started at " + time_str(span.start) +
             " before its arrival " + time_str(job.arrival);
    }
    // Precedence is transitive through a 'false' server job: a predecessor
    // with no span is replaced by its own predecessors.
    const JobIdRange direct = tg.predecessors(j);
    std::vector<JobId> preds(direct.begin(), direct.end());
    std::vector<bool> seen(tg.job_count(), false);
    while (!preds.empty()) {
      const JobId p = preds.back();
      preds.pop_back();
      if (seen[p.value()]) {
        continue;
      }
      seen[p.value()] = true;
      const auto pit = spans.find(tg.job(p).name);
      if (pit == spans.end()) {
        const JobIdRange up = tg.predecessors(p);
        preds.insert(preds.end(), up.begin(), up.end());
      } else if (pit->second.end > span.start) {
        return "precedence violated: " + tg.job(p).name + " ends at " +
               time_str(pit->second.end) + " after " + job.name + " starts at " +
               time_str(span.start);
      }
    }
    per_proc[span.processor].push_back(span);
  }
  for (auto& [proc, list] : per_proc) {
    std::sort(list.begin(), list.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    for (std::size_t i = 0; i + 1 < list.size(); ++i) {
      if (list[i + 1].start < list[i].end) {
        return "overlapping executions on processor " + std::to_string(proc);
      }
    }
  }
  return std::nullopt;
}

ScenarioSpec drop_process(const ScenarioSpec& in, std::size_t victim) {
  ScenarioSpec out;
  for (std::size_t i = 0; i < in.processes.size(); ++i) {
    if (i != victim) {
      out.processes.push_back(in.processes[i]);
    }
  }
  const auto remap = [victim](std::size_t idx, std::size_t& mapped) {
    if (idx == victim) {
      return false;
    }
    mapped = idx > victim ? idx - 1 : idx;
    return true;
  };
  for (const ChannelSpec& c : in.channels) {
    ChannelSpec copy = c;
    if (remap(c.writer, copy.writer) && remap(c.reader, copy.reader)) {
      out.channels.push_back(copy);
    }
  }
  for (const PrioritySpec& p : in.priorities) {
    PrioritySpec copy = p;
    if (remap(p.higher, copy.higher) && remap(p.lower, copy.lower)) {
      out.priorities.push_back(copy);
    }
  }
  return out;
}

Duration simplify_duration(const Duration& d) {
  // Round up to a whole millisecond (never down: periods/deadlines must
  // stay positive and deadlines must stay achievable-ish).
  const Rational& v = d.value();
  if (v.den() == 1) {
    return d;
  }
  return Duration::ms(v.num() / v.den() + 1);
}

std::string sanitize_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return text;
}

}  // namespace

FuzzVerdict check_network(const Network& net, const WcetMap& wcets,
                          std::uint64_t seed, const FuzzConfig& cfg,
                          std::int64_t processors) {
  FuzzVerdict v;
  const std::int64_t procs = processors > 0 ? processors : sample_processors(seed);
  const auto fail = [&](std::string check, std::string detail) {
    FuzzMismatch m;
    m.check = std::move(check);
    m.detail = std::move(detail);
    m.processors = procs;
    v.mismatch = std::move(m);
  };

  DerivedTaskGraph derived;
  try {
    derived = derive_task_graph(net, wcets);
  } catch (const std::exception& e) {
    fail("derivation", e.what());
    return v;
  }
  v.jobs = derived.graph.job_count();

  if (cfg.inject_bug && v.jobs >= 2) {
    fail("injected-bug",
         "synthetic scoring fault fires on graphs with >= 2 jobs (got " +
             std::to_string(v.jobs) + ")");
    return v;
  }

  // The fingerprint names cache entries on disk: the lockstep production
  // hash must give the byte-serial reference's value on every graph.
  {
    const std::uint64_t lanes = fingerprint(derived.graph);
    const std::uint64_t serial = testing::reference_fingerprint(derived.graph);
    if (lanes != serial) {
      fail("fingerprint", "fingerprint " + fingerprint_hex(lanes) +
                              " differs from the byte-serial reference " +
                              fingerprint_hex(serial));
      return v;
    }
  }

  try {
    const std::string text = io::write_network(net, wcets);
    const io::ParsedNetwork re = io::parse_network_string(text);
    if (!re.wcets_complete) {
      fail("roundtrip", "writer output lost WCET declarations");
      return v;
    }
    const DerivedTaskGraph rederived = derive_task_graph(re.net, re.wcets);
    const std::uint64_t a = fingerprint(derived.graph);
    const std::uint64_t b = fingerprint(rederived.graph);
    if (a != b) {
      fail("roundtrip", "fingerprint changed across write->parse->derive: " +
                            fingerprint_hex(a) + " -> " + fingerprint_hex(b));
      return v;
    }
  } catch (const std::exception& e) {
    fail("roundtrip", e.what());
    return v;
  }

  sched::ParallelSearchResult reference;
  sched::ParallelSearchResult production;
  try {
    // The production run goes through the engine layer, like every other
    // entry point, and the oracle reads the options it translates to — the
    // differential check therefore also covers the request translation,
    // not just the search kernel.
    const engine::SearchConfig config = search_config(cfg, seed, procs);
    reference = testing::reference_search(derived.graph, config.search_options());
    production = engine::solve_graph(derived.graph, config).search;
  } catch (const std::exception& e) {
    fail("reference-winner", std::string("search threw: ") + e.what());
    return v;
  }
  if (auto diff = compare_results(derived.graph, reference, production)) {
    fail("reference-winner", *diff);
    return v;
  }

  const ViolationCounts counts =
      production.best.schedule.count_violations(derived.graph);
  if (ta_gate(derived.graph, production.best, counts, derived.hyperperiod)) {
    v.ta_checked = true;
    try {
      if (auto diff = check_ta_oracle(derived.graph, production.best)) {
        fail("ta-oracle", *diff);
        return v;
      }
    } catch (const std::exception& e) {
      fail("ta-oracle", std::string("oracle threw: ") + e.what());
      return v;
    }
  }

  if (!derived.servers.empty() && counts.unscheduled == 0) {
    v.trace_checked = true;
    try {
      if (auto diff = check_policy_trace(net, derived, production.best.schedule, seed)) {
        fail("policy-trace", *diff);
        return v;
      }
    } catch (const std::exception& e) {
      fail("policy-trace", std::string("vm run threw: ") + e.what());
      return v;
    }
  }
  return v;
}

FuzzVerdict check_scenario(const Scenario& scenario, const FuzzConfig& cfg) {
  return check_network(scenario.net, scenario.wcets, scenario.seed, cfg,
                       cfg.processors);
}

Scenario shrink_scenario(const Scenario& scenario, const FuzzMismatch& mismatch,
                         const FuzzConfig& cfg, int* steps_out) {
  Scenario current = scenario;
  int steps = 0;
  // Re-check a candidate spec under the exact conditions of the original
  // mismatch; reductions that fail to build/derive are simply rejected.
  const auto triggers = [&](const ScenarioSpec& spec) -> bool {
    if (steps >= cfg.shrink_limit) {
      return false;
    }
    ++steps;
    try {
      BuiltScenario built = build_scenario(spec);
      const FuzzVerdict v =
          check_network(built.net, built.wcets, scenario.seed, cfg,
                        mismatch.processors);
      if (v.mismatch.has_value() && v.mismatch->check == mismatch.check) {
        current.spec = spec;
        current.net = std::move(built.net);
        current.wcets = std::move(built.wcets);
        return true;
      }
    } catch (const std::exception&) {
      // invalid reduction — keep shrinking elsewhere
    }
    return false;
  };

  bool improved = true;
  while (improved && steps < cfg.shrink_limit) {
    improved = false;
    const ScenarioSpec snapshot = current.spec;
    // 1. Drop whole processes (and everything referencing them).
    for (std::size_t i = snapshot.processes.size(); i-- > 0 && !improved;) {
      if (snapshot.processes.size() > 1 && triggers(drop_process(snapshot, i))) {
        improved = true;
      }
    }
    if (improved) {
      continue;
    }
    // 2. Drop channels.
    for (std::size_t i = snapshot.channels.size(); i-- > 0 && !improved;) {
      ScenarioSpec candidate = snapshot;
      candidate.channels.erase(candidate.channels.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (triggers(candidate)) {
        improved = true;
      }
    }
    if (improved) {
      continue;
    }
    // 3. Drop explicit priorities.
    for (std::size_t i = snapshot.priorities.size(); i-- > 0 && !improved;) {
      ScenarioSpec candidate = snapshot;
      candidate.priorities.erase(candidate.priorities.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      if (triggers(candidate)) {
        improved = true;
      }
    }
    if (improved) {
      continue;
    }
    // 4. Per-process simplifications: burst, rates, WCETs.
    for (std::size_t i = 0; i < snapshot.processes.size() && !improved; ++i) {
      const ProcessSpec& p = snapshot.processes[i];
      if (p.burst != 1) {
        ScenarioSpec candidate = snapshot;
        candidate.processes[i].burst = 1;
        if (triggers(candidate)) {
          improved = true;
          break;
        }
      }
      const Duration simple_period = simplify_duration(p.period);
      if (simple_period != p.period) {
        ScenarioSpec candidate = snapshot;
        candidate.processes[i].period = simple_period;
        candidate.processes[i].deadline = simple_period;
        if (triggers(candidate)) {
          improved = true;
          break;
        }
      }
      if (p.deadline != p.period) {
        ScenarioSpec candidate = snapshot;
        candidate.processes[i].deadline = p.period;
        if (triggers(candidate)) {
          improved = true;
          break;
        }
      }
      if (p.wcet != Duration::ms(1)) {
        ScenarioSpec candidate = snapshot;
        candidate.processes[i].wcet = Duration::ms(1);
        if (triggers(candidate)) {
          improved = true;
          break;
        }
        candidate.processes[i].wcet = p.wcet / Rational(2);
        if (triggers(candidate)) {
          improved = true;
          break;
        }
      }
    }
  }
  if (steps_out != nullptr) {
    *steps_out = steps;
  }
  return current;
}

std::string write_repro(const Scenario& scenario, const FuzzMismatch& mismatch,
                        const std::string& dir) {
  io::ensure_directory(dir, "fuzz repro directory");
  std::ostringstream out;
  out << "# fppn-fuzz v1 repro\n";
  out << "# fppn-fuzz seed=" << scenario.seed
      << " family=" << to_string(scenario.family) << "\n";
  out << "# fppn-fuzz processors=" << mismatch.processors << "\n";
  out << "# fppn-fuzz check=" << mismatch.check << "\n";
  out << "# detail: " << sanitize_line(mismatch.detail) << "\n";
  out << scenario_text(scenario);
  const std::string path =
      dir + "/repro-" + to_string(scenario.family) + "-" +
      std::to_string(scenario.seed) + ".fppn";
  io::write_file_atomic(path, out.str());
  return path;
}

ReplayOutcome replay_repro(const std::string& path, const FuzzConfig& cfg) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open repro file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  ReplayOutcome out;
  std::int64_t processors = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string prefix = "# fppn-fuzz ";
    if (line.rfind(prefix, 0) != 0) {
      continue;
    }
    std::istringstream tokens(line.substr(prefix.size()));
    std::string token;
    while (tokens >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        continue;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "seed") {
          out.seed = std::stoull(value);
        } else if (key == "processors") {
          processors = std::stoll(value);
        } else if (key == "check") {
          out.expected_check = value;
        }
      } catch (const std::exception&) {
        throw std::runtime_error("malformed fppn-fuzz header token '" + token +
                                 "' in " + path);
      }
    }
  }

  io::ParsedNetwork parsed;
  try {
    parsed = io::parse_network_string(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("repro file " + path + " does not parse: " + e.what());
  }
  if (!parsed.wcets_complete) {
    throw std::runtime_error("repro file " + path +
                             " lacks wcet= on some process; cannot replay");
  }
  out.verdict = check_network(parsed.net, parsed.wcets, out.seed, cfg, processors);
  return out;
}

FuzzStats run_fuzz(const FuzzRunConfig& cfg) {
  FuzzStats stats;
  const std::vector<Family>& families =
      cfg.families.empty() ? all_families() : cfg.families;
  for (std::int64_t i = 0; i < cfg.seeds; ++i) {
    const std::uint64_t seed = cfg.base_seed + static_cast<std::uint64_t>(i);
    const Family family = families[seed % families.size()];
    const Scenario scenario = make_scenario(family, seed);
    const FuzzVerdict verdict = check_scenario(scenario, cfg.check);
    ++stats.scenarios;
    stats.jobs += verdict.jobs;
    stats.ta_checked += verdict.ta_checked ? 1 : 0;
    stats.trace_checked += verdict.trace_checked ? 1 : 0;
    ++stats.per_family[to_string(family)];
    if (!verdict.mismatch.has_value()) {
      continue;
    }
    const Scenario shrunk =
        shrink_scenario(scenario, *verdict.mismatch, cfg.check, nullptr);
    stats.mismatches.push_back(*verdict.mismatch);
    if (!cfg.repro_dir.empty()) {
      stats.repro_paths.push_back(
          write_repro(shrunk, *verdict.mismatch, cfg.repro_dir));
    }
  }
  return stats;
}

}  // namespace fppn::gen
