#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "gen/rng.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"
#include "runtime/vm_runtime.hpp"
#include "sched/parallel_search.hpp"
#include "taskgraph/compiled_graph.hpp"
#include "taskgraph/fingerprint.hpp"
#include "host_speed.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Every thread count is pinned: a worker count of 0 means hardware
// concurrency in the library, which would make the load depend on the
// host (two solver threads would start nproc search threads each).
constexpr std::int64_t kProcessors = 2;
constexpr int kCompileSearchWorkers = 2;
constexpr int kSolverThreads = 2;
constexpr int kServeSearchWorkers = 1;
constexpr int kServeClients = 2;

/// An end-to-end run sets up at least kSetupMinRepeats times, and more
/// (up to kSetupMaxRepeats) while the set-ups took under kSetupBudgetS in
/// total; setup_s is the median. Short set-ups are noisy, so they get
/// more repeats.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 41;
constexpr double kSetupBudgetS = 1.5;
// Inputs are drawn from the run's seed, and their solve times differ, so
// each run takes many distinct inputs: a run's figures then average over
// the draw instead of following it.
constexpr std::size_t kCompileInputs = 32;
constexpr std::size_t kHotInputs = 32;
/// Requests per serving stack on serve-cold. Each stack starts with an
/// empty (unbounded) memory L1, so memory grows with this count and not
/// with the run's duration.
constexpr std::size_t kColdRoundRequests = 32;
constexpr std::int64_t kExecuteFrames = 10;
/// The end-to-end run measures in slices of this length, each scaled by
/// the host speed measured just before it (host_speed.hpp).
constexpr double kSliceS = 0.25;
/// The paper's job count for the reduced-period FMS (§V-B).
constexpr std::size_t kFmsJobs = 812;

// ------------------------------------------------------------- measuring

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

/// The mean of the middle 90% of `values`: a run mixes ops from CPUs
/// that run at different speeds, and a median of such a mixture jumps
/// between them while the mean moves with the mix.
double trimmed_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 20;
  double sum = 0.0;
  for (std::size_t i = cut; i + cut < values.size(); ++i) {
    sum += values[i];
  }
  const std::size_t n = values.size() - 2 * cut;
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double mean_of_all(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The process's peak resident memory since the last reset_peak_rss()
/// (VmHWM), or since it started where the reset is not allowed.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Sets the peak resident memory back to the current resident memory.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

struct OpSample {
  double ms = 0.0;
  bool ok = false;
};

/// One timed stretch of closed-loop ops.
struct Phase {
  std::vector<OpSample> ops;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  void append(const Phase& other) {
    ops.insert(ops.end(), other.ops.begin(), other.ops.end());
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    out.reserve(ops.size());
    for (const OpSample& op : ops) {
      out.push_back(op.ms);
    }
    return out;
  }
  /// This phase with every time multiplied by `speed`, and wall times
  /// also by `kept` (CPU time does not run while a CPU is stolen).
  [[nodiscard]] Phase scaled(double speed, double kept) const {
    Phase out = *this;
    for (OpSample& op : out.ops) {
      op.ms *= speed * kept;
    }
    out.wall_s *= speed * kept;
    out.cpu_s *= speed;
    return out;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return static_cast<std::uint64_t>(
        std::count_if(ops.begin(), ops.end(), [](const OpSample& s) { return !s.ok; }));
  }
};

Clock::time_point deadline_after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Wall and process CPU time around a stretch of work.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(cpu_seconds()) {}
  void stop_into(Phase& phase) const {
    phase.wall_s = ms_between(wall_, Clock::now()) / 1000.0;
    phase.cpu_s = cpu_seconds() - cpu_;
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// Per-layer samples of the traced run: per op, one summed value per key
/// (a layer that runs several times in one op contributes its total);
/// the reported value of a key is its median over the ops that ran it.
/// Run-level values (cache ratios, queue depth) are set directly.
class LayerSamples {
 public:
  void add(std::uint64_t op, const std::string& key, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    per_op_[op][key] += value;
  }
  void set(const std::string& key, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    run_[key] = value;
  }
  [[nodiscard]] std::map<std::uint64_t, std::map<std::string, double>> per_op() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return per_op_;
  }
  [[nodiscard]] double value(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto run = run_.find(key);
    if (run != run_.end()) {
      return run->second;
    }
    std::vector<double> values;
    for (const auto& [op, keys] : per_op_) {
      const auto it = keys.find(key);
      if (it != keys.end()) {
        values.push_back(it->second);
      }
    }
    return median(std::move(values));
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::map<std::string, double>> per_op_;
  std::map<std::string, double> run_;
};

// ---------------------------------------------------------------- inputs

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  fppn::gen::Rng rng(a ^ (b * 0x9e3779b97f4a7c15ULL));
  rng.next();
  return rng.next();
}

/// The FMS WCETs, each raised by k/10 ms with k in 0..9 drawn from
/// `jitter_seed`; 0 keeps the paper's values.
fppn::WcetMap fms_wcets(const fppn::apps::FmsApp& app, std::uint64_t jitter_seed) {
  fppn::WcetMap wcets = app.default_wcets();
  if (jitter_seed != 0) {
    fppn::gen::Rng rng(jitter_seed);
    for (auto& entry : wcets) {
      entry.second += fppn::Duration::ratio_ms(rng.range(0, 9), 10);
    }
  }
  return wcets;
}

/// The .fppn network texts of `count` FMS variants with pairwise distinct
/// task-graph fingerprints, drawn from (seed, stream); with `with_paper`
/// the first is the paper's unjittered FMS.
std::vector<std::string> distinct_fms_inputs(std::uint64_t seed, std::uint64_t stream,
                                             std::size_t count, bool with_paper) {
  const fppn::apps::FmsApp app = fppn::apps::build_fms(true);
  std::vector<std::string> out;
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; out.size() < count; ++k) {
    if (k > 64 * count) {
      throw std::runtime_error("cannot draw distinct FMS variants");
    }
    const std::uint64_t jitter = with_paper && k == 0 ? 0 : (mix(mix(seed, stream), k) | 1);
    std::string text = fppn::io::write_network(app.net, fms_wcets(app, jitter));
    const fppn::DerivedTaskGraph derived = fppn::engine::derive_network(
        fppn::io::parse_network_string(text), fppn::engine::SolveRequest{});
    if (derived.graph.job_count() != kFmsJobs) {
      throw std::runtime_error("FMS variant derived " +
                               std::to_string(derived.graph.job_count()) + " jobs");
    }
    if (seen.insert(fppn::fingerprint(derived.graph)).second) {
      out.push_back(std::move(text));
    }
  }
  return out;
}

// ------------------------------------------------------- solve settings

/// compile-fms: the optimize preset on 2 search workers, no cache.
fppn::engine::SearchConfig compile_config() {
  fppn::engine::SearchConfig config;
  config.processors = kProcessors;
  config.workers = kCompileSearchWorkers;
  config.optimize = true;
  config.no_cache = true;
  return config;
}

/// The daemon's settings: the quick preset, 1 search worker per solve.
fppn::engine::ServiceOptions service_options() {
  fppn::engine::ServiceOptions options;
  options.processors = kProcessors;
  options.seed = 1;
  options.search_workers = kServeSearchWorkers;
  options.optimize = false;
  return options;
}

/// The SearchConfig SolveService builds for every request under
/// service_options() — what a one-shot reference solve must use.
fppn::engine::SearchConfig serve_config() {
  const fppn::engine::ServiceOptions options = service_options();
  fppn::engine::SearchConfig config;
  config.processors = options.processors;
  config.seed = options.seed;
  config.workers = options.search_workers;
  config.optimize = options.optimize;
  config.memory_cache = true;
  return config;
}

struct Winner {
  std::string strategy;
  std::uint64_t seed = 0;
  fppn::Time makespan;
  bool feasible = false;
  std::size_t jobs = 0;

  friend bool operator==(const Winner& a, const Winner& b) {
    return a.strategy == b.strategy && a.seed == b.seed && a.makespan == b.makespan &&
           a.feasible == b.feasible && a.jobs == b.jobs;
  }
};

Winner winner_of(const fppn::engine::SolveReport& report) {
  Winner w;
  w.strategy = report.search.best.strategy;
  w.seed = report.search.seed;
  w.makespan = report.search.best.makespan;
  w.feasible = report.feasible();
  w.jobs = report.jobs;
  return w;
}

fppn::engine::SolveReport solve_text(fppn::engine::Engine& engine, const std::string& text,
                                     const fppn::engine::SearchConfig& config) {
  fppn::engine::SolveRequest request;
  request.network_text = text;
  request.config = config;
  return engine.solve(request);
}

/// A reference winner must be a feasible schedule of every FMS job.
void require_good_reference(const Winner& w) {
  if (!w.feasible || w.jobs != kFmsJobs) {
    throw std::runtime_error("reference solve: winner " + w.strategy + " feasible " +
                             std::to_string(w.feasible) + " jobs " +
                             std::to_string(w.jobs));
  }
}

/// The daemon's response for `report`'s winner, rendered by the wire
/// grammar of docs/FILE_FORMATS.md: a cache hit answers with every
/// candidate cached and none evaluated, a miss the other way round.
std::string expected_response(const fppn::engine::SolveReport& report,
                              const fppn::engine::SearchConfig& config, bool hit) {
  const std::size_t candidates = report.search.candidates;
  char status[512];
  std::snprintf(status, sizeof(status),
                "fppn-serve ok fingerprint %016" PRIx64 " candidates %zu evaluated %zu "
                "cached %zu winner %s seed %" PRIu64 " feasible %d\n",
                report.fingerprint, candidates, hit ? std::size_t{0} : candidates,
                hit ? candidates : std::size_t{0}, report.search.best.strategy.c_str(),
                report.search.seed, report.feasible() ? 1 : 0);
  fppn::io::ScheduleEntry entry;
  entry.fingerprint = report.fingerprint;
  entry.strategy = report.search.best.strategy;
  entry.seed = report.search.seed;
  entry.processors = report.processors;
  const fppn::sched::ParallelSearchOptions opts = config.search_options();
  entry.max_iterations = opts.max_iterations;
  entry.restarts = opts.restarts;
  entry.detail = report.search.best.detail;
  entry.schedule = report.search.best.schedule;
  return status + fppn::io::write_schedule_entry(entry);
}

void add_search_counters(LayerSamples& layers, std::uint64_t op,
                         const fppn::sched::ParallelSearchResult& s) {
  layers.add(op, "sched.candidates", static_cast<double>(s.candidates));
  layers.add(op, "sched.evals_full", static_cast<double>(s.evals_full));
  layers.add(op, "sched.evals_incremental", static_cast<double>(s.evals_incremental));
  layers.add(op, "sched.evals_spliced", static_cast<double>(s.evals_spliced));
  layers.add(op, "sched.visited_skips", static_cast<double>(s.visited_skips));
  layers.add(op, "sched.splice_ratio",
             s.evals_incremental > 0 ? static_cast<double>(s.evals_spliced) /
                                           static_cast<double>(s.evals_incremental)
                                     : 0.0);
  layers.add(op, "sched.warm_candidates", static_cast<double>(s.warm_candidates));
}

/// Replays one op's network input layer by layer, each call in its own
/// span: parse, derive, compile, fingerprint, then (with `solve_engine`)
/// one Engine::solve whose SolveReport gives the parallel-search time and
/// counters, then every plan candidate in turn — cache lookup, the
/// strategy's schedule() on a miss, cache store — and the warm-start
/// overlay over `cache`. Candidates run serially and without the shared
/// visited-set, so per-strategy times are single-thread times.
void replay_network(Tracer& tracer, LayerSamples& layers, std::uint64_t op,
                    const std::string& text, const fppn::engine::SearchConfig& config,
                    fppn::engine::Engine* solve_engine, fppn::sched::ScheduleCache* cache) {
  const std::uint64_t root = tracer.reserve_id();
  const Clock::time_point begin = Clock::now();

  std::optional<fppn::io::ParsedNetwork> parsed;
  layers.add(op, "io.parse_ms", timed_span(&tracer, "io.parse", op, root, [&] {
               parsed = fppn::io::parse_network_string(text);
             }));
  fppn::engine::SolveRequest request;
  request.config = config;
  std::optional<fppn::DerivedTaskGraph> derived;
  layers.add(op, "taskgraph.derive_ms", timed_span(&tracer, "taskgraph.derive", op, root, [&] {
               derived = fppn::engine::derive_network(*parsed, request);
             }));
  const fppn::TaskGraph& tg = derived->graph;
  layers.add(op, "taskgraph.compile_ms",
             timed_span(&tracer, "taskgraph.compile", op, root,
                        [&] { (void)fppn::CompiledTaskGraph::compile(tg); }));
  std::uint64_t fp = 0;
  layers.add(op, "taskgraph.fingerprint_ms",
             timed_span(&tracer, "taskgraph.fingerprint", op, root,
                        [&] { fp = fppn::fingerprint(tg); }));
  layers.add(op, "taskgraph.jobs", static_cast<double>(tg.job_count()));
  layers.add(op, "taskgraph.edges", static_cast<double>(tg.edge_count()));

  if (solve_engine != nullptr) {
    fppn::engine::SolveReport report;
    timed_span(&tracer, "engine.solve", op, root,
               [&] { report = solve_text(*solve_engine, text, config); });
    layers.add(op, "engine.solve_ms", report.total_ms);
    layers.add(op, "sched.parallel_search_ms", report.search_ms);
    add_search_counters(layers, op, report.search);
  }

  fppn::sched::ParallelSearchOptions opts = config.search_options();
  opts.cache = cache;
  const fppn::sched::StrategyRegistry& registry = fppn::sched::StrategyRegistry::global();
  fppn::sched::ParallelSearchResult result;
  bool have_best = false;
  for (const fppn::sched::SearchCandidate& c :
       fppn::sched::enumerate_search_candidates(opts, registry)) {
    const fppn::sched::StrategyOptions sopts = fppn::sched::strategy_options_for(opts, c);
    const fppn::sched::CacheKey key = fppn::sched::make_cache_key(fp, c.strategy, sopts);
    std::optional<fppn::sched::StrategyResult> r;
    if (cache != nullptr) {
      layers.add(op, "sched.cache_lookup_ms",
                 timed_span(&tracer, "sched.cache_lookup", op, root,
                            [&] { r = cache->lookup(key, tg); }));
    }
    if (!r.has_value()) {
      const std::unique_ptr<fppn::sched::SchedulerStrategy> strategy =
          registry.create(c.strategy);
      layers.add(op, "sched.strategy_ms." + c.strategy,
                 timed_span(&tracer, "sched.strategy." + c.strategy, op, root,
                            [&] { r = strategy->schedule(tg, sopts); }));
      r->strategy = c.strategy;
      if (cache != nullptr) {
        layers.add(op, "sched.cache_store_ms",
                   timed_span(&tracer, "sched.cache_store", op, root,
                              [&] { cache->store(key, *r); }));
      }
    }
    if (!have_best ||
        fppn::sched::better_search_candidate(*r, c.seed, result.best, result.seed)) {
      result.best = std::move(*r);
      result.seed = c.seed;
      have_best = true;
    }
  }
  if (cache != nullptr) {
    layers.add(op, "sched.warm_start_ms",
               timed_span(&tracer, "sched.warm_start", op, root, [&] {
                 fppn::sched::apply_cached_warm_start(tg, opts, result);
               }));
  }
  tracer.record("replay", begin, Clock::now(), op, 0, root);
}

// ------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// The correctness pass, once per run and untimed: the one-shot
  /// reference solve of every input, and makespan_ms.
  virtual void prepare() = 0;
  /// What a user pays before the first op: input generation, server
  /// start and warm-up, schedule derivation. Rebuilds that state anew
  /// on every call (setup_s is the median of several calls).
  /// `traced` adds what only the traced run's replay needs.
  virtual void setup(bool traced) = 0;
  /// Runs closed-loop ops for about `seconds` of timed work. With a
  /// tracer, each op is traced and replayed layer by layer.
  virtual Phase run(double seconds, Tracer* tracer, LayerSamples* layers) = 0;
  /// Mean winner makespan over the workload's distinct inputs (correctness
  /// pass, untimed).
  [[nodiscard]] virtual double makespan_ms() const = 0;
  /// The latency limit an op must meet to count for slo_ratio.
  [[nodiscard]] virtual double slo_ms() const = 0;
  /// The per-layer keys that lie on an op's blocking path.
  [[nodiscard]] virtual std::vector<std::string> blocking_keys() const = 0;
  /// Run-level per-layer values after the traced phase.
  virtual void finish_layers(LayerSamples& /*layers*/) const {}
  [[nodiscard]] virtual std::string threads() const = 0;
  /// Whether every op runs on the calling thread alone.
  [[nodiscard]] virtual bool one_thread() const { return false; }
};

// compile-fms: the toolchain user. One caller; an op is one Engine::solve
// of a network text with the optimize preset on 2 search workers.
class CompileFms final : public Workload {
 public:
  explicit CompileFms(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    setup(false);
    references_.clear();
    fppn::engine::Engine engine;
    for (const std::string& text : inputs_) {
      references_.push_back(winner_of(solve_text(engine, text, compile_config())));
      require_good_reference(references_.back());
    }
  }

  void setup(bool /*traced*/) override {
    inputs_ = distinct_fms_inputs(seed_, 1, kCompileInputs, true);
  }

  Phase run(double seconds, Tracer* tracer, LayerSamples* layers) override {
    Phase phase;
    const Stopwatch watch;
    const Clock::time_point deadline = deadline_after(seconds);
    for (; Clock::now() < deadline; ++next_op_) {
      const std::size_t index = next_op_ % inputs_.size();
      const std::uint64_t op = next_op_ + 1;
      const Clock::time_point begin = Clock::now();
      const fppn::engine::SolveReport report =
          solve_text(engine_, inputs_[index], compile_config());
      const Clock::time_point end = Clock::now();
      phase.ops.push_back({ms_between(begin, end), winner_of(report) == references_[index]});
      if (tracer != nullptr) {
        tracer->record("engine.solve", begin, end, op);
        layers->add(op, "engine.solve_ms", report.total_ms);
        layers->add(op, "sched.parallel_search_ms", report.search_ms);
        add_search_counters(*layers, op, report.search);
        replay_network(*tracer, *layers, op, inputs_[index], compile_config(),
                       nullptr, nullptr);
      }
    }
    watch.stop_into(phase);
    return phase;
  }

  [[nodiscard]] double makespan_ms() const override {
    double sum = 0.0;
    for (const Winner& w : references_) {
      sum += w.makespan.to_double_ms();
    }
    return sum / static_cast<double>(references_.size());
  }
  [[nodiscard]] double slo_ms() const override { return 150.0; }
  [[nodiscard]] std::vector<std::string> blocking_keys() const override {
    return {"io.parse_ms", "taskgraph.derive_ms", "taskgraph.fingerprint_ms",
            "sched.parallel_search_ms"};
  }
  [[nodiscard]] std::string threads() const override {
    return "threads: callers 1 search_workers " + std::to_string(kCompileSearchWorkers);
  }

 private:
  const std::uint64_t seed_;
  fppn::engine::Engine engine_;
  std::vector<std::string> inputs_;
  std::vector<Winner> references_;
  std::uint64_t next_op_ = 0;  ///< ops run so far, over every call of run()
};

// ------------------------------------------------------------ serving

std::string read_to_eof(int fd) {
  std::string data;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return data;
    }
  }
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One client round trip: connect, send, half-close, read to EOF. An
/// empty string means the connection failed.
std::string roundtrip(const fppn::net::Endpoint& endpoint, const std::string& request) {
  const int fd = fppn::net::connect_endpoint(endpoint);
  if (fd < 0) {
    return {};
  }
  std::string response;
  if (write_all(fd, request) && ::shutdown(fd, SHUT_WR) == 0) {
    response = read_to_eof(fd);
  }
  ::close(fd);
  return response;
}

/// Every request starts with this comment line, so the server-side spans
/// can name the op and the client span that caused them. The text format
/// ignores comments, so the line changes no fingerprint.
std::string op_header(std::uint64_t op, std::uint64_t span) {
  char line[96];
  std::snprintf(line, sizeof(line), "# perfbench op %" PRIu64 " span %" PRIu64 "\n", op,
                span);
  return line;
}

/// The daemon wired in-process: one Engine, one SolveService and one
/// net::Server with its reactor thread and solver pool on a Unix socket.
/// The handler is the benchmark's own, so the traced run can span the
/// queue wait and SolveService::handle on the server side.
class ServeStack {
 public:
  explicit ServeStack(const std::string& socket_path) : socket_path_(socket_path) {
    service_ = std::make_unique<fppn::engine::SolveService>(engine_, service_options());
    fppn::net::ServerOptions options;
    options.solver_threads = kSolverThreads;
    fppn::net::ServerProtocol protocol;
    protocol.overloaded = [this] { return service_->overloaded_line(); };
    protocol.oversized = [this](std::size_t bytes) { return service_->oversized_line(bytes); };
    protocol.read_error = [this](int error) { return service_->read_error_line(error); };
    protocol.deadline_exceeded = [this] { return service_->deadline_exceeded_line(); };
    server_ = std::make_unique<fppn::net::Server>(
        options, protocol, [this](std::string request, const fppn::net::RequestInfo& info) {
          return handle(request, info);
        });
    server_->add_listener(
        fppn::net::Listener::listen(fppn::net::Endpoint::unix_socket(socket_path_)));
    thread_ = std::thread([this] { server_->run(); });
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    server_->stop();
    thread_.join();
  }

  [[nodiscard]] fppn::net::Endpoint endpoint() const {
    return fppn::net::Endpoint::unix_socket(socket_path_);
  }
  [[nodiscard]] fppn::engine::Engine& engine() { return engine_; }
  [[nodiscard]] fppn::engine::ServiceStats stats() const { return service_->stats(); }
  [[nodiscard]] std::size_t max_queue_depth() const { return max_depth_.load(); }

  /// Traces every later request into `tracer` and `layers` (null: stop).
  void trace_into(Tracer* tracer, LayerSamples* layers) {
    layers_.store(layers);
    tracer_.store(tracer);
  }

 private:
  std::string handle(const std::string& request, const fppn::net::RequestInfo& info) {
    std::size_t seen = max_depth_.load();
    while (info.queue_depth > seen && !max_depth_.compare_exchange_weak(seen, info.queue_depth)) {
    }
    fppn::engine::RequestLoad load;
    load.queue_wait_ms = info.queue_wait_ms;
    load.queue_depth = info.queue_depth;
    load.queue_capacity = info.queue_capacity;
    Tracer* const tracer = tracer_.load();
    LayerSamples* const layers = layers_.load();
    unsigned long long op = 0;
    unsigned long long parent = 0;
    // Op 0 is a warm-up request, never traced.
    if (tracer == nullptr ||
        std::sscanf(request.c_str(), "# perfbench op %llu span %llu", &op, &parent) != 2 ||
        op == 0) {
      return service_->handle(request, load);
    }
    const Clock::time_point begin = Clock::now();
    std::string response = service_->handle(request, load);
    const Clock::time_point end = Clock::now();
    tracer->record("net.queue_wait",
                   begin - std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(info.queue_wait_ms)),
                   begin, op, parent);
    tracer->record("engine.handle", begin, end, op, parent);
    layers->add(op, "net.queue_wait_ms", info.queue_wait_ms);
    layers->add(op, "engine.handle_ms", ms_between(begin, end));
    return response;
  }

  const std::string socket_path_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<LayerSamples*> layers_{nullptr};
  fppn::engine::Engine engine_;
  std::unique_ptr<fppn::engine::SolveService> service_;
  std::unique_ptr<fppn::net::Server> server_;
  std::atomic<std::size_t> max_depth_{0};
  std::thread thread_;
};

struct ServeInput {
  std::string text;
  std::string expected_miss;  ///< the response to the first request for it
  std::string expected_hit;   ///< the response once its plan is cached
  double makespan_ms = 0.0;
};

/// Solves every input one-shot (a fresh Engine each, the daemon's
/// settings) and renders the responses the daemon must give.
std::vector<ServeInput> serve_inputs(const std::vector<std::string>& texts) {
  std::vector<ServeInput> out;
  for (const std::string& text : texts) {
    fppn::engine::Engine engine;
    const fppn::engine::SolveReport report = solve_text(engine, text, serve_config());
    require_good_reference(winner_of(report));
    ServeInput s;
    s.text = text;
    s.expected_miss = expected_response(report, serve_config(), false);
    s.expected_hit = expected_response(report, serve_config(), true);
    s.makespan_ms = report.search.best.makespan.to_double_ms();
    out.push_back(std::move(s));
  }
  return out;
}

/// Set-up regenerates the inputs the correctness pass solved; they must
/// be the same texts.
void require_same_texts(const std::vector<std::string>& generated,
                        const std::vector<ServeInput>& prepared) {
  bool same = generated.size() == prepared.size();
  for (std::size_t i = 0; same && i < generated.size(); ++i) {
    same = generated[i] == prepared[i].text;
  }
  if (!same) {
    throw std::runtime_error("set-up generated other inputs than the correctness pass");
  }
}

/// How a serving op is replayed in the traced run.
struct ServeReplay {
  /// Engine for the replayed Engine::solve; null = a fresh one per op.
  fppn::engine::Engine* engine = nullptr;
  /// Cache for the candidate replay; null = a fresh one per op.
  fppn::sched::ScheduleCache* cache = nullptr;
};

/// kServeClients closed-loop clients against `stack`. Client request
/// number k (shared counter) sends inputs[pick(k)] until pick returns
/// nothing; `hit` selects the expected response.
template <class Pick>
Phase drive_clients(ServeStack& stack, const std::vector<ServeInput>& inputs, bool hit,
                    Pick pick, std::atomic<std::uint64_t>& next_op, Tracer* tracer,
                    LayerSamples* layers, const ServeReplay& replay) {
  std::atomic<std::uint64_t> next_k{0};
  std::vector<std::vector<OpSample>> per_client(kServeClients);
  const fppn::net::Endpoint endpoint = stack.endpoint();
  Phase phase;
  const Stopwatch watch;
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        const std::optional<std::size_t> index = pick(next_k.fetch_add(1));
        if (!index.has_value()) {
          return;
        }
        const ServeInput& in = inputs[*index];
        const std::uint64_t op = next_op.fetch_add(1);
        const std::uint64_t span = tracer != nullptr ? tracer->reserve_id() : 0;
        const std::string request = op_header(op, span) + in.text;
        const Clock::time_point begin = Clock::now();
        const std::string response = roundtrip(endpoint, request);
        const Clock::time_point end = Clock::now();
        per_client[static_cast<std::size_t>(c)].push_back(
            {ms_between(begin, end), response == (hit ? in.expected_hit : in.expected_miss)});
        if (tracer != nullptr) {
          tracer->record("net.roundtrip", begin, end, op, 0, span);
          layers->add(op, "net.roundtrip_ms", ms_between(begin, end));
          fppn::engine::Engine fresh_engine;
          fppn::sched::ScheduleCache fresh_cache;
          replay_network(*tracer, *layers, op, in.text, serve_config(),
                         replay.engine != nullptr ? replay.engine : &fresh_engine,
                         replay.cache != nullptr ? replay.cache : &fresh_cache);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  watch.stop_into(phase);
  for (const std::vector<OpSample>& ops : per_client) {
    phase.ops.insert(phase.ops.end(), ops.begin(), ops.end());
  }
  return phase;
}

/// net.overhead_ms per op: the round trip minus the queue wait minus
/// SolveService::handle.
void add_net_overhead(LayerSamples& layers) {
  for (const auto& [op, keys] : layers.per_op()) {
    const auto rt = keys.find("net.roundtrip_ms");
    const auto qw = keys.find("net.queue_wait_ms");
    const auto h = keys.find("engine.handle_ms");
    if (rt != keys.end() && qw != keys.end() && h != keys.end()) {
      layers.add(op, "net.overhead_ms", rt->second - qw->second - h->second);
    }
  }
}

std::vector<std::string> serve_blocking_keys(bool cold) {
  std::vector<std::string> keys = {"net.queue_wait_ms",     "net.overhead_ms",
                                   "io.parse_ms",           "taskgraph.derive_ms",
                                   "taskgraph.fingerprint_ms", "sched.cache_lookup_ms",
                                   "sched.warm_start_ms"};
  if (cold) {
    keys.push_back("sched.cache_store_ms");
    for (const std::string& name : fppn::sched::StrategyRegistry::global().names()) {
      keys.push_back("sched.strategy_ms." + name);
    }
  }
  return keys;
}

/// The cache and queue counters of the traced phase, summed over stacks.
struct ServeCounters {
  fppn::sched::CacheStats cache;
  std::size_t max_entries = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t rejected = 0;

  void add(ServeStack& stack, const fppn::sched::CacheStats& before) {
    const fppn::sched::CacheStats after = stack.engine().memory_cache().stats();
    cache.hits += after.hits - before.hits;
    cache.misses += after.misses - before.misses;
    max_entries = std::max(max_entries, stack.engine().memory_cache().size());
    max_queue_depth = std::max(max_queue_depth, stack.max_queue_depth());
    const fppn::engine::ServiceStats stats = stack.stats();
    rejected += stats.overloaded + stats.shed;
  }
  void publish(LayerSamples& layers) const {
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    layers.set("sched.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
    layers.set("sched.cache_entries", static_cast<double>(max_entries));
    layers.set("net.max_queue_depth", static_cast<double>(max_queue_depth));
    layers.set("net.rejected", static_cast<double>(rejected));
  }
};

/// What serve-hot and serve-cold share: the daemon's inputs with their
/// expected responses, the op counter and the traced-run counters.
class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, std::string socket_path)
      : seed_(seed), socket_path_(std::move(socket_path)) {}

  [[nodiscard]] double makespan_ms() const override {
    double sum = 0.0;
    for (const ServeInput& in : inputs_) {
      sum += in.makespan_ms;
    }
    return sum / static_cast<double>(inputs_.size());
  }
  void finish_layers(LayerSamples& layers) const override { counters_.publish(layers); }
  [[nodiscard]] std::string threads() const override {
    return "threads: clients " + std::to_string(kServeClients) + " solver_threads " +
           std::to_string(kSolverThreads) + " search_workers " +
           std::to_string(kServeSearchWorkers);
  }

 protected:
  const std::uint64_t seed_;
  const std::string socket_path_;
  std::vector<ServeInput> inputs_;
  std::atomic<std::uint64_t> next_op_{1};
  ServeCounters counters_;
};

// serve-hot: a daemon user repeating known graphs. kHotInputs FMS variants
// are solved once during set-up, so every timed request hits the memory L1.
class ServeHot final : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  void prepare() override {
    inputs_ = serve_inputs(distinct_fms_inputs(seed_, 2, kHotInputs, false));
  }

  void setup(bool traced) override {
    stack_.reset();
    replay_engine_.reset();
    require_same_texts(distinct_fms_inputs(seed_, 2, kHotInputs, false), inputs_);
    stack_ = std::make_unique<ServeStack>(socket_path_);
    for (const ServeInput& in : inputs_) {
      if (roundtrip(stack_->endpoint(), op_header(0, 0) + in.text) != in.expected_miss) {
        throw std::runtime_error("serve-hot warm-up: response differs from the reference");
      }
    }
    if (traced) {
      replay_engine_ = std::make_unique<fppn::engine::Engine>();
      for (const ServeInput& in : inputs_) {
        (void)solve_text(*replay_engine_, in.text, serve_config());
      }
    }
  }

  Phase run(double seconds, Tracer* tracer, LayerSamples* layers) override {
    ServeStack* const stack = stack_.get();
    stack->trace_into(tracer, layers);
    const fppn::sched::CacheStats before = stack->engine().memory_cache().stats();
    const Clock::time_point deadline = deadline_after(seconds);
    const std::size_t n = inputs_.size();
    ServeReplay replay;
    if (replay_engine_ != nullptr) {
      replay.engine = replay_engine_.get();
      replay.cache = &replay_engine_->memory_cache();
    }
    Phase phase = drive_clients(
        *stack, inputs_, true,
        [&](std::uint64_t /*k*/) -> std::optional<std::size_t> {
          if (Clock::now() >= deadline) {
            return std::nullopt;
          }
          return static_cast<std::size_t>(next_input_.fetch_add(1) % n);
        },
        next_op_, tracer, layers, replay);
    if (layers != nullptr) {
      counters_ = ServeCounters{};
      counters_.add(*stack, before);
      add_net_overhead(*layers);
    }
    return phase;
  }

  [[nodiscard]] double slo_ms() const override { return 60.0; }
  [[nodiscard]] std::vector<std::string> blocking_keys() const override {
    return serve_blocking_keys(false);
  }

 private:
  std::unique_ptr<fppn::engine::Engine> replay_engine_;
  std::unique_ptr<ServeStack> stack_;
  /// Requests sent so far, over every call of run(): inputs go round.
  std::atomic<std::uint64_t> next_input_{0};
};

// serve-cold: the same daemon, but every request is an FMS variant the
// serving stack has never seen, so every request misses and stores.
// Timed work is split into rounds of kColdRoundRequests requests, each
// against a fresh stack: the unbounded memory L1 then never holds more
// than one round of graphs, however fast the program is.
class ServeCold final : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  void prepare() override {
    inputs_ = serve_inputs(distinct_fms_inputs(seed_, 3, kColdRoundRequests, false));
  }

  void setup(bool /*traced*/) override {
    require_same_texts(distinct_fms_inputs(seed_, 3, kColdRoundRequests, false), inputs_);
    // Warm-up: a throwaway stack serves two requests, untimed.
    ServeStack warm(socket_path_);
    for (std::size_t i = 0; i < 2; ++i) {
      if (roundtrip(warm.endpoint(), op_header(0, 0) + inputs_[i].text) !=
          inputs_[i].expected_miss) {
        throw std::runtime_error("serve-cold warm-up: response differs from the reference");
      }
    }
  }

  Phase run(double seconds, Tracer* tracer, LayerSamples* layers) override {
    Phase total;
    counters_ = ServeCounters{};
    const std::size_t n = inputs_.size();
    while (total.wall_s < seconds) {
      ServeStack stack(socket_path_);
      stack.trace_into(tracer, layers);
      const fppn::sched::CacheStats before = stack.engine().memory_cache().stats();
      total.append(drive_clients(
          stack, inputs_, false,
          [n](std::uint64_t k) -> std::optional<std::size_t> {
            if (k >= n) {
              return std::nullopt;
            }
            return static_cast<std::size_t>(k);
          },
          next_op_, tracer, layers, ServeReplay{}));
      counters_.add(stack, before);
    }
    if (layers != nullptr) {
      add_net_overhead(*layers);
    }
    return total;
  }

  [[nodiscard]] double slo_ms() const override { return 300.0; }
  [[nodiscard]] std::vector<std::string> blocking_keys() const override {
    return serve_blocking_keys(true);
  }
  [[nodiscard]] std::string threads() const override {
    return ServeWorkload::threads() + " requests_per_stack " +
           std::to_string(kColdRoundRequests);
  }
};

// execute-fms: the deployed application on one thread. An op runs the
// paper FMS's winner schedule on the "vm" runtime for kExecuteFrames
// hyperperiods with sensor inputs and sporadic commands seeded per op,
// computes the zero-delay reference for the same inputs and compares the
// histories (Prop. 2.1/4.1).
class ExecuteFms final : public Workload {
 public:
  explicit ExecuteFms(std::uint64_t seed) : seed_(seed) {}

  /// Checks kMakespanRuns seeded executions and takes makespan_ms from
  /// them: the mean realized frame makespan (last job completion after
  /// each frame start). The schedule is the same on every run; the
  /// sporadic commands, which decide which server jobs run, are not.
  void prepare() override {
    setup(false);
    double sum = 0.0;
    std::size_t frames = 0;
    for (std::uint64_t k = 0; k < kMakespanRuns; ++k) {
      const Execution e = execute(mix(mix(seed_, 6), k), nullptr, 0);
      if (!e.ok) {
        throw std::runtime_error("execute-fms: a correctness-pass run failed");
      }
      std::vector<double> frame_makespan(static_cast<std::size_t>(kExecuteFrames), 0.0);
      for (const fppn::TraceEvent& ev : e.vm->trace.events()) {
        if (ev.kind == fppn::TraceEventKind::kJobRun && ev.end.has_value()) {
          const fppn::Time frame_start =
              fppn::Time() + derived_->hyperperiod * fppn::Rational(ev.frame);
          double& m = frame_makespan[static_cast<std::size_t>(ev.frame)];
          m = std::max(m, (*ev.end - frame_start).to_double_ms());
        }
      }
      for (const double m : frame_makespan) {
        sum += m;
        ++frames;
      }
    }
    makespan_ms_ = sum / static_cast<double>(frames);
  }

  void setup(bool /*traced*/) override {
    app_ = std::make_unique<fppn::apps::FmsApp>(fppn::apps::build_fms(true));
    derived_ = std::make_unique<fppn::DerivedTaskGraph>(
        fppn::derive_task_graph(app_->net, app_->default_wcets()));
    const fppn::engine::SolveReport report =
        fppn::engine::solve_graph(derived_->graph, compile_config());
    require_good_reference(winner_of(report));
    schedule_ = report.search.best.schedule;
  }

  Phase run(double seconds, Tracer* tracer, LayerSamples* layers) override {
    Phase phase;
    const Stopwatch watch;
    const Clock::time_point deadline = deadline_after(seconds);
    for (; Clock::now() < deadline; ++next_op_) {
      const std::uint64_t op = next_op_ + 1;
      const Execution e = execute(mix(mix(seed_, 5), next_op_), tracer, op);
      phase.ops.push_back({e.ms, e.ok});
      if (layers != nullptr) {
        layers->add(op, "runtime.vm_run_ms", e.vm_ms);
        layers->add(op, "runtime.jobs_executed", static_cast<double>(e.vm->jobs_executed));
        layers->add(op, "runtime.false_skips", static_cast<double>(e.vm->false_skips));
        layers->add(op, "runtime.jobs_per_s",
                    static_cast<double>(e.vm->jobs_executed) / (e.vm_ms / 1000.0));
        layers->add(op, "fppn.zero_delay_ms", e.reference_ms);
        layers->add(op, "fppn.compare_ms", e.compare_ms);
      }
    }
    watch.stop_into(phase);
    return phase;
  }

  [[nodiscard]] double makespan_ms() const override { return makespan_ms_; }
  [[nodiscard]] double slo_ms() const override { return 100.0; }
  [[nodiscard]] std::vector<std::string> blocking_keys() const override {
    return {"runtime.vm_run_ms", "fppn.zero_delay_ms", "fppn.compare_ms"};
  }
  [[nodiscard]] std::string threads() const override {
    return "threads: callers 1 frames " + std::to_string(kExecuteFrames);
  }
  [[nodiscard]] bool one_thread() const override { return true; }

 private:
  static constexpr std::uint64_t kMakespanRuns = 4;

  struct Execution {
    std::optional<fppn::RunResult> vm;
    bool ok = false;
    double ms = 0.0;  ///< the op: vm run + reference + compare
    double vm_ms = 0.0;
    double reference_ms = 0.0;
    double compare_ms = 0.0;
  };

  /// One op. Inputs are generated before the clock starts.
  Execution execute(std::uint64_t op_seed, Tracer* tracer, std::uint64_t op) const {
    const fppn::Duration hyperperiod = derived_->hyperperiod;
    // Sporadic commands end one hyperperiod before the horizon: an
    // invocation near the horizon is served by the static-order run one
    // frame later than the zero-delay reference records it, which would
    // read as a false mismatch.
    const fppn::Time command_horizon =
        fppn::Time() + hyperperiod * fppn::Rational(kExecuteFrames - 1);
    const std::size_t sensor_blocks = static_cast<std::size_t>(
        kExecuteFrames * static_cast<std::int64_t>(hyperperiod.to_double_ms() / 200.0 + 0.5));
    const fppn::InputScripts inputs = app_->make_inputs(sensor_blocks, op_seed);
    const auto commands = app_->random_commands(command_horizon, op_seed);
    fppn::VmRunOptions vm_options;
    vm_options.frames = kExecuteFrames;

    Execution e;
    const std::uint64_t root = tracer != nullptr ? tracer->reserve_id() : 0;
    const Clock::time_point begin = Clock::now();
    e.vm_ms = timed_span(tracer, "runtime.vm_run", op, root, [&] {
      e.vm = fppn::run_static_order_vm(app_->net, *derived_, schedule_, vm_options, inputs,
                                       commands);
    });
    std::optional<fppn::ZeroDelayResult> reference;
    e.reference_ms = timed_span(tracer, "fppn.zero_delay", op, root, [&] {
      reference = fppn::zero_delay_reference(app_->net, hyperperiod, kExecuteFrames, inputs,
                                             commands);
    });
    bool equal = false;
    e.compare_ms = timed_span(tracer, "fppn.compare", op, root, [&] {
      equal = e.vm->histories.functionally_equal(reference->histories);
    });
    const Clock::time_point end = Clock::now();
    if (tracer != nullptr) {
      tracer->record("execute.op", begin, end, op, 0, root);
    }
    e.ms = ms_between(begin, end);
    e.ok = equal && e.vm->met_all_deadlines();
    return e;
  }

  const std::uint64_t seed_;
  std::unique_ptr<fppn::apps::FmsApp> app_;
  std::unique_ptr<fppn::DerivedTaskGraph> derived_;
  fppn::StaticSchedule schedule_;
  double makespan_ms_ = 0.0;
  std::uint64_t next_op_ = 0;  ///< ops run so far, over every call of run()
};

// ---------------------------------------------------------------- metrics

/// The per-layer metrics, in report order. A layer that does not run in a
/// workload reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"io.parse_ms", "ms"},
      {"taskgraph.derive_ms", "ms"},
      {"taskgraph.compile_ms", "ms"},
      {"taskgraph.fingerprint_ms", "ms"},
      {"taskgraph.jobs", "count"},
      {"taskgraph.edges", "count"},
      {"sched.strategy_ms.alap-edf", "ms"},
      {"sched.strategy_ms.arrival-order", "ms"},
      {"sched.strategy_ms.b-level", "ms"},
      {"sched.strategy_ms.deadline-monotonic", "ms"},
      {"sched.strategy_ms.local-search", "ms"},
      {"sched.strategy_ms.partitioned-wfd", "ms"},
      {"sched.parallel_search_ms", "ms"},
      {"sched.candidates", "count"},
      {"sched.evals_full", "count"},
      {"sched.evals_incremental", "count"},
      {"sched.evals_spliced", "count"},
      {"sched.visited_skips", "count"},
      {"sched.splice_ratio", "ratio"},
      {"sched.cache_lookup_ms", "ms"},
      {"sched.cache_store_ms", "ms"},
      {"sched.cache_hit_ratio", "ratio"},
      {"sched.cache_entries", "count"},
      {"sched.warm_start_ms", "ms"},
      {"sched.warm_candidates", "count"},
      {"engine.solve_ms", "ms"},
      {"engine.handle_ms", "ms"},
      {"net.roundtrip_ms", "ms"},
      {"net.queue_wait_ms", "ms"},
      {"net.overhead_ms", "ms"},
      {"net.max_queue_depth", "count"},
      {"net.rejected", "count"},
      {"runtime.vm_run_ms", "ms"},
      {"runtime.jobs_executed", "count"},
      {"runtime.false_skips", "count"},
      {"runtime.jobs_per_s", "1/s"},
      {"fppn.zero_delay_ms", "ms"},
      {"fppn.compare_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return metrics;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  const std::string socket = opts.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  if (opts.workload == "compile-fms") {
    return std::make_unique<CompileFms>(opts.seed);
  }
  if (opts.workload == "serve-hot") {
    return std::make_unique<ServeHot>(opts.seed, socket);
  }
  if (opts.workload == "serve-cold") {
    return std::make_unique<ServeCold>(opts.seed, socket);
  }
  if (opts.workload == "execute-fms") {
    return std::make_unique<ExecuteFms>(opts.seed);
  }
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

/// The tail, for reading: p95 with its sample count. It is not an
/// end-to-end metric because it does not repeat within a tenth from run
/// to run on a shared host (see README.md).
std::string tail_line(const std::vector<double>& latencies) {
  const std::size_t n = latencies.size();
  const double beyond = static_cast<double>(n) * 0.05;
  char line[192];
  std::snprintf(line, sizeof(line), "samples: %zu ops; p95_ms %.4f with %.0f samples beyond%s",
                n, percentile(latencies, 95.0), beyond,
                beyond >= 10.0 ? "" : " (fewer than 10: p95 is not resolved)");
  return line;
}

}  // namespace

Result run_workload(const Options& opts) {
  const std::unique_ptr<Workload> workload = make_workload(opts);
  Result result;
  result.info.push_back(workload->threads());

  const Clock::time_point prepare_begin = Clock::now();
  workload->prepare();
  char prepared[96];
  std::snprintf(prepared, sizeof(prepared), "correctness pass: %.3f s (untimed)",
                ms_between(prepare_begin, Clock::now()) / 1000.0);
  result.info.push_back(prepared);

  if (!opts.trace) {
    // Every time below is scaled to the reference speed measured just
    // before it (host_speed.hpp); the raw figures are printed beside.
    const std::vector<int> cpus = allowed_cpus();
    std::vector<double> setups;
    std::vector<double> setups_raw;
    std::vector<double> speeds;
    std::vector<double> stolen;
    double setup_total_s = 0.0;
    while (static_cast<int>(setups.size()) < kSetupMinRepeats ||
           (setup_total_s < kSetupBudgetS &&
            static_cast<int>(setups.size()) < kSetupMaxRepeats)) {
      speeds.push_back(reference_ms(cpus));
      const CpuTimes before = cpu_times();
      const Clock::time_point begin = Clock::now();
      workload->setup(false);
      setups_raw.push_back(ms_between(begin, Clock::now()) / 1000.0);
      const double kept = 1.0 - stolen_share(before, cpu_times(), cpus);
      stolen.push_back(1.0 - kept);
      setups.push_back(setups_raw.back() * kReferenceMs / speeds.back() * kept);
      setup_total_s += setups_raw.back();
    }
    // A one-thread workload moves to the next CPU every slice: each CPU
    // of a shared host drifts on its own, and a thread left alone would
    // sample one of them for the whole run.
    Phase raw;
    Phase phase;
    std::vector<double> slice_peaks;
    for (std::size_t slice = 0; raw.wall_s < opts.seconds; ++slice) {
      std::vector<int> on = cpus;
      if (workload->one_thread()) {
        on = {cpus[slice % cpus.size()]};
        run_on(on);
      }
      speeds.push_back(reference_ms(on));
      reset_peak_rss();
      const CpuTimes before = cpu_times();
      const Phase part =
          workload->run(std::min(kSliceS, opts.seconds - raw.wall_s), nullptr, nullptr);
      const double share = stolen_share(before, cpu_times(), on);
      stolen.push_back(share);
      slice_peaks.push_back(peak_rss_mb());
      raw.append(part);
      phase.append(part.scaled(kReferenceMs / speeds.back(), 1.0 - share));
    }
    run_on(cpus);

    std::size_t within_slo = 0;
    std::size_t correct = 0;
    for (const OpSample& op : raw.ops) {
      correct += op.ok ? 1 : 0;
      within_slo += op.ok && op.ms <= workload->slo_ms() ? 1 : 0;
    }
    const double attempted = static_cast<double>(std::max<std::size_t>(raw.ops.size(), 1));
    result.attempted = raw.ops.size();
    result.failed = raw.failed();
    result.metrics = {
        {"mean_ms", trimmed_mean(phase.latencies()), "ms"},
        {"throughput_per_s", static_cast<double>(correct) / phase.wall_s, "1/s"},
        {"slo_ratio", static_cast<double>(within_slo) / attempted, "ratio"},
        {"cpu_ms_per_op", phase.cpu_s * 1000.0 / attempted, "ms"},
        {"makespan_ms", workload->makespan_ms(), "ms"},
        {"rss_mb", median(slice_peaks), "MB"},
        {"setup_s", median(setups), "s"},
    };
    const std::vector<double> latencies = raw.latencies();
    char line[256];
    std::snprintf(line, sizeof(line),
                  "raw: mean_ms %.4f p50_ms %.4f throughput_per_s %.4f cpu_ms_per_op %.4f "
                  "setup_s %.5f",
                  trimmed_mean(latencies), percentile(latencies, 50.0),
                  static_cast<double>(correct) / raw.wall_s, raw.cpu_s * 1000.0 / attempted,
                  median(setups_raw));
    result.info.push_back(line);
    std::snprintf(line, sizeof(line),
                  "host speed: reference kernel median %.4f ms (quartiles %.4f %.4f) over %zu "
                  "bursts; stolen share of CPU time mean %.4f; %zu slices%s",
                  median(speeds), percentile(speeds, 25.0), percentile(speeds, 75.0),
                  speeds.size(), mean_of_all(stolen), speeds.size() - setups.size(),
                  workload->one_thread() ? ", the thread moved to the next CPU every slice" : "");
    result.info.push_back(line);
    std::snprintf(line, sizeof(line),
                  "rss: peak per slice median %.2f MB (min %.2f, max %.2f)", median(slice_peaks),
                  *std::min_element(slice_peaks.begin(), slice_peaks.end()),
                  *std::max_element(slice_peaks.begin(), slice_peaks.end()));
    result.info.push_back(line);
    result.info.push_back(tail_line(latencies));
    std::snprintf(line, sizeof(line),
                  "slo: %.0f ms per op (raw latency); set-up repeated %zu times",
                  workload->slo_ms(), setups.size());
    result.info.push_back(line);
  } else {
    workload->setup(true);
    const Phase plain = workload->run(opts.seconds / 2.0, nullptr, nullptr);
    Tracer tracer;
    LayerSamples layers;
    const Phase traced = workload->run(opts.seconds / 2.0, &tracer, &layers);
    workload->finish_layers(layers);

    const double traced_p50 = percentile(traced.latencies(), 50.0);
    std::vector<double> blocking;
    const std::vector<std::string> keys = workload->blocking_keys();
    for (const auto& op : layers.per_op()) {
      double sum = 0.0;
      for (const std::string& key : keys) {
        const auto it = op.second.find(key);
        sum += it != op.second.end() ? it->second : 0.0;
      }
      blocking.push_back(sum);
    }
    layers.set("trace.coverage", traced_p50 > 0 ? median(blocking) / traced_p50 : 0.0);
    const double plain_p50 = percentile(plain.latencies(), 50.0);
    layers.set("trace.overhead", plain_p50 > 0 ? traced_p50 / plain_p50 : 0.0);

    for (const auto& [name, unit] : layer_metrics()) {
      result.metrics.push_back({name, layers.value(name), unit});
    }
    result.attempted = plain.ops.size() + traced.ops.size();
    result.failed = plain.failed() + traced.failed();

    const std::string stem =
        opts.work_dir + "/" + opts.workload + "-seed" + std::to_string(opts.seed);
    tracer.write(stem + ".trace.json", stem + ".layers.json");
    result.info.push_back("samples: untraced " + std::to_string(plain.ops.size()) +
                          " ops, traced " + std::to_string(traced.ops.size()) + " ops");
    result.info.push_back("trace: " + stem + ".trace.json (Chrome trace events), " + stem +
                          ".layers.json (self time per span name)");
  }
  result.correct = result.attempted > 0 && result.failed == 0;
  return result;
}

}  // namespace perfbench
