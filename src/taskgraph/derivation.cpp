#include "taskgraph/derivation.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fppn/semantics.hpp"
#include "graph/algorithms.hpp"

namespace fppn {
namespace {

/// Per-process data of the imaginary network PN' (derivation step 1):
/// every process periodic, sporadics replaced by their servers.
struct PrimeProcess {
  int burst = 1;
  Duration period;              // T in PN'
  Duration relative_deadline;   // d (corrected for servers)
  bool is_server = false;
};

/// Footnote 3: the server period T' = T_u/q for the smallest integer q
/// with d_p > T_u/q; q == 1 (T' = T_u) in the common case d_p > T_u.
Duration server_period_for(const Duration& user_period, const Duration& deadline) {
  if (deadline > user_period) {
    return user_period;
  }
  // Smallest q with T_u/q < d_p  <=>  q > T_u/d_p.
  const std::int64_t q = Rational::floor_div(user_period.value(), deadline.value()) + 1;
  return user_period / Rational(q);
}

}  // namespace

DerivedTaskGraph derive_task_graph(const Network& net, const WcetMap& wcet,
                                   const DerivationOptions& opts) {
  std::string why;
  if (!net.in_schedulable_subclass(&why)) {
    throw std::invalid_argument("task graph derivation: " + why);
  }
  const std::size_t n = net.process_count();
  if (n == 0) {
    throw std::invalid_argument("task graph derivation: network has no processes");
  }
  std::vector<Duration> wcets(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ProcessId p{i};
    const auto it = wcet.find(p);
    if (it == wcet.end()) {
      throw std::invalid_argument("task graph derivation: missing WCET for process '" +
                                  net.process(p).name + "'");
    }
    if (!it->second.is_positive()) {
      throw std::invalid_argument("task graph derivation: WCET of '" +
                                  net.process(p).name + "' must be positive");
    }
    wcets[i] = it->second;
  }

  DerivedTaskGraph out;

  // Buffered-channel extension: collect the process pairs connected
  // *exclusively* by buffered FIFOs — those pairs are exempt from the
  // serialization edge rule and get dataflow/buffer-reuse edges instead.
  // Pairs mixing buffered and single-slot channels stay fully serialized
  // (the single-slot channel requires it anyway).
  using Pair = std::pair<std::size_t, std::size_t>;  // (min, max) process ids
  std::map<Pair, bool> pair_has_single_slot;
  std::vector<ChannelId> buffered_channels;
  for (std::size_t c = 0; c < net.channel_count(); ++c) {
    const ChannelDecl& decl = net.channel(ChannelId{c});
    if (decl.scope != ChannelScope::kInternal) {
      continue;
    }
    const Pair key = std::minmax(decl.writer.value(), decl.reader.value());
    if (decl.is_buffered()) {
      buffered_channels.push_back(ChannelId{c});
      pair_has_single_slot.try_emplace(key, false);
    } else {
      pair_has_single_slot[key] = true;
    }
  }
  const auto buffered_only = [&](ProcessId a, ProcessId b) {
    const auto it = pair_has_single_slot.find(std::minmax(a.value(), b.value()));
    return it != pair_has_single_slot.end() && !it->second;
  };
  for (const ChannelId c : buffered_channels) {
    const ChannelDecl& decl = net.channel(c);
    const EventSpec& w = net.process(decl.writer).event;
    const EventSpec& r = net.process(decl.reader).event;
    if (w.kind != EventKind::kPeriodic || r.kind != EventKind::kPeriodic ||
        w.period != r.period || w.burst != r.burst) {
      throw std::invalid_argument(
          "task graph derivation: buffered channel '" + decl.name +
          "' requires periodic endpoints with equal period and burst");
    }
  }

  // ---- Step 1: PN' and FP'.
  std::vector<PrimeProcess> prime(n);
  Digraph fp_prime(n);
  for (const auto& [u, v] : net.priority_graph().edges()) {
    fp_prime.add_edge(u, v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ProcessId p{i};
    const EventSpec& spec = net.process(p).event;
    PrimeProcess& pp = prime[i];
    pp.burst = spec.burst;
    if (spec.kind == EventKind::kPeriodic) {
      pp.period = spec.period;
      pp.relative_deadline = spec.deadline;
      continue;
    }
    const std::optional<ProcessId> user = net.user_of(p);
    if (!user) {
      throw std::invalid_argument("task graph derivation: sporadic process '" +
                                  net.process(p).name + "' has no user");
    }
    const ProcessId u = *user;
    ServerInfo info;
    info.sporadic = p;
    info.user = u;
    info.burst = spec.burst;
    info.server_period = server_period_for(net.process(u).event.period, spec.deadline);
    info.corrected_deadline = spec.deadline - info.server_period;
    info.priority_over_user = net.has_priority(p, u);
    pp.is_server = true;
    pp.period = info.server_period;
    pp.relative_deadline = info.corrected_deadline;
    // Replace any p <-> u FP edge by the server rule p' -> u (the server
    // jobs must precede the user job arriving at the same boundary).
    fp_prime.remove_edge(NodeId(p.value()), NodeId(u.value()));
    fp_prime.remove_edge(NodeId(u.value()), NodeId(p.value()));
    fp_prime.add_edge(NodeId(p.value()), NodeId(u.value()));
    out.servers.emplace(p, info);
  }
  if (!is_acyclic(fp_prime)) {
    throw std::invalid_argument(
        "task graph derivation: FP' became cyclic after server substitution");
  }

  // Hyperperiod of PN' (footnote 4: rational lcm), including fractional
  // server periods.
  if (opts.unfolding < 1) {
    throw std::invalid_argument("task graph derivation: unfolding must be >= 1");
  }
  Duration h = prime[0].period;
  for (std::size_t i = 1; i < n; ++i) {
    h = Duration::lcm(h, prime[i].period);
  }
  // Pipelined extension: the schedule frame spans U hyperperiods.
  h = h * Rational(opts.unfolding);
  out.hyperperiod = h;

  // Count the jobs before anything per job is allocated: burst·H/T' per
  // process, exact because H is a multiple of every T'.
  std::size_t job_total = 0;
  std::vector<std::size_t> jobs_per_process(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Rational& hv = h.value();
    const Rational& tv = prime[i].period.value();
    const __int128 instants = static_cast<__int128>(hv.num()) * tv.den() /
                              (static_cast<__int128>(hv.den()) * tv.num());
    const bool too_many = instants > static_cast<__int128>(kMaxDerivedJobs);
    if (!too_many) {
      jobs_per_process[i] =
          static_cast<std::size_t>(instants) * static_cast<std::size_t>(prime[i].burst);
      job_total += jobs_per_process[i];
    }
    if (too_many || job_total > kMaxDerivedJobs) {
      throw std::invalid_argument("task graph derivation: the frame holds more than " +
                                  std::to_string(kMaxDerivedJobs) + " jobs");
    }
  }

  // Step 3's FP'-partners of every process, in successor-then-predecessor
  // order: buffered-only pairs are NOT serialized (their ordering comes
  // from the dataflow/buffer-reuse edges added below).
  std::vector<std::vector<std::size_t>> partners(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId pn(i);
    for (const auto* side : {&fp_prime.successors(pn), &fp_prime.predecessors(pn)}) {
      for (const NodeId q : *side) {
        if (!buffered_only(ProcessId{i}, ProcessId{q.value()})) {
          partners[i].push_back(q.value());
        }
      }
    }
  }

  // ---- Step 2: simulate the PN' invocation order over [0, H). All PN'
  // processes are periodic: a burst at 0, T', 2T', ... Slots sort by
  // (instant, process); one instant is one simultaneous group.
  struct Slot {
    Time at;
    std::size_t process;
  };
  std::vector<Slot> slots;
  slots.reserve(job_total);
  const Time frame_end = Time() + h;
  for (std::size_t i = 0; i < n; ++i) {
    for (Time t; t < frame_end; t += prime[i].period) {
      slots.push_back(Slot{t, i});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.at != b.at ? a.at < b.at : a.process < b.process;
  });

  TaskGraph tg(h);
  tg.reserve(job_total);
  // Generating edges, in insertion order: at most one same-process edge
  // and one per FP'-partner for every job, plus two per buffered-channel
  // writer job.
  std::vector<EdgePair> edges;
  {
    std::size_t bound = 0;
    for (std::size_t i = 0; i < n; ++i) {
      bound += jobs_per_process[i] * (1 + partners[i].size());
    }
    for (const ChannelId c : buffered_channels) {
      bound += 2 * jobs_per_process[net.channel(c).writer.value()];
    }
    edges.reserve(bound);
  }
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::int64_t> k_count(n, 0);
  // Latest job of each process so far: jobs are appended in <J order, so
  // it is also the latest preceding job of every FP'-partner.
  std::vector<std::uint32_t> last_job_of(n, kNone);
  std::vector<char> in_group(n, 0);
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::size_t> ready;  // min-heap of process ids
  std::vector<std::size_t> order;

  // Ordering inside a simultaneous group is the zero-delay order: the
  // min-id topological order of the FP' subgraph the group induces (order
  // among FP'-unrelated processes is semantically irrelevant).
  for (std::size_t first = 0, last = 0; first < slots.size(); first = last) {
    const Time& arrival = slots[first].at;
    while (last < slots.size() && slots[last].at == arrival) {
      in_group[slots[last++].process] = 1;
    }
    for (std::size_t s = first; s < last; ++s) {
      for (const NodeId q : fp_prime.successors(NodeId(slots[s].process))) {
        indegree[q.value()] += in_group[q.value()];
      }
    }
    ready.clear();
    for (std::size_t s = first; s < last; ++s) {
      if (indegree[slots[s].process] == 0) {
        ready.push_back(slots[s].process);  // ascending, hence a min-heap
      }
    }
    order.clear();
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end(), std::greater<>());
      const std::size_t p = ready.back();
      ready.pop_back();
      order.push_back(p);
      for (const NodeId q : fp_prime.successors(NodeId(p))) {
        if (in_group[q.value()] != 0 && --indegree[q.value()] == 0) {
          ready.push_back(q.value());
          std::push_heap(ready.begin(), ready.end(), std::greater<>());
        }
      }
    }
    if (order.size() != last - first) {
      throw std::logic_error("task graph derivation: FP' cycle inside group");
    }
    for (std::size_t s = first; s < last; ++s) {
      in_group[slots[s].process] = 0;
    }

    for (const std::size_t p : order) {
      const PrimeProcess& pp = prime[p];
      const std::string& process_name = net.process(ProcessId{p}).name;
      for (int b = 0; b < pp.burst; ++b) {
        const std::int64_t k = ++k_count[p];
        // ---- Step 4: job parameters; the arrival T'·floor((k-1)/m) is
        // this group's instant.
        const std::int64_t window = (k - 1) / pp.burst;
        Time deadline = arrival + pp.relative_deadline;
        // ---- Truncation to the hyperperiod (non-pipelined frames).
        if (opts.truncate_deadlines) {
          deadline = std::min(deadline, frame_end);
        }
        Job job;
        job.process = ProcessId{p};
        job.k = k;
        job.arrival = arrival;
        job.deadline = deadline;
        job.wcet = wcets[p];
        job.is_server = pp.is_server;
        job.subset = pp.is_server ? window + 1 : 0;
        // "<process>[k]", built in place.
        char digits[24];
        const auto digit_count = static_cast<std::size_t>(
            std::to_chars(digits, digits + sizeof(digits), k).ptr - digits);
        job.name.reserve(process_name.size() + digit_count + 2);
        job.name.append(process_name).append(1, '[');
        job.name.append(digits, digit_count).append(1, ']');
        const auto id = static_cast<std::uint32_t>(tg.add_job(std::move(job)).value());

        // ---- Step 3: precedence edges (generating subset whose
        // transitive closure equals the full <J x (|><| or same-process)
        // relation; the reduction below then yields the paper's graph).
        if (last_job_of[p] != kNone) {
          edges.emplace_back(last_job_of[p], id);  // same-process chain
        }
        for (const std::size_t q : partners[p]) {
          if (last_job_of[q] != kNone) {
            edges.emplace_back(last_job_of[q], id);
          }
        }
        last_job_of[p] = id;
      }
    }
  }
  std::vector<Slot>().swap(slots);

  // Buffered-channel dataflow and buffer-reuse edges: for capacity B,
  //   w[k] -> r[k]        (the k-th token must exist before it is read)
  //   r[k] -> w[k+B]      (slot reuse: the writer may lap the reader by
  //                        at most B tokens)
  // Equal rates guarantee equal job counts; frames do not overlap in the
  // non-pipelined policy, so per-frame edges suffice (use unfolding to
  // pipeline across hyperperiods).
  for (const ChannelId c : buffered_channels) {
    const ChannelDecl& decl = net.channel(c);
    if (!buffered_only(decl.writer, decl.reader)) {
      continue;  // a single-slot channel already fully serializes the pair
    }
    const auto w_jobs = tg.jobs_of(decl.writer);
    const auto r_jobs = tg.jobs_of(decl.reader);
    if (w_jobs.size() != r_jobs.size()) {
      throw std::logic_error("buffered channel endpoints derived unequal job counts");
    }
    const std::size_t cap = static_cast<std::size_t>(decl.capacity);
    const auto edge = [](JobId from, JobId to) {
      return EdgePair(static_cast<std::uint32_t>(from.value()),
                      static_cast<std::uint32_t>(to.value()));
    };
    for (std::size_t k = 0; k < w_jobs.size(); ++k) {
      edges.push_back(edge(w_jobs[k], r_jobs[k]));
      if (k + cap < w_jobs.size()) {
        edges.push_back(edge(r_jobs[k], w_jobs[k + cap]));
      }
    }
  }

  // ---- Step 5: transitive reduction, on the edge list: the surviving
  // edges are compacted in generation order and become the graph's CSR
  // arrays in one counting pass, so every adjacency list has the order
  // the generating edges gave it. edge_fates has dropped the repeats, so
  // the kept edges go in as one batch of new edges.
  const std::optional<std::vector<EdgeFate>> fates =
      edge_fates(tg.job_count(), edges, opts.transitive_reduce);
  if (!fates.has_value()) {
    throw std::logic_error("task graph derivation: buffer edges created a cycle");
  }
  std::size_t kept = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if ((*fates)[e] == EdgeFate::kKept) {
      edges[kept++] = edges[e];
    } else if ((*fates)[e] == EdgeFate::kRedundant) {
      ++out.edges_removed;
    }
  }
  edges.resize(kept);
  tg.add_new_edges(edges);
  out.edges_before_reduction = tg.edge_count() + out.edges_removed;
  out.graph = std::move(tg);
  return out;
}

DerivedTaskGraph derive_task_graph(const Network& net, Duration wcet,
                                   const DerivationOptions& opts) {
  WcetMap map;
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    map.emplace(ProcessId{i}, wcet);
  }
  return derive_task_graph(net, map, opts);
}

}  // namespace fppn
