#include "testing/reference_derivation.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fppn/semantics.hpp"
#include "graph/algorithms.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn {
namespace testing {
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

/// Derivation step 5 on a Digraph copy: the edges fppn::transitive_reduction
/// drops are removed from `tg`, which keeps the order of the others.
std::size_t transitive_reduce(TaskGraph& tg) {
  Digraph reduced = tg.precedence();
  const std::size_t removed = transitive_reduction(reduced);
  for (const auto& [u, v] : tg.edges()) {
    if (!reduced.has_edge(NodeId(u.value()), NodeId(v.value()))) {
      tg.remove_edge(u, v);
    }
  }
  return removed;
}


std::string job_text(const Job& j) {
  std::ostringstream os;
  os << j.name << " p" << j.process.value() << " k" << j.k << " A" << j.arrival.value()
     << " D" << j.deadline.value() << " C" << j.wcet.value() << " s" << j.is_server
     << " sub" << j.subset;
  return os.str();
}

bool same_ids(JobIdRange a, JobIdRange b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::string ids(JobIdRange list) {
  std::string out;
  for (const JobId id : list) {
    out += std::to_string(id.value()) + " ";
  }
  return out;
}

}  // namespace

DerivedTaskGraph reference_derive_task_graph(const Network& net, const WcetMap& wcet,
                                             const DerivationOptions& opts) {
  std::string why;
  if (!net.in_schedulable_subclass(&why)) {
    throw std::invalid_argument("task graph derivation: " + why);
  }
  const std::size_t n = net.process_count();
  if (n == 0) {
    throw std::invalid_argument("task graph derivation: network has no processes");
  }
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

  // ---- Step 2: simulate the PN' invocation order over [0, H).
  // All PN' processes are periodic: bursts at 0, T', 2T', ...
  std::map<Time, std::vector<ProcessId>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const ProcessId p{i};
    for (Time t; t < Time() + h; t += prime[i].period) {
      auto& g = groups[t];
      for (int b = 0; b < prime[i].burst; ++b) {
        g.push_back(p);
      }
    }
  }

  TaskGraph tg(h);
  std::vector<std::int64_t> k_count(n, 0);
  std::vector<JobId> last_job_of(n);  // latest job of each process so far
  // For the FP'-pair edge rule we need, per job, the latest preceding job
  // of every FP'-partner; last_job_of provides exactly that because jobs
  // are appended in <J order.
  const Digraph& fpp = fp_prime;

  // Ordering inside a simultaneous group is the zero-delay order: FP'
  // topological, deterministic tie-break by process id (order among
  // FP'-unrelated processes is semantically irrelevant).
  for (const auto& [t, multiset] : groups) {
    // Count multiplicities and topologically order distinct processes.
    std::map<ProcessId, int> mult;
    for (const ProcessId p : multiset) {
      ++mult[p];
    }
    std::vector<NodeId> subset;
    subset.reserve(mult.size());
    for (const auto& [p, c] : mult) {
      (void)c;
      subset.push_back(NodeId(p.value()));
    }
    const auto order = topological_sort_subset(
        fpp, subset, [](NodeId a, NodeId b) { return a < b; });
    if (!order.has_value()) {
      throw std::logic_error("task graph derivation: FP' cycle inside group");
    }
    for (const NodeId node : *order) {
      const ProcessId p{node.value()};
      const PrimeProcess& pp = prime[p.value()];
      for (int b = 0; b < mult[p]; ++b) {
        const std::int64_t k = ++k_count[p.value()];
        // ---- Step 4: job parameters.
        const std::int64_t window = (k - 1) / pp.burst;
        const Time arrival = Time() + pp.period * Rational(window);
        Time deadline = arrival + pp.relative_deadline;
        // ---- Truncation to the hyperperiod (non-pipelined frames).
        if (opts.truncate_deadlines) {
          deadline = std::min(deadline, Time() + h);
        }
        Job job;
        job.process = p;
        job.k = k;
        job.arrival = arrival;
        job.deadline = deadline;
        job.wcet = wcet.at(p);
        job.is_server = pp.is_server;
        job.subset = pp.is_server ? window + 1 : 0;
        job.name = net.process(p).name + "[" + std::to_string(k) + "]";
        const JobId id = tg.add_job(job);

        // ---- Step 3: precedence edges (generating subset whose
        // transitive closure equals the full <J x (|><| or same-process)
        // relation; the reduction below then yields the paper's graph).
        if (last_job_of[p.value()].is_valid()) {
          tg.add_edge(last_job_of[p.value()], id);  // same-process chain
        }
        const NodeId pn(p.value());
        const auto link_partner = [&](NodeId q) {
          // Buffered-only pairs are NOT serialized: their ordering comes
          // from the dataflow/buffer-reuse edges added below.
          if (buffered_only(p, ProcessId{q.value()})) {
            return;
          }
          const JobId prev = last_job_of[q.value()];
          if (prev.is_valid()) {
            tg.add_edge(prev, id);
          }
        };
        for (const NodeId q : fpp.successors(pn)) {
          link_partner(q);
        }
        for (const NodeId q : fpp.predecessors(pn)) {
          link_partner(q);
        }
        last_job_of[p.value()] = id;
      }
    }
  }

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
    for (std::size_t k = 0; k < w_jobs.size(); ++k) {
      tg.add_edge(w_jobs[k], r_jobs[k]);
      if (k + cap < w_jobs.size()) {
        tg.add_edge(r_jobs[k], w_jobs[k + cap]);
      }
    }
  }
  if (!is_acyclic(tg.precedence())) {
    throw std::logic_error("task graph derivation: buffer edges created a cycle");
  }

  out.edges_before_reduction = tg.edge_count();
  // ---- Step 5: transitive reduction.
  if (opts.transitive_reduce) {
    out.edges_removed = transitive_reduce(tg);
  }
  out.graph = std::move(tg);
  return out;
}

std::string derivation_difference(const DerivedTaskGraph& got,
                                  const DerivedTaskGraph& want) {
  const TaskGraph& g = got.graph;
  const TaskGraph& w = want.graph;
  if (g.job_count() != w.job_count()) {
    return "job count " + std::to_string(g.job_count()) + " vs " +
           std::to_string(w.job_count());
  }
  for (std::size_t i = 0; i < g.job_count(); ++i) {
    const JobId id(i);
    // Rationals are normalized, so equal values print equal num/den.
    if (job_text(g.job(id)) != job_text(w.job(id))) {
      return "job " + std::to_string(i) + ": " + job_text(g.job(id)) + " vs " +
             job_text(w.job(id));
    }
    if (!same_ids(g.successors(id), w.successors(id))) {
      return "successors of " + std::to_string(i) + ": " + ids(g.successors(id)) + "vs " +
             ids(w.successors(id));
    }
    if (!same_ids(g.predecessors(id), w.predecessors(id))) {
      return "predecessors of " + std::to_string(i) + ": " + ids(g.predecessors(id)) +
             "vs " + ids(w.predecessors(id));
    }
  }
  if (g.edge_count() != w.edge_count()) {
    return "edge count";
  }
  if (g.hyperperiod() != w.hyperperiod() || got.hyperperiod != want.hyperperiod) {
    return "hyperperiod";
  }
  if (got.edges_before_reduction != want.edges_before_reduction) {
    return "edges_before_reduction " + std::to_string(got.edges_before_reduction) + " vs " +
           std::to_string(want.edges_before_reduction);
  }
  if (got.edges_removed != want.edges_removed) {
    return "edges_removed";
  }
  if (got.servers.size() != want.servers.size()) {
    return "server count";
  }
  for (const auto& [p, a] : got.servers) {
    const auto it = want.servers.find(p);
    if (it == want.servers.end()) {
      return "server of process " + std::to_string(p.value());
    }
    const ServerInfo& b = it->second;
    if (a.sporadic != b.sporadic || a.user != b.user || a.burst != b.burst ||
        a.server_period != b.server_period || a.corrected_deadline != b.corrected_deadline ||
        a.priority_over_user != b.priority_over_user) {
      return "server info of process " + std::to_string(p.value());
    }
  }
  if (g.to_table() != w.to_table()) {
    return "to_table";
  }
  if (fingerprint(g) != fingerprint(w)) {
    return "fingerprint";
  }
  return "";
}

}  // namespace testing
}  // namespace fppn
