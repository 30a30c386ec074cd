#include "taskgraph/task_graph.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace fppn {

JobId TaskGraph::add_job(Job job) {
  if (job.wcet.is_negative()) {
    throw std::invalid_argument("job '" + job.name + "': negative WCET");
  }
  if (job.deadline < job.arrival) {
    throw std::invalid_argument("job '" + job.name + "': deadline before arrival");
  }
  jobs_.push_back(std::move(job));
  preds_.emplace_back();
  succs_.emplace_back();
  return JobId(jobs_.size() - 1);
}

void TaskGraph::reserve(std::size_t jobs) {
  jobs_.reserve(jobs);
  preds_.reserve(jobs);
  succs_.reserve(jobs);
}

bool TaskGraph::add_edge(JobId from, JobId to) {
  check_job(from);
  check_job(to);
  if (from == to) {
    throw std::invalid_argument("task graph: self-loop rejected");
  }
  auto& out = succs_[from.value()];
  if (std::find(out.begin(), out.end(), to) != out.end()) {
    return false;
  }
  out.push_back(to);
  preds_[to.value()].push_back(from);
  ++edge_count_;
  return true;
}

void TaskGraph::add_new_edges(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  const std::size_t n = jobs_.size();
  std::vector<std::uint32_t> out_degree(n, 0);
  std::vector<std::uint32_t> in_degree(n, 0);
  for (const auto& [from, to] : edges) {
    if (from >= n || to >= n) {
      throw std::invalid_argument("task graph: job id out of range");
    }
    if (from == to) {
      throw std::invalid_argument("task graph: self-loop rejected");
    }
    ++out_degree[from];
    ++in_degree[to];
  }
  for (std::size_t i = 0; i < n; ++i) {
    succs_[i].reserve(succs_[i].size() + out_degree[i]);
    preds_[i].reserve(preds_[i].size() + in_degree[i]);
  }
  for (const auto& [from, to] : edges) {
    succs_[from].emplace_back(to);
    preds_[to].emplace_back(from);
  }
  edge_count_ += edges.size();
}

bool TaskGraph::remove_edge(JobId from, JobId to) {
  check_job(from);
  check_job(to);
  auto& out = succs_[from.value()];
  const auto it = std::find(out.begin(), out.end(), to);
  if (it == out.end()) {
    return false;
  }
  out.erase(it);
  auto& in = preds_[to.value()];
  in.erase(std::find(in.begin(), in.end(), from));
  --edge_count_;
  return true;
}

bool TaskGraph::has_edge(JobId from, JobId to) const {
  check_job(from);
  check_job(to);
  const auto& out = succs_[from.value()];
  return std::find(out.begin(), out.end(), to) != out.end();
}

const Job& TaskGraph::job(JobId id) const {
  if (!id.is_valid() || id.value() >= jobs_.size()) {
    throw std::invalid_argument("task graph: job id out of range");
  }
  return jobs_[id.value()];
}

Job& TaskGraph::job(JobId id) {
  if (!id.is_valid() || id.value() >= jobs_.size()) {
    throw std::invalid_argument("task graph: job id out of range");
  }
  return jobs_[id.value()];
}

void TaskGraph::check_job(JobId id) const {
  if (!id.is_valid() || id.value() >= jobs_.size()) {
    throw std::invalid_argument("task graph: job id out of range");
  }
}

const std::vector<JobId>& TaskGraph::predecessors(JobId id) const {
  check_job(id);
  return preds_[id.value()];
}

const std::vector<JobId>& TaskGraph::successors(JobId id) const {
  check_job(id);
  return succs_[id.value()];
}

std::vector<std::pair<JobId, JobId>> TaskGraph::edges() const {
  std::vector<std::pair<JobId, JobId>> result;
  result.reserve(edge_count_);
  for (std::size_t u = 0; u < succs_.size(); ++u) {
    for (const JobId v : succs_[u]) {
      result.emplace_back(JobId(u), v);
    }
  }
  return result;
}

std::optional<std::vector<JobId>> TaskGraph::topological_order() const {
  const std::size_t n = jobs_.size();
  std::vector<std::size_t> indegree(n);
  // Min-heap on job id, as topological_sort.
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = preds_[i].size();
    if (indegree[i] == 0) {
      ready.push_back(i);  // ascending, hence already a min-heap
    }
  }
  std::vector<JobId> order;
  order.reserve(n);
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    const std::size_t u = ready.back();
    ready.pop_back();
    order.emplace_back(u);
    for (const JobId v : succs_[u]) {
      if (--indegree[v.value()] == 0) {
        ready.push_back(v.value());
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;  // cycle
  }
  return order;
}

Digraph TaskGraph::precedence() const {
  Digraph g(jobs_.size());
  for (std::size_t u = 0; u < succs_.size(); ++u) {
    for (const JobId v : succs_[u]) {
      g.add_edge(NodeId(u), NodeId(v.value()));
    }
  }
  return g;
}

bool TaskGraph::is_acyclic() const { return topological_order().has_value(); }

std::size_t TaskGraph::transitive_reduce() {
  std::vector<EdgePair> list;
  list.reserve(edge_count_);
  for (const auto& [u, v] : edges()) {
    list.emplace_back(static_cast<std::uint32_t>(u.value()),
                      static_cast<std::uint32_t>(v.value()));
  }
  const auto fates = edge_fates(jobs_.size(), list, /*reduce=*/true);
  if (!fates.has_value()) {
    throw std::invalid_argument("transitive reduction requires a DAG");
  }
  std::size_t removed = 0;
  for (std::size_t e = 0; e < list.size(); ++e) {
    if ((*fates)[e] == EdgeFate::kRedundant) {
      remove_edge(JobId(list[e].first), JobId(list[e].second));
      ++removed;
    }
  }
  return removed;
}

std::optional<JobId> TaskGraph::find(const std::string& name) const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].name == name) {
      return JobId(i);
    }
  }
  return std::nullopt;
}

std::vector<JobId> TaskGraph::jobs_of(ProcessId p) const {
  std::vector<JobId> out;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].process == p) {
      out.emplace_back(i);
    }
  }
  return out;
}

Duration TaskGraph::total_work() const {
  Duration total;
  for (const Job& j : jobs_) {
    total += j.wcet;
  }
  return total;
}

std::string TaskGraph::to_dot() const {
  const auto label = [this](NodeId n) {
    const Job& j = jobs_[n.value()];
    return j.name + "\\n(" + j.arrival.to_string() + "," + j.deadline.to_string() +
           "," + j.wcet.to_string() + ")";
  };
  return fppn::to_dot(precedence(), label, "taskgraph");
}

std::string TaskGraph::to_table() const {
  std::ostringstream os;
  os << "job                A      D      C    successors\n";
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& j = jobs_[i];
    os << j.name;
    for (std::size_t pad = j.name.size(); pad < 18; ++pad) {
      os << ' ';
    }
    std::string a = j.arrival.to_string();
    std::string d = j.deadline.to_string();
    std::string c = j.wcet.to_string();
    os << a << std::string(a.size() < 7 ? 7 - a.size() : 1, ' ') << d
       << std::string(d.size() < 7 ? 7 - d.size() : 1, ' ') << c
       << std::string(c.size() < 5 ? 5 - c.size() : 1, ' ');
    bool first = true;
    for (const JobId s : successors(JobId(i))) {
      os << (first ? "" : ", ") << jobs_[s.value()].name;
      first = false;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace fppn
