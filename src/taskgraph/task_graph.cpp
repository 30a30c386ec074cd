#include "taskgraph/task_graph.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace fppn {
namespace {

constexpr std::uint32_t kNoJob = ~std::uint32_t{0};

/// Inserts `value` at the end of CSR row `row`.
void insert_last(std::vector<std::uint32_t>& offsets, std::vector<std::uint32_t>& ids,
                 std::size_t row, std::uint32_t value) {
  ids.insert(ids.begin() + offsets[row + 1], value);
  for (std::size_t r = row + 1; r < offsets.size(); ++r) {
    ++offsets[r];
  }
}

/// Erases the entry at position `at` of CSR row `row`.
void erase_at(std::vector<std::uint32_t>& offsets, std::vector<std::uint32_t>& ids,
              std::size_t row, std::uint32_t at) {
  ids.erase(ids.begin() + at);
  for (std::size_t r = row + 1; r < offsets.size(); ++r) {
    --offsets[r];
  }
}

/// Appends a batch to the CSR rows: entry e goes to the end of row
/// row_of(e) as value_of(e), in batch order. Rows only move right, so the
/// old rows shift in place from the last one down; `cursor` is scratch of
/// offsets.size() entries.
template <class RowOf, class ValueOf>
void append_batch(std::vector<std::uint32_t>& offsets, std::vector<std::uint32_t>& ids,
                  std::vector<std::uint32_t>& cursor, std::size_t batch, RowOf row_of,
                  ValueOf value_of) {
  const std::size_t rows = offsets.size() - 1;
  // cursor[r + 1]: the batch entries of rows <= r, once summed.
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::size_t e = 0; e < batch; ++e) {
    ++cursor[row_of(e) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    cursor[r + 1] += cursor[r];
  }
  const std::size_t old_size = ids.size();
  ids.resize(old_size + batch);
  if (old_size != 0) {
    for (std::size_t r = rows; r-- > 0;) {
      std::copy_backward(ids.begin() + offsets[r], ids.begin() + offsets[r + 1],
                         ids.begin() + offsets[r + 1] + cursor[r]);
    }
  }
  for (std::size_t r = 1; r <= rows; ++r) {
    offsets[r] += cursor[r];
  }
  // Fill each row's new tail back to front: cursor[r] starts at the end
  // of row r and steps back one slot per entry.
  for (std::size_t r = 0; r < rows; ++r) {
    cursor[r] = offsets[r + 1];
  }
  for (std::size_t e = batch; e-- > 0;) {
    ids[--cursor[row_of(e)]] = value_of(e);
  }
}

}  // namespace

JobId TaskGraph::add_job(Job job) {
  if (job.wcet.is_negative()) {
    throw std::invalid_argument("job '" + job.name + "': negative WCET");
  }
  if (job.deadline < job.arrival) {
    throw std::invalid_argument("job '" + job.name + "': deadline before arrival");
  }
  if (jobs_.size() >= kNoJob) {
    throw std::invalid_argument("task graph: more jobs than 32-bit ids");
  }
  jobs_.push_back(std::move(job));
  if (pred_offsets_.empty()) {
    pred_offsets_.push_back(0);
    succ_offsets_.push_back(0);
  }
  pred_offsets_.push_back(pred_offsets_.back());
  succ_offsets_.push_back(succ_offsets_.back());
  return JobId(jobs_.size() - 1);
}

void TaskGraph::reserve(std::size_t jobs) {
  jobs_.reserve(jobs);
  pred_offsets_.reserve(jobs + 1);
  succ_offsets_.reserve(jobs + 1);
}

bool TaskGraph::add_edge(JobId from, JobId to) {
  check_job(from);
  check_job(to);
  if (from == to) {
    throw std::invalid_argument("task graph: self-loop rejected");
  }
  if (has_edge(from, to)) {
    return false;
  }
  insert_last(succ_offsets_, succ_ids_, from.value(),
              static_cast<std::uint32_t>(to.value()));
  insert_last(pred_offsets_, pred_ids_, to.value(),
              static_cast<std::uint32_t>(from.value()));
  return true;
}

void TaskGraph::add_new_edges(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  const std::size_t n = jobs_.size();
  for (const auto& [from, to] : edges) {
    if (from >= n || to >= n) {
      throw std::invalid_argument("task graph: job id out of range");
    }
    if (from == to) {
      throw std::invalid_argument("task graph: self-loop rejected");
    }
  }
  if (edges.empty()) {
    return;
  }
  std::vector<std::uint32_t> cursor(n + 1);
  append_batch(
      succ_offsets_, succ_ids_, cursor, edges.size(),
      [&](std::size_t e) { return edges[e].first; },
      [&](std::size_t e) { return edges[e].second; });
  append_batch(
      pred_offsets_, pred_ids_, cursor, edges.size(),
      [&](std::size_t e) { return edges[e].second; },
      [&](std::size_t e) { return edges[e].first; });
}

bool TaskGraph::remove_edge(JobId from, JobId to) {
  check_job(from);
  check_job(to);
  const auto find_in = [](const std::vector<std::uint32_t>& offsets,
                          const std::vector<std::uint32_t>& ids, std::size_t row,
                          std::size_t value) {
    const auto first = ids.begin() + offsets[row];
    const auto last = ids.begin() + offsets[row + 1];
    return static_cast<std::uint32_t>(std::find(first, last, value) - ids.begin());
  };
  const std::uint32_t out = find_in(succ_offsets_, succ_ids_, from.value(), to.value());
  if (out == succ_offsets_[from.value() + 1]) {
    return false;
  }
  erase_at(succ_offsets_, succ_ids_, from.value(), out);
  erase_at(pred_offsets_, pred_ids_, to.value(),
           find_in(pred_offsets_, pred_ids_, to.value(), from.value()));
  return true;
}

bool TaskGraph::has_edge(JobId from, JobId to) const {
  check_job(from);
  check_job(to);
  const JobIdRange out = successors(from);
  return std::find(out.begin(), out.end(), to) != out.end();
}

const Job& TaskGraph::job(JobId id) const {
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

JobIdRange TaskGraph::predecessors(JobId id) const {
  check_job(id);
  const std::uint32_t* ids = pred_ids_.data();
  return {ids + pred_offsets_[id.value()], ids + pred_offsets_[id.value() + 1]};
}

JobIdRange TaskGraph::successors(JobId id) const {
  check_job(id);
  const std::uint32_t* ids = succ_ids_.data();
  return {ids + succ_offsets_[id.value()], ids + succ_offsets_[id.value() + 1]};
}

std::vector<std::pair<JobId, JobId>> TaskGraph::edges() const {
  std::vector<std::pair<JobId, JobId>> result;
  result.reserve(succ_ids_.size());
  for (std::size_t u = 0; u < jobs_.size(); ++u) {
    for (const JobId v : successors(JobId(u))) {
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
    indegree[i] = pred_offsets_[i + 1] - pred_offsets_[i];
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
    for (const JobId v : successors(JobId(u))) {
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
  for (std::size_t u = 0; u < jobs_.size(); ++u) {
    for (const JobId v : successors(JobId(u))) {
      g.add_edge(NodeId(u), NodeId(v.value()));
    }
  }
  return g;
}

bool TaskGraph::is_acyclic() const { return topological_order().has_value(); }

std::size_t TaskGraph::transitive_reduce() {
  // The successor array, read row by row, is an edge list in (from,
  // insertion) order; its fates index it position for position.
  const std::size_t n = jobs_.size();
  std::vector<EdgePair> list;
  list.reserve(succ_ids_.size());
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint32_t k = succ_offsets_[u]; k < succ_offsets_[u + 1]; ++k) {
      list.emplace_back(static_cast<std::uint32_t>(u), succ_ids_[k]);
    }
  }
  const auto fates = edge_fates(n, list, /*reduce=*/true);
  if (!fates.has_value()) {
    throw std::invalid_argument("transitive reduction requires a DAG");
  }
  // Each redundant edge is dropped from its source's row and its
  // target's row; the dropped sources of one target are stamped with it.
  std::vector<EdgePair> dropped;  // (to, from)
  for (std::size_t e = 0; e < list.size(); ++e) {
    if ((*fates)[e] == EdgeFate::kRedundant) {
      dropped.emplace_back(list[e].second, list[e].first);
    }
  }
  if (dropped.empty()) {
    return 0;
  }
  std::sort(dropped.begin(), dropped.end());
  const auto compact = [n](std::vector<std::uint32_t>& offsets,
                           std::vector<std::uint32_t>& ids, const auto& keep) {
    std::uint32_t kept = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint32_t first = offsets[r];
      offsets[r] = kept;
      for (std::uint32_t k = first; k < offsets[r + 1]; ++k) {
        if (keep(r, k)) {
          ids[kept++] = ids[k];
        }
      }
    }
    offsets[n] = kept;
    ids.resize(kept);
  };
  compact(succ_offsets_, succ_ids_, [&](std::size_t, std::uint32_t k) {
    return (*fates)[k] != EdgeFate::kRedundant;
  });
  std::vector<std::uint32_t> stamp(n, kNoJob);
  std::size_t next = 0;
  compact(pred_offsets_, pred_ids_, [&](std::size_t r, std::uint32_t k) {
    for (; next < dropped.size() && dropped[next].first == r; ++next) {
      stamp[dropped[next].second] = static_cast<std::uint32_t>(r);
    }
    return stamp[pred_ids_[k]] != r;
  });
  return dropped.size();
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
