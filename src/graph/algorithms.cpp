#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace fppn {

std::optional<std::vector<NodeId>> topological_sort(const Digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> indegree(n);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = g.in_degree(NodeId(i));
  }
  // Min-heap on node id for deterministic output.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push(i);
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t u = ready.top();
    ready.pop();
    order.push_back(NodeId(u));
    for (const NodeId v : g.successors(NodeId(u))) {
      if (--indegree[v.value()] == 0) {
        ready.push(v.value());
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;  // cycle
  }
  return order;
}

std::optional<std::vector<NodeId>> topological_sort_subset(
    const Digraph& g, const std::vector<NodeId>& subset,
    const std::function<bool(NodeId, NodeId)>& prefer) {
  // Map subset nodes to local indices.
  std::unordered_map<NodeId, std::size_t> local;
  local.reserve(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    local.emplace(subset[i], i);
  }
  std::vector<std::size_t> indegree(subset.size(), 0);
  for (const NodeId u : subset) {
    for (const NodeId v : g.successors(u)) {
      if (const auto it = local.find(v); it != local.end()) {
        ++indegree[it->second];
      }
    }
  }
  const auto cmp = [&](NodeId a, NodeId b) {
    // std::priority_queue is a max-heap; invert to pop the preferred first.
    if (prefer(a, b) != prefer(b, a)) {
      return !prefer(a, b);
    }
    return a > b;
  };
  std::priority_queue<NodeId, std::vector<NodeId>, decltype(cmp)> ready(cmp);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (indegree[i] == 0) {
      ready.push(subset[i]);
    }
  }
  std::vector<NodeId> order;
  order.reserve(subset.size());
  while (!ready.empty()) {
    const NodeId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (const NodeId v : g.successors(u)) {
      if (const auto it = local.find(v); it != local.end()) {
        if (--indegree[it->second] == 0) {
          ready.push(v);
        }
      }
    }
  }
  if (order.size() != subset.size()) {
    return std::nullopt;
  }
  return order;
}

bool is_acyclic(const Digraph& g) { return topological_sort(g).has_value(); }

Reachability::Reachability(const Digraph& g) {
  const std::size_t n = g.node_count();
  const std::size_t words = (n + kBits - 1) / kBits;
  rows_.assign(n, std::vector<std::uint64_t>(words, 0));
  const auto order = topological_sort(g);
  if (!order) {
    throw std::invalid_argument("reachability requires a DAG");
  }
  // Process in reverse topological order: row(u) = union of successor rows
  // plus the successor bits themselves.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const std::size_t u = it->value();
    for (const NodeId v : g.successors(NodeId(u))) {
      set(u, v.value());
      const auto& vrow = rows_[v.value()];
      auto& urow = rows_[u];
      for (std::size_t w = 0; w < words; ++w) {
        urow[w] |= vrow[w];
      }
    }
  }
}

void Reachability::set(std::size_t u, std::size_t v) {
  rows_[u][v / kBits] |= (std::uint64_t{1} << (v % kBits));
}

bool Reachability::get(std::size_t u, std::size_t v) const {
  return (rows_[u][v / kBits] >> (v % kBits)) & 1U;
}

bool Reachability::reaches(NodeId from, NodeId to) const {
  if (!from.is_valid() || !to.is_valid() || from.value() >= rows_.size() ||
      to.value() >= rows_.size()) {
    throw std::invalid_argument("reachability: node id out of range");
  }
  return get(from.value(), to.value());
}

std::size_t transitive_reduction(Digraph& g) {
  if (!is_acyclic(g)) {
    throw std::invalid_argument("transitive reduction requires a DAG");
  }
  // Edge (u, v) is redundant iff some other successor w of u reaches v.
  // Compute reachability once on the original graph: removing redundant
  // edges never changes reachability, so the matrix stays valid.
  const Reachability reach(g);
  std::size_t removed = 0;
  for (const auto& [u, v] : g.edges()) {
    bool redundant = false;
    for (const NodeId w : g.successors(u)) {
      if (w != v && reach.reaches(w, v)) {
        redundant = true;
        break;
      }
    }
    if (redundant) {
      g.remove_edge(u, v);
      ++removed;
    }
  }
  return removed;
}

std::optional<std::vector<EdgeFate>> edge_fates(std::size_t node_count,
                                                const std::vector<EdgePair>& edges,
                                                bool reduce) {
  const std::size_t n = node_count;
  // Out-adjacency as CSR over edge indices, each source's edges in list
  // order; a per-target stamp marks the repeats.
  std::vector<std::uint32_t> start(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++start[u + 1];
  }
  for (std::size_t u = 0; u < n; ++u) {
    start[u + 1] += start[u];
  }
  std::vector<std::uint32_t> out(edges.size());
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      out[fill[edges[e].first]++] = static_cast<std::uint32_t>(e);
    }
  }
  std::vector<EdgeFate> fate(edges.size(), EdgeFate::kRepeat);
  std::vector<std::uint32_t> indegree(n, 0);
  {
    std::vector<std::size_t> linked_from(n, n);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::uint32_t k = start[u]; k < start[u + 1]; ++k) {
        const std::uint32_t v = edges[out[k]].second;
        if (linked_from[v] != u) {
          linked_from[v] = u;
          fate[out[k]] = EdgeFate::kKept;
          ++indegree[v];
        }
      }
    }
  }

  std::vector<std::uint32_t> order;
  order.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (indegree[u] == 0) {
      order.push_back(static_cast<std::uint32_t>(u));
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t u = order[head];
    for (std::uint32_t k = start[u]; k < start[u + 1]; ++k) {
      const std::uint32_t v = edges[out[k]].second;
      if (fate[out[k]] == EdgeFate::kKept && --indegree[v] == 0) {
        order.push_back(v);
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;
  }
  if (!reduce) {
    return fate;
  }

  // reach[u]: the nodes a path of length >= 1 leads to from u. In reverse
  // topological order, the union of u's successors' rows is what paths of
  // length >= 2 reach: an edge (u, v) with v in it is redundant.
  constexpr std::size_t kBits = 64;
  const std::size_t words = (n + kBits - 1) / kBits;
  std::vector<std::uint64_t> reach(n * words, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint64_t* row = &reach[*it * words];
    for (std::uint32_t k = start[*it]; k < start[*it + 1]; ++k) {
      if (fate[out[k]] == EdgeFate::kKept) {
        const std::uint64_t* vrow = &reach[edges[out[k]].second * words];
        for (std::size_t w = 0; w < words; ++w) {
          row[w] |= vrow[w];
        }
      }
    }
    for (std::uint32_t k = start[*it]; k < start[*it + 1]; ++k) {
      const std::uint32_t v = edges[out[k]].second;
      if (fate[out[k]] != EdgeFate::kKept) {
        continue;
      }
      const std::uint64_t bit = std::uint64_t{1} << (v % kBits);
      if ((row[v / kBits] & bit) != 0) {
        fate[out[k]] = EdgeFate::kRedundant;
      }
    }
    for (std::uint32_t k = start[*it]; k < start[*it + 1]; ++k) {
      const std::uint32_t v = edges[out[k]].second;
      row[v / kBits] |= std::uint64_t{1} << (v % kBits);
    }
  }
  return fate;
}

std::string to_dot(const Digraph& g, const std::function<std::string(NodeId)>& label,
                   const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n";
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    os << "  n" << i << " [label=\"" << label(NodeId(i)) << "\"];\n";
  }
  for (const auto& [u, v] : g.edges()) {
    os << "  n" << u.value() << " -> n" << v.value() << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace fppn
