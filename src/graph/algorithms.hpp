// Graph algorithms used across the library:
//  - Kahn topological sort (with deterministic tie-breaking) — zero-delay
//    semantics ordering and task-graph construction,
//  - cycle detection — functional-priority DAG validation (Def. 2.1),
//  - reachability / transitive closure — redundant-edge detection,
//  - transitive reduction — task-graph derivation step 5 (§III-A), on a
//    Digraph or, in one pass, on an edge list before any graph is built,
//  - DOT export for debugging and documentation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"

namespace fppn {

/// Topological order of all nodes, or std::nullopt if the graph is cyclic.
/// Among simultaneously-ready nodes, smaller NodeId first — the order is a
/// pure function of the graph, never of hash iteration order.
[[nodiscard]] std::optional<std::vector<NodeId>> topological_sort(const Digraph& g);

/// Topological order of a subset of nodes under the subgraph induced by
/// `subset` (edges with both endpoints in the subset). Tie-break: the
/// caller-provided strict weak ordering `prefer` (true when a should come
/// first), falling back to NodeId order. Returns nullopt on a cycle.
[[nodiscard]] std::optional<std::vector<NodeId>> topological_sort_subset(
    const Digraph& g, const std::vector<NodeId>& subset,
    const std::function<bool(NodeId, NodeId)>& prefer);

[[nodiscard]] bool is_acyclic(const Digraph& g);

/// Row-per-node reachability matrix: reach[u][v] == true iff a path of
/// length >= 1 exists from u to v. O(V*E/64) via bitset rows.
class Reachability {
 public:
  explicit Reachability(const Digraph& g);

  [[nodiscard]] bool reaches(NodeId from, NodeId to) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return rows_.size(); }

 private:
  static constexpr std::size_t kBits = 64;
  std::vector<std::vector<std::uint64_t>> rows_;
  void set(std::size_t u, std::size_t v);
  [[nodiscard]] bool get(std::size_t u, std::size_t v) const;
};

/// Removes every edge (u, v) for which another u->v path exists.
/// Precondition: g is a DAG (throws std::invalid_argument otherwise).
/// Returns the number of removed edges. This is task-graph derivation
/// step 5 in §III-A of the paper.
std::size_t transitive_reduction(Digraph& g);

/// One directed edge of an edge list, as dense (from, to) node indices.
using EdgePair = std::pair<std::uint32_t, std::uint32_t>;

/// What becomes of one listed edge when a graph is built from its list.
enum class EdgeFate : std::uint8_t {
  kRepeat,     ///< an earlier list entry has the same endpoints
  kRedundant,  ///< another successor of `from` reaches `to`
  kKept,
};

/// The fate of every edge of `edges` (endpoints < node_count) — the
/// transitive reduction of a DAG computed on its edge list, so the
/// reduced graph is built once, in list order, with no edge removal.
/// The first occurrence of an edge counts; with `reduce` false no edge is
/// redundant. One Kahn pass doubles as the acyclicity check: nullopt when
/// the edges form a cycle (a self-loop included). Reachability is a bitset
/// per node filled in reverse topological order, node_count²/8 bytes,
/// freed before returning. The rows are dense, node_count bits each: on
/// task graphs of a few hundred jobs the pass costs its per-edge walks,
/// not its row width, and rows trimmed to the positions their readers
/// test measured slower end to end. The transitive reduction of a DAG is
/// unique, so the result equals transitive_reduction's on the same graph.
[[nodiscard]] std::optional<std::vector<EdgeFate>> edge_fates(
    std::size_t node_count, const std::vector<EdgePair>& edges, bool reduce);

/// Graphviz text; `label(n)` supplies the node label.
[[nodiscard]] std::string to_dot(const Digraph& g,
                                 const std::function<std::string(NodeId)>& label,
                                 const std::string& graph_name = "g");

}  // namespace fppn
