#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

namespace fppn {
namespace {

Digraph diamond() {
  Digraph g(4);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(0), NodeId(2));
  g.add_edge(NodeId(1), NodeId(3));
  g.add_edge(NodeId(2), NodeId(3));
  return g;
}

TEST(TopologicalSort, DiamondDeterministic) {
  const auto order = topological_sort(diamond());
  ASSERT_TRUE(order.has_value());
  const std::vector<NodeId> expected = {NodeId(0), NodeId(1), NodeId(2), NodeId(3)};
  EXPECT_EQ(*order, expected);  // smaller id first among ready nodes
}

TEST(TopologicalSort, DetectsCycle) {
  Digraph g(2);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(0));
  EXPECT_FALSE(topological_sort(g).has_value());
  EXPECT_FALSE(is_acyclic(g));
}

TEST(TopologicalSort, EmptyGraph) {
  const Digraph g;
  const auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

TEST(TopologicalSortSubset, RespectsInducedEdges) {
  Digraph g(4);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  // Subset {2, 1}: edge 1 -> 2 is induced, so 1 must come first.
  const auto order = topological_sort_subset(
      g, {NodeId(2), NodeId(1)}, [](NodeId a, NodeId b) { return a < b; });
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ((*order)[0], NodeId(1));
  EXPECT_EQ((*order)[1], NodeId(2));
}

TEST(TopologicalSortSubset, TieBreakIsCallerControlled) {
  Digraph g(3);  // no edges: pure tie-break
  const std::vector<NodeId> subset = {NodeId(0), NodeId(1), NodeId(2)};
  const auto fwd =
      topological_sort_subset(g, subset, [](NodeId a, NodeId b) { return a < b; });
  const auto rev =
      topological_sort_subset(g, subset, [](NodeId a, NodeId b) { return a > b; });
  ASSERT_TRUE(fwd.has_value());
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ((*fwd)[0], NodeId(0));
  EXPECT_EQ((*rev)[0], NodeId(2));
}

TEST(Reachability, Diamond) {
  const Reachability r(diamond());
  EXPECT_TRUE(r.reaches(NodeId(0), NodeId(3)));
  EXPECT_TRUE(r.reaches(NodeId(0), NodeId(1)));
  EXPECT_FALSE(r.reaches(NodeId(3), NodeId(0)));
  EXPECT_FALSE(r.reaches(NodeId(1), NodeId(2)));
  EXPECT_FALSE(r.reaches(NodeId(0), NodeId(0)));  // length >= 1 paths only
}

TEST(Reachability, CycleThrows) {
  Digraph g(2);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(0));
  EXPECT_THROW(Reachability{g}, std::invalid_argument);
}

TEST(TransitiveReduction, RemovesShortcut) {
  Digraph g(3);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  g.add_edge(NodeId(0), NodeId(2));  // redundant
  EXPECT_EQ(transitive_reduction(g), 1u);
  EXPECT_FALSE(g.has_edge(NodeId(0), NodeId(2)));
  EXPECT_TRUE(g.has_edge(NodeId(0), NodeId(1)));
  EXPECT_TRUE(g.has_edge(NodeId(1), NodeId(2)));
}

TEST(TransitiveReduction, DiamondKeepsAllEdges) {
  Digraph g = diamond();
  EXPECT_EQ(transitive_reduction(g), 0u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(TransitiveReduction, LongChainWithManyShortcuts) {
  const std::size_t n = 30;
  Digraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      g.add_edge(NodeId(i), NodeId(j));  // complete DAG
    }
  }
  transitive_reduction(g);
  EXPECT_EQ(g.edge_count(), n - 1);  // only the chain survives
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(g.has_edge(NodeId(i), NodeId(i + 1)));
  }
}

TEST(TransitiveReduction, PreservesReachability) {
  Digraph g(6);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(0), NodeId(2));
  g.add_edge(NodeId(1), NodeId(3));
  g.add_edge(NodeId(2), NodeId(3));
  g.add_edge(NodeId(0), NodeId(3));  // redundant
  g.add_edge(NodeId(3), NodeId(4));
  g.add_edge(NodeId(1), NodeId(4));  // redundant
  g.add_edge(NodeId(4), NodeId(5));
  const Reachability before(g);
  transitive_reduction(g);
  const Reachability after(g);
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_EQ(before.reaches(NodeId(u), NodeId(v)),
                after.reaches(NodeId(u), NodeId(v)))
          << u << " -> " << v;
    }
  }
}

TEST(EdgeFates, RepeatsCountOnceAndTheFirstWins) {
  const std::vector<EdgePair> edges = {{0, 1}, {1, 2}, {0, 1}, {0, 2}, {1, 2}};
  const auto fates = edge_fates(3, edges, /*reduce=*/false);
  ASSERT_TRUE(fates.has_value());
  const std::vector<EdgeFate> expected = {EdgeFate::kKept, EdgeFate::kKept,
                                          EdgeFate::kRepeat, EdgeFate::kKept,
                                          EdgeFate::kRepeat};
  EXPECT_EQ(*fates, expected);
  const auto reduced = edge_fates(3, edges, /*reduce=*/true);
  ASSERT_TRUE(reduced.has_value());
  EXPECT_EQ((*reduced)[3], EdgeFate::kRedundant);  // 0 -> 1 -> 2
}

TEST(EdgeFates, CyclesAndSelfLoopsAreRejected) {
  EXPECT_FALSE(edge_fates(3, {{0, 1}, {1, 2}, {2, 0}}, true).has_value());
  EXPECT_FALSE(edge_fates(3, {{0, 1}, {1, 2}, {2, 0}}, false).has_value());
  EXPECT_FALSE(edge_fates(2, {{1, 1}}, true).has_value());
  EXPECT_TRUE(edge_fates(0, {}, true).has_value());
}

TEST(EdgeFates, ReachesThroughEdgesThatPointToSmallerIds) {
  // 2 -> 1 is redundant only through 0, the smallest id: reachability
  // has to be filled in topological order, not in reverse id order.
  const auto fates = edge_fates(3, {{2, 0}, {0, 1}, {2, 1}}, true);
  ASSERT_TRUE(fates.has_value());
  const std::vector<EdgeFate> expected = {EdgeFate::kKept, EdgeFate::kKept,
                                          EdgeFate::kRedundant};
  EXPECT_EQ(*fates, expected);
}

TEST(EdgeFates, AgreesWithTransitiveReductionOnRandomDags) {
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 2 + next() % 40;
    // A random DAG over a random relabelling, so edges point both ways in
    // id order; every edge is listed twice somewhere.
    std::vector<std::uint32_t> label(n);
    for (std::size_t i = 0; i < n; ++i) {
      label[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(label[i], label[next() % (i + 1)]);
    }
    std::vector<EdgePair> edges;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (next() % 4 == 0) {
          edges.emplace_back(label[i], label[j]);
        }
      }
    }
    const std::size_t unique = edges.size();
    for (std::size_t e = 0; e < unique; ++e) {
      const EdgePair repeat = edges[next() % unique];
      edges.push_back(repeat);
    }
    Digraph g(n);
    for (const auto& [u, v] : edges) {
      g.add_edge(NodeId(u), NodeId(v));
    }
    transitive_reduction(g);
    const auto fates = edge_fates(n, edges, true);
    ASSERT_TRUE(fates.has_value());
    std::size_t kept = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if ((*fates)[e] == EdgeFate::kKept) {
        ++kept;
        EXPECT_TRUE(g.has_edge(NodeId(edges[e].first), NodeId(edges[e].second)))
            << "round " << round;
      }
    }
    EXPECT_EQ(kept, g.edge_count()) << "round " << round;
  }
}

TEST(EdgeFates, AgreesWithTransitiveReductionOnWideBandedDags) {
  // Reachability rows span many 64-bit words (the random DAGs above fit
  // in one): mostly short edges, a band in topological order as in a
  // derived task graph, a few long ones, chains across word boundaries,
  // and every other round relabelled ids.
  std::uint64_t state = 777;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 60 + next() % 400;
    const std::size_t band = 1 + next() % 90;
    std::vector<std::uint32_t> label(n);
    for (std::size_t i = 0; i < n; ++i) {
      label[i] = static_cast<std::uint32_t>(i);
    }
    if (round % 2 == 1) {
      for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(label[i], label[next() % (i + 1)]);
      }
    }
    std::vector<EdgePair> edges;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t out = next() % 4;
      for (std::size_t k = 0; k < out; ++k) {
        const std::size_t reach = next() % 10 == 0 ? n : band;
        const std::size_t j = i + 1 + next() % reach;
        if (j < n) {
          edges.emplace_back(label[i], label[j]);
        }
      }
    }
    Digraph g(n);
    for (const auto& [u, v] : edges) {
      g.add_edge(NodeId(u), NodeId(v));
    }
    transitive_reduction(g);
    const auto fates = edge_fates(n, edges, true);
    ASSERT_TRUE(fates.has_value());
    std::size_t kept = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const bool in_reduced = g.has_edge(NodeId(edges[e].first), NodeId(edges[e].second));
      if ((*fates)[e] == EdgeFate::kKept) {
        ++kept;
        EXPECT_TRUE(in_reduced) << "round " << round << " edge " << e;
      } else if ((*fates)[e] == EdgeFate::kRedundant) {
        EXPECT_FALSE(in_reduced) << "round " << round << " edge " << e;
      }
    }
    EXPECT_EQ(kept, g.edge_count()) << "round " << round;
  }
}

TEST(ToDot, ContainsNodesAndEdges) {
  const Digraph g = diamond();
  const std::string dot =
      to_dot(g, [](NodeId n) { return "n" + std::to_string(n.value()); }, "test");
  EXPECT_NE(dot.find("digraph test"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"n3\""), std::string::npos);
}

}  // namespace
}  // namespace fppn
