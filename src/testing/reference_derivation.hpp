// The task-graph derivation of §III-A as first written, kept as a test
// oracle. It builds the graph edge by edge and then removes the redundant
// edges:
//
//   step 2     a std::map from instant to the processes invoked there,
//              each group ordered by topological_sort_subset
//   step 3     TaskGraph::add_edge per generating edge, a std::map lookup
//              per FP'-partner for the buffered-only pair rule
//   step 5     acyclicity and fppn::transitive_reduction on a Digraph copy
//              of the graph, then TaskGraph::remove_edge per dropped edge
//
// Production (taskgraph/derivation.hpp) derives in one pass and adds each
// surviving edge once. Its contract is identity with this oracle: every
// job field, every predecessor and successor list in order, the server
// table, the hyperperiod, the edge counts and the fingerprint. The
// differential suite (tests/derivation_oracle_test.cpp) and the mutation
// sweep (tests/parser_mutation_test.cpp) compare the two. The oracle has
// no job bound (derivation.hpp's kMaxDerivedJobs): it allocates whatever
// the network asks for.
// Deterministic and stateless; safe to call concurrently.
#pragma once

#include <string>

#include "taskgraph/derivation.hpp"

namespace fppn {
namespace testing {

/// Derives the task graph; throws what derive_task_graph throws on a
/// network outside the schedulable subclass or with a missing/non-positive
/// WCET.
[[nodiscard]] DerivedTaskGraph reference_derive_task_graph(const Network& net,
                                                           const WcetMap& wcet,
                                                           const DerivationOptions& opts = {});

/// The first difference between two derivations, or "" when they agree on
/// every job field, every successor and predecessor list in order, the
/// edge count, the hyperperiod, edges_before_reduction, edges_removed,
/// the server table, to_table and the fingerprint.
[[nodiscard]] std::string derivation_difference(const DerivedTaskGraph& got,
                                                const DerivedTaskGraph& want);

}  // namespace testing
}  // namespace fppn
