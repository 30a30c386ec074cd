// The task-graph fingerprint as first written, kept as a test oracle: one
// byte-serial FNV-1a chain per job and per edge, over a copy of the edge
// list.
//
// Production (taskgraph/fingerprint.hpp) hashes several jobs and edges in
// lockstep. Its contract is identity with this function on every graph:
// the cache's file names and entry headers are spelled from the value,
// so a changed bit orphans every entry a deployed cache holds. The unit
// suite (tests/fingerprint_test.cpp) pins digests recorded from this
// encoding and compares the two on generated and hand-built graphs; the
// differential fuzz loop (gen/fuzz.cpp) compares them on every graph it
// derives.
// Deterministic and stateless; safe to call concurrently.
#pragma once

#include <cstdint>

#include "taskgraph/task_graph.hpp"

namespace fppn {
namespace testing {

/// The canonical 64-bit fingerprint of `tg`, computed byte by byte.
/// Never throws.
[[nodiscard]] std::uint64_t reference_fingerprint(const TaskGraph& tg);

}  // namespace testing
}  // namespace fppn
