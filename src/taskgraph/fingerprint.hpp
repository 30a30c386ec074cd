// Canonical 64-bit content fingerprint of a task graph — the identity key
// of the schedule cache (sched/schedule_cache.hpp).
//
// The fingerprint covers everything a scheduling strategy can observe:
// every job's position, process, invocation index, arrival, deadline,
// WCET, server flags and display name; every precedence edge; the
// hyperperiod; and the job/edge counts. Two graphs that schedule
// identically under every strategy hash equal; changing any observable
// field changes the hash (collision-tested in fingerprint_test.cpp).
//
// The hash is order-independent in the *construction* sense: per-job and
// per-edge digests are combined commutatively, so the same graph built by
// adding edges in a different order fingerprints identically. Job indices
// (JobId values) ARE part of each job digest — permuting jobs produces a
// different graph (schedules address jobs by index) and a different
// fingerprint.
//
// The byte encoding is a frozen contract. Cache file names and entry
// headers are spelled from the value and outlive any one binary, so a
// changed bit orphans every entry a deployed cache holds. Each job's
// digest is FNV-1a over its fields, every integer as 8 little-endian
// bytes (rationals as numerator then denominator), the name as its
// length then its bytes; each edge's digest is FNV-1a over (from, to).
// Every digest goes through a splitmix64 scramble into a wrapping sum,
// and one final FNV-1a chain covers the job and edge counts, the
// hyperperiod and the two sums. The digests are independent and the sum
// is commutative, so the implementation runs several FNV chains in
// lockstep, one job or edge per lane; each lane sees exactly the bytes a
// serial chain would. testing/reference_fingerprint.hpp keeps the
// byte-serial encoding as the oracle, and tests/fingerprint_test.cpp pins
// recorded digests.
//
// Deterministic: a pure function of the graph contents; stable across
// runs, processes and platforms (no pointer or locale dependence).
// Thread safety: safe to call concurrently on the same graph (read-only).
#pragma once

#include <cstdint>
#include <string>

#include "taskgraph/task_graph.hpp"

namespace fppn {

/// FNV-1a-style 64-bit digest of `tg`; see the header comment for the
/// exact coverage. Never throws.
[[nodiscard]] std::uint64_t fingerprint(const TaskGraph& tg);

/// Fixed-width lowercase hex rendering ("00ff03...", 16 chars) — the
/// spelling used in cache file names and cache entry headers.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);

/// Inverse of fingerprint_hex. Throws std::invalid_argument unless `text`
/// is exactly 16 lowercase hex digits.
[[nodiscard]] std::uint64_t parse_fingerprint_hex(const std::string& text);

}  // namespace fppn
