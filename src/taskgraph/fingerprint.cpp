#include "taskgraph/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

namespace fppn {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Items hashed in lockstep. Each lane is one FNV-1a chain; a chain is
/// bound by its multiply latency, so interleaving independent chains
/// keeps the multiplier busy.
constexpr std::size_t kLanes = 4;

/// kPrimePow[k] = kFnvPrime^k (mod 2^64): FNV-1a steps over k zero bytes.
constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnvPrime;
  }
  return pow;
}();

/// kLanes FNV-1a states, each fed the byte-wise field encoding of its own
/// item: byte b of a u64 is (v >> 8b) & 0xff, low byte first, so every
/// lane ends on the digest one serial chain over the same bytes gives.
/// A zero byte's step is a bare multiply by the prime, so the high zero
/// bytes all lanes share are one multiply by a power of it.
struct Lanes {
  std::uint64_t h[kLanes];

  Lanes() {
    for (std::uint64_t& x : h) {
      x = kFnvOffset;
    }
  }
  void byte(std::size_t lane, unsigned char b) { h[lane] = (h[lane] ^ b) * kFnvPrime; }
  void u64(const std::uint64_t (&v)[kLanes]) {
    std::uint64_t any = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      any |= v[l];
    }
    // Bytes up to the highest non-zero one of any lane, then the rest.
    const int bytes = any == 0 ? 0 : (64 - __builtin_clzll(any) + 7) / 8;
    for (int b = 0; b < bytes; ++b) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        byte(l, static_cast<unsigned char>(v[l] >> (8 * b)));
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      h[l] *= kPrimePow[static_cast<std::size_t>(8 - bytes)];
    }
  }
};

/// One u64 through a single FNV-1a chain (the final combine).
std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ static_cast<unsigned char>(v >> (8 * b))) * kFnvPrime;
  }
  return h;
}

/// Finalizing scramble (splitmix64) applied to per-item digests before the
/// commutative sum, so near-identical items don't cancel structurally.
std::uint64_t scramble(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The digests of jobs first .. first+count-1 (count <= kLanes), summed.
/// Lanes past `count` repeat the first job and are not summed.
std::uint64_t job_group_sum(const std::vector<Job>& jobs, std::size_t first,
                            std::size_t count) {
  const Job* job[kLanes];
  std::uint64_t index[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    index[l] = l < count ? first + l : first;
    job[l] = &jobs[index[l]];
  }
  Lanes h;
  const auto feed = [&](auto field) {
    std::uint64_t v[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      v[l] = static_cast<std::uint64_t>(field(*job[l]));
    }
    h.u64(v);
  };
  h.u64(index);
  feed([](const Job& j) { return j.process.is_valid() ? j.process.value() : ~0ULL; });
  feed([](const Job& j) { return j.k; });
  feed([](const Job& j) { return j.arrival.value().num(); });
  feed([](const Job& j) { return j.arrival.value().den(); });
  feed([](const Job& j) { return j.deadline.value().num(); });
  feed([](const Job& j) { return j.deadline.value().den(); });
  feed([](const Job& j) { return j.wcet.value().num(); });
  feed([](const Job& j) { return j.wcet.value().den(); });
  feed([](const Job& j) { return j.is_server ? 1 : 0; });
  feed([](const Job& j) { return j.subset; });
  // The name: its length first ("ab" + "c" never collides with
  // "a" + "bc"), then its bytes, in lockstep up to the shortest name.
  feed([](const Job& j) { return j.name.size(); });
  std::size_t common = job[0]->name.size();
  for (std::size_t l = 1; l < kLanes; ++l) {
    common = std::min(common, job[l]->name.size());
  }
  for (std::size_t p = 0; p < common; ++p) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      h.byte(l, static_cast<unsigned char>(job[l]->name[p]));
    }
  }
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < count; ++l) {
    const std::string& name = job[l]->name;
    for (std::size_t p = common; p < name.size(); ++p) {
      h.byte(l, static_cast<unsigned char>(name[p]));
    }
    sum += scramble(h.h[l]);
  }
  return sum;
}

/// The digests of `count` (from, to) pairs (count <= kLanes), summed.
std::uint64_t edge_group_sum(const std::uint64_t (&from)[kLanes],
                             const std::uint64_t (&to)[kLanes], std::size_t count) {
  Lanes h;
  h.u64(from);
  h.u64(to);
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < count; ++l) {
    sum += scramble(h.h[l]);
  }
  return sum;
}

}  // namespace

std::uint64_t fingerprint(const TaskGraph& tg) {
  // Jobs: digest every observable field, index included; combine with a
  // wrapping sum so the combination is commutative (construction-order
  // independent) while each addend is position-sensitive. The sum is
  // also what lets kLanes jobs be digested at once.
  const std::vector<Job>& jobs = tg.jobs();
  std::uint64_t job_sum = 0;
  for (std::size_t first = 0; first < jobs.size(); first += kLanes) {
    job_sum += job_group_sum(jobs, first, std::min(kLanes, jobs.size() - first));
  }

  // Edges: (from, to) pairs, combined commutatively for the same reason,
  // gathered kLanes at a time straight from the successor lists.
  std::uint64_t edge_sum = 0;
  std::uint64_t from[kLanes] = {};
  std::uint64_t to[kLanes] = {};
  std::size_t filled = 0;
  for (std::size_t u = 0; u < jobs.size(); ++u) {
    for (const JobId v : tg.successors(JobId(u))) {
      from[filled] = u;
      to[filled] = v.value();
      if (++filled == kLanes) {
        edge_sum += edge_group_sum(from, to, kLanes);
        filled = 0;
      }
    }
  }
  if (filled != 0) {
    edge_sum += edge_group_sum(from, to, filled);
  }

  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, tg.job_count());
  h = fnv_u64(h, tg.edge_count());
  h = fnv_u64(h, static_cast<std::uint64_t>(tg.hyperperiod().value().num()));
  h = fnv_u64(h, static_cast<std::uint64_t>(tg.hyperperiod().value().den()));
  h = fnv_u64(h, job_sum);
  h = fnv_u64(h, edge_sum);
  return h;
}

std::string fingerprint_hex(std::uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[fp & 0xF];
    fp >>= 4;
  }
  return out;
}

std::uint64_t parse_fingerprint_hex(const std::string& text) {
  if (text.size() != 16) {
    throw std::invalid_argument("fingerprint: expected 16 hex digits, got '" + text +
                                "'");
  }
  std::uint64_t fp = 0;
  for (const char c : text) {
    fp <<= 4;
    if (c >= '0' && c <= '9') {
      fp |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      fp |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::invalid_argument("fingerprint: invalid hex digit in '" + text + "'");
    }
  }
  return fp;
}

}  // namespace fppn
