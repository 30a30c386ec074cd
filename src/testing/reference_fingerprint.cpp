#include "testing/reference_fingerprint.hpp"

namespace fppn {
namespace testing {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental FNV-1a over explicit field encodings. Every field is fed
/// byte-wise, so the digest has no padding/endianness ambiguity.
class Fnv64 {
 public:
  Fnv64& u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      byte(static_cast<unsigned char>(v >> (8 * b)));
    }
    return *this;
  }
  Fnv64& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Fnv64& rational(const Rational& r) { return i64(r.num()).i64(r.den()); }
  Fnv64& str(const std::string& s) {
    u64(s.size());  // length prefix: "ab" + "c" never collides with "a" + "bc"
    for (const char c : s) {
      byte(static_cast<unsigned char>(c));
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= kFnvPrime;
  }
  std::uint64_t hash_ = kFnvOffset;
};

/// Finalizing scramble (splitmix64) applied to per-item digests before the
/// commutative sum, so near-identical items don't cancel structurally.
std::uint64_t scramble(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t reference_fingerprint(const TaskGraph& tg) {
  // Jobs: digest every observable field, index included; combine with a
  // wrapping sum so the combination is commutative (construction-order
  // independent) while each addend is position-sensitive.
  std::uint64_t job_sum = 0;
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const Job& j = tg.job(JobId(i));
    Fnv64 h;
    h.u64(i)
        .u64(j.process.is_valid() ? j.process.value() : ~0ULL)
        .i64(j.k)
        .rational(j.arrival.value())
        .rational(j.deadline.value())
        .rational(j.wcet.value())
        .u64(j.is_server ? 1 : 0)
        .i64(j.subset)
        .str(j.name);
    job_sum += scramble(h.value());
  }

  // Edges: (from, to) pairs, combined commutatively for the same reason.
  std::uint64_t edge_sum = 0;
  for (const auto& [from, to] : tg.edges()) {
    edge_sum += scramble(Fnv64().u64(from.value()).u64(to.value()).value());
  }

  Fnv64 h;
  h.u64(tg.job_count())
      .u64(tg.edge_count())
      .rational(tg.hyperperiod().value())
      .u64(job_sum)
      .u64(edge_sum);
  return h.value();
}

}  // namespace testing
}  // namespace fppn
