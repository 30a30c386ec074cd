#include "testing/fault_injector.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

namespace fppn {
namespace testing {

namespace {

/// SplitMix64's finalizer — the same mixer gen::Rng uses, so the chaos
/// seeds live in the same well-studied stream family.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

/// Decorrelates the per-site streams: without a salt, site A's call n and
/// site B's call n would inject in lockstep.
std::uint64_t salt(FaultSite site) noexcept {
  return mix(0x5eedfa417ULL + static_cast<std::uint64_t>(site) * kGamma);
}

/// Capped length for an injected short read/write: at least 1 byte so
/// the caller still makes progress, at most the real length.
std::size_t short_len(std::size_t len, std::uint64_t roll) noexcept {
  const std::size_t cap = std::min<std::size_t>(len, 1024);
  return 1 + static_cast<std::size_t>(roll % cap);
}

}  // namespace

FaultConfig FaultConfig::uniform(std::uint64_t seed, std::uint16_t rate_per_1024) {
  FaultConfig config;
  config.seed = seed;
  config.rate_per_1024.fill(rate_per_1024);
  return config;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const FaultConfig& config) {
  config_ = config;
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    calls_[i].store(0, std::memory_order_relaxed);
    injected_[i].store(0, std::memory_order_relaxed);
  }
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

FaultDecision FaultInjector::decide(FaultSite site) noexcept {
  FaultDecision decision;
  if (!armed()) {
    return decision;
  }
  const auto s = static_cast<std::size_t>(site);
  const std::uint64_t n = calls_[s].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t bits = mix(config_.seed ^ (salt(site) + (n + 1) * kGamma));
  decision.fire = (bits & 1023u) < config_.rate_per_1024[s];
  decision.roll = bits >> 10;
  if (decision.fire) {
    injected_[s].fetch_add(1, std::memory_order_relaxed);
  }
  return decision;
}

std::uint64_t FaultInjector::calls(FaultSite site) const noexcept {
  return calls_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultSite site) const noexcept {
  return injected_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    total += injected_[i].load(std::memory_order_relaxed);
  }
  return total;
}

namespace fault {

int accept(int fd) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && fi.decide(FaultSite::kAccept).fire) {
    errno = EINTR;
    return -1;
  }
  return ::accept(fd, nullptr, nullptr);
}

ssize_t read(int fd, void* buf, std::size_t len) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && len > 0) {
    const FaultDecision d = fi.decide(FaultSite::kRead);
    if (d.fire) {
      switch (d.roll % 4) {
        case 0:
          errno = EINTR;
          return -1;
        case 1:
          errno = EAGAIN;
          return -1;
        case 2:
          errno = ECONNRESET;
          return -1;
        default:
          return ::read(fd, buf, short_len(len, d.roll / 4));
      }
    }
  }
  return ::read(fd, buf, len);
}

ssize_t write(int fd, const void* buf, std::size_t len) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && len > 0) {
    const FaultDecision d = fi.decide(FaultSite::kWrite);
    if (d.fire) {
      switch (d.roll % 4) {
        case 0:
          errno = EINTR;
          return -1;
        case 1:
          errno = EAGAIN;
          return -1;
        case 2:
          errno = ECONNRESET;
          return -1;
        default:
          len = short_len(len, d.roll / 4);
          break;
      }
    }
  }
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

int poll(struct pollfd* fds, nfds_t nfds, int timeout_ms) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && fi.decide(FaultSite::kPoll).fire) {
    errno = EINTR;
    return -1;
  }
  return ::poll(fds, nfds, timeout_ms);
}

ssize_t file_write(int fd, const void* buf, std::size_t len) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && len > 0) {
    const FaultDecision d = fi.decide(FaultSite::kFileWrite);
    if (d.fire) {
      switch (d.roll % 3) {
        case 0:
          errno = EINTR;
          return -1;
        case 1:
          errno = EIO;
          return -1;
        default:
          return ::write(fd, buf, short_len(len, d.roll / 3));
      }
    }
  }
  return ::write(fd, buf, len);
}

int fsync(int fd) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && fi.decide(FaultSite::kFsync).fire) {
    errno = EIO;
    return -1;
  }
  return ::fsync(fd);
}

int rename(const char* from, const char* to) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && fi.decide(FaultSite::kRename).fire) {
    errno = EIO;
    return -1;
  }
  return ::rename(from, to);
}

int unlink(const char* path) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.armed() && fi.decide(FaultSite::kUnlink).fire) {
    errno = EIO;
    return -1;
  }
  return ::unlink(path);
}

}  // namespace fault

}  // namespace testing
}  // namespace fppn
