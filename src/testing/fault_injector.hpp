// testing::FaultInjector — a deterministic, seeded, compiled-in fault
// layer for the serving and persistence syscall paths. Off by default:
// every wrapper below is a direct syscall until arm() flips one relaxed
// atomic, so the production fast path costs a single load.
//
// Determinism contract (the same one src/gen's scenario generator makes):
// the decision for the n-th interception at a site is the *pure function*
//
//   mix(seed ^ salt(site) + (n+1) * GAMMA)        (SplitMix64's finalizer)
//
// of (seed, site, n) alone — per-site call counters are the only shared
// state, so two chaos runs with the same seed inject the same fault at
// the same per-site call index regardless of how threads interleave
// *across* sites. That is what makes a chaos failure replayable: re-arm
// with the printed seed and the same traffic, and the same read is torn,
// the same rename fails.
//
// What each site can inject (picked by the decision's roll bits):
//   kAccept    EINTR
//   kRead      EINTR, EAGAIN, ECONNRESET, short read (capped length)
//   kWrite     EINTR, EAGAIN, ECONNRESET, short write (capped length)
//   kPoll      EINTR
//   kFileWrite EINTR, EIO, short write
//   kFsync     EIO
//   kRename    EIO (the rename is not performed)
//   kUnlink    EIO (the unlink is not performed)
//
// arm()/disarm() must not race traffic through the wrappers with a
// *config* change — the chaos suites arm, drive traffic, join, disarm.
// The wrappers themselves are thread-safe.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fppn {
namespace testing {

/// Interception points, one per wrapped syscall family.
enum class FaultSite : int {
  kAccept = 0,
  kRead,
  kWrite,
  kPoll,
  kFileWrite,
  kFsync,
  kRename,
  kUnlink,
};
constexpr std::size_t kFaultSiteCount = 8;

/// Per-site fault probability in 1/1024 units (0 = never, 1024 = always).
struct FaultConfig {
  std::uint64_t seed = 0;
  std::array<std::uint16_t, kFaultSiteCount> rate_per_1024{};

  /// Same rate at every site — the daemon's --fault-rate shorthand.
  static FaultConfig uniform(std::uint64_t seed, std::uint16_t rate_per_1024);
};

/// One interception decision: whether to inject, plus the extra random
/// bits that pick the fault flavor (and the short-I/O length).
struct FaultDecision {
  bool fire = false;
  std::uint64_t roll = 0;
};

class FaultInjector {
 public:
  /// The process-wide injector every wrapper consults.
  static FaultInjector& instance();

  /// Arms with `config`, resetting every per-site counter. Must not race
  /// in-flight wrapper calls with a different config.
  void arm(const FaultConfig& config);

  /// Back to passthrough (counters keep their final values for asserts).
  void disarm();

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// The pure-function decision for this site's next call (bumps the
  /// site's call counter). Passthrough (fire = false) when disarmed.
  FaultDecision decide(FaultSite site) noexcept;

  /// Interceptions at `site` since arm().
  [[nodiscard]] std::uint64_t calls(FaultSite site) const noexcept;

  /// Faults injected at `site` since arm().
  [[nodiscard]] std::uint64_t injected(FaultSite site) const noexcept;

  /// Faults injected across all sites since arm().
  [[nodiscard]] std::uint64_t injected_total() const noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return config_.seed; }

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  FaultConfig config_;
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> calls_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> injected_{};
};

// Syscall wrappers, used by src/net and src/io at their fault sites.
// Identical semantics to the raw syscall when the injector is disarmed.
namespace fault {

int accept(int fd);
ssize_t read(int fd, void* buf, std::size_t len);
/// A socket write: send(2) with MSG_NOSIGNAL, so a peer that is gone
/// fails the call with EPIPE instead of raising SIGPIPE in the host.
ssize_t write(int fd, const void* buf, std::size_t len);
int poll(struct pollfd* fds, nfds_t nfds, int timeout_ms);
ssize_t file_write(int fd, const void* buf, std::size_t len);
int fsync(int fd);
int rename(const char* from, const char* to);
int unlink(const char* path);

}  // namespace fault

}  // namespace testing
}  // namespace fppn
