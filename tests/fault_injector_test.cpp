// Tests for testing::FaultInjector — the determinism contract behind
// every chaos suite: the decision stream is a pure function of
// (seed, site, per-site call index), so a failing chaos run replays
// bit-identically from its printed seed; sites draw from independent
// streams (cross-site interleaving cannot shift another site's faults);
// and a disarmed injector is byte-for-byte a raw syscall.
#include "testing/fault_injector.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

namespace fppn {
namespace {

using testing::FaultConfig;
using testing::FaultDecision;
using testing::FaultInjector;
using testing::FaultSite;

/// The injector is process-global: every test leaves it disarmed so the
/// next one (and any incidental syscall in gtest itself) is passthrough.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm(); }
};

std::vector<FaultDecision> sample(FaultSite site, int n) {
  std::vector<FaultDecision> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(FaultInjector::instance().decide(site));
  }
  return out;
}

bool same(const std::vector<FaultDecision>& a, const std::vector<FaultDecision>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].fire != b[i].fire || a[i].roll != b[i].roll) {
      return false;
    }
  }
  return true;
}

TEST_F(FaultInjectorTest, SameSeedReplaysTheSameDecisionStream) {
  FaultInjector& injector = FaultInjector::instance();
  injector.arm(FaultConfig::uniform(/*seed=*/42, /*rate_per_1024=*/512));
  const std::vector<FaultDecision> first = sample(FaultSite::kRead, 256);

  injector.arm(FaultConfig::uniform(42, 512));  // re-arm resets the counters
  const std::vector<FaultDecision> replay = sample(FaultSite::kRead, 256);
  EXPECT_TRUE(same(first, replay));

  // At rate 512/1024 over 256 draws, both outcomes must occur — a stream
  // that never fires (or always fires) would make the rate knob a lie.
  int fired = 0;
  for (const FaultDecision& d : first) {
    fired += d.fire ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 256);
}

TEST_F(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector& injector = FaultInjector::instance();
  injector.arm(FaultConfig::uniform(1, 512));
  const std::vector<FaultDecision> a = sample(FaultSite::kRead, 256);
  injector.arm(FaultConfig::uniform(2, 512));
  const std::vector<FaultDecision> b = sample(FaultSite::kRead, 256);
  EXPECT_FALSE(same(a, b));
}

TEST_F(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  // The replay guarantee must survive thread interleaving across sites:
  // site kWrite's n-th decision depends on nothing but (seed, kWrite, n),
  // so burning any number of kRead draws in between cannot shift it.
  FaultInjector& injector = FaultInjector::instance();
  injector.arm(FaultConfig::uniform(7, 512));
  const std::vector<FaultDecision> writes_alone = sample(FaultSite::kWrite, 64);

  injector.arm(FaultConfig::uniform(7, 512));
  std::vector<FaultDecision> writes_interleaved;
  for (int i = 0; i < 64; ++i) {
    (void)injector.decide(FaultSite::kRead);
    (void)injector.decide(FaultSite::kRead);
    writes_interleaved.push_back(injector.decide(FaultSite::kWrite));
  }
  EXPECT_TRUE(same(writes_alone, writes_interleaved));
}

TEST_F(FaultInjectorTest, RateEndpointsAreExact) {
  FaultInjector& injector = FaultInjector::instance();
  injector.arm(FaultConfig::uniform(3, 0));
  for (const FaultDecision& d : sample(FaultSite::kRename, 128)) {
    EXPECT_FALSE(d.fire);
  }
  injector.arm(FaultConfig::uniform(3, 1024));
  for (const FaultDecision& d : sample(FaultSite::kRename, 128)) {
    EXPECT_TRUE(d.fire);
  }
}

TEST_F(FaultInjectorTest, CountersTrackCallsAndInjections) {
  FaultInjector& injector = FaultInjector::instance();
  injector.arm(FaultConfig::uniform(11, 1024));
  (void)sample(FaultSite::kUnlink, 10);
  (void)sample(FaultSite::kFsync, 3);
  EXPECT_EQ(injector.calls(FaultSite::kUnlink), 10u);
  EXPECT_EQ(injector.injected(FaultSite::kUnlink), 10u);
  EXPECT_EQ(injector.calls(FaultSite::kFsync), 3u);
  EXPECT_EQ(injector.injected_total(), 13u);
  EXPECT_EQ(injector.seed(), 11u);

  // disarm() freezes the counters for post-run asserts...
  injector.disarm();
  (void)injector.decide(FaultSite::kUnlink);
  EXPECT_EQ(injector.injected(FaultSite::kUnlink), 10u);
  // ...and arm() resets them.
  injector.arm(FaultConfig::uniform(11, 1024));
  EXPECT_EQ(injector.calls(FaultSite::kUnlink), 0u);
  EXPECT_EQ(injector.injected_total(), 0u);
}

TEST_F(FaultInjectorTest, DisarmedWrappersAreRawSyscalls) {
  int fds[2];
  // A socket pair: fault::write is a socket write (send with MSG_NOSIGNAL).
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "passthrough";
  EXPECT_EQ(testing::fault::write(fds[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  char buf[64];
  EXPECT_EQ(testing::fault::read(fds[0], buf, sizeof(buf)),
            static_cast<ssize_t>(payload.size()));
  EXPECT_EQ(std::string(buf, payload.size()), payload);

  pollfd pfd{fds[0], POLLIN, 0};
  EXPECT_EQ(testing::fault::poll(&pfd, 1, 0), 0);  // drained: nothing readable
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(FaultInjectorTest, InjectedWriteFaultsAreWellFormed) {
  // Every injected write outcome must look like something POSIX could
  // have produced: a recognized errno with -1, or a short count in
  // [1, len) — never 0, never more than requested, never a stray errno.
  FaultInjector& injector = FaultInjector::instance();
  injector.arm(FaultConfig::uniform(13, 1024));
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload(4096, 'w');
  for (int i = 0; i < 64; ++i) {
    errno = 0;
    const ssize_t n = testing::fault::write(fds[1], payload.data(), payload.size());
    if (n < 0) {
      EXPECT_TRUE(errno == EINTR || errno == EAGAIN || errno == ECONNRESET)
          << std::strerror(errno);
    } else {
      EXPECT_GE(n, 1);
      EXPECT_LT(n, static_cast<ssize_t>(payload.size()));
      char sink[4096];
      ASSERT_EQ(::read(fds[0], sink, sizeof(sink)), n);  // bytes really left
    }
  }
  EXPECT_EQ(injector.injected(FaultSite::kWrite), 64u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(FaultInjectorTest, InjectedRenameIsNotPerformed) {
  FaultInjector& injector = FaultInjector::instance();
  const std::string dir = ::testing::TempDir();
  const std::string from = dir + "/fault_rename_from_" + std::to_string(::getpid());
  const std::string to = dir + "/fault_rename_to_" + std::to_string(::getpid());
  {
    const int fd = ::open(from.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  injector.arm(FaultConfig::uniform(17, 1024));
  errno = 0;
  EXPECT_EQ(testing::fault::rename(from.c_str(), to.c_str()), -1);
  EXPECT_EQ(errno, EIO);
  injector.disarm();
  EXPECT_EQ(::access(from.c_str(), F_OK), 0);   // source untouched
  EXPECT_NE(::access(to.c_str(), F_OK), 0);     // destination never appeared
  EXPECT_EQ(testing::fault::rename(from.c_str(), to.c_str()), 0);
  ::unlink(to.c_str());
}

}  // namespace
}  // namespace fppn
