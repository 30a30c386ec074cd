#include "net/reactor.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "testing/fault_injector.hpp"

namespace fppn {
namespace net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

void Reactor::add_listener(Listener listener) {
  listeners_.push_back(std::move(listener));
}

void Reactor::open_wakeup_pipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    wakeup_read_ = fds[0];
    const std::lock_guard<std::mutex> lock(mu_);
    wakeup_write_ = fds[1];
  }
}

void Reactor::wake() {
  if (wakeup_write_ >= 0) {
    const char byte = 1;
    (void)!::write(wakeup_write_, &byte, 1);  // EAGAIN = a wake is pending
  }
}

void Reactor::submit_response(std::uint64_t conn, std::string text) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    pending_responses_.emplace_back(conn, std::move(text));
    wake();
  }
}

void Reactor::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    wake();
  }
}

void Reactor::apply_pending_responses() {
  std::vector<std::pair<std::uint64_t, std::string>> ready;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ready.swap(pending_responses_);
  }
  for (auto& [id, text] : ready) {
    const auto it = connections_.find(id);
    if (it == connections_.end() || it->second.state != ConnState::kAwaiting) {
      continue;  // connection died first (or a stray duplicate): drop
    }
    it->second.response = std::move(text);
    it->second.write_offset = 0;
    it->second.state = ConnState::kWriting;
    set_deadline(id, it->second, TimeoutKind::kWrite, options_.write_timeout_ms);
  }
}

void Reactor::set_deadline(std::uint64_t id, Connection& conn, TimeoutKind kind,
                           int timeout_ms) {
  if (timeout_ms <= 0) {
    conn.deadline_seq = 0;  // any live heap entry is now stale
    return;
  }
  conn.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  conn.deadline_kind = kind;
  conn.deadline_seq = next_deadline_seq_++;
  deadlines_.push_back(DeadlineEntry{conn.deadline, id, conn.deadline_seq});
  std::push_heap(deadlines_.begin(), deadlines_.end(),
                 [](const DeadlineEntry& a, const DeadlineEntry& b) {
                   return a.when > b.when;
                 });
}

int Reactor::next_deadline_timeout_ms() {
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.when > b.when;
  };
  while (!deadlines_.empty()) {
    const DeadlineEntry& top = deadlines_.front();
    const auto it = connections_.find(top.conn);
    if (it == connections_.end() || it->second.deadline_seq != top.seq) {
      // Stale (re-armed or closed): lazy deletion.
      std::pop_heap(deadlines_.begin(), deadlines_.end(), later);
      deadlines_.pop_back();
      continue;
    }
    const auto delta =
        std::chrono::ceil<std::chrono::milliseconds>(top.when - Clock::now())
            .count();
    if (delta <= 0) {
      return 0;
    }
    return static_cast<int>(std::min<long long>(
        delta, static_cast<long long>(std::numeric_limits<int>::max())));
  }
  return -1;  // no deadline armed: block like the timerless reactor
}

void Reactor::expire_deadlines() {
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.when > b.when;
  };
  const Clock::time_point now = Clock::now();
  while (!deadlines_.empty()) {
    const DeadlineEntry top = deadlines_.front();
    const auto it = connections_.find(top.conn);
    const bool live =
        it != connections_.end() && it->second.deadline_seq == top.seq;
    if (live && top.when > now) {
      return;  // earliest live deadline is in the future
    }
    std::pop_heap(deadlines_.begin(), deadlines_.end(), later);
    deadlines_.pop_back();
    if (!live) {
      continue;
    }
    const TimeoutKind kind = it->second.deadline_kind;
    switch (kind) {
      case TimeoutKind::kIdle:
        ++counters_.idle_timeouts;
        break;
      case TimeoutKind::kRequest:
        ++counters_.request_timeouts;
        break;
      case TimeoutKind::kWrite:
        ++counters_.write_timeouts;
        break;
    }
    if (events_.on_timeout) {
      events_.on_timeout(top.conn, kind);
    }
    close_connection(top.conn);
  }
}

void Reactor::begin_drain() {
  if (draining_) {
    return;
  }
  draining_ = true;
  listeners_.clear();  // closes (and unlinks) every listening socket
  std::vector<std::uint64_t> reading;
  for (const auto& [id, conn] : connections_) {
    if (conn.state == ConnState::kReading) {
      reading.push_back(id);
    }
  }
  for (const std::uint64_t id : reading) {
    ++counters_.aborted;
    close_connection(id);
  }
  if (events_.on_drain) {
    events_.on_drain();
  }
}

void Reactor::accept_ready(const Listener& listener) {
  for (;;) {
    const int fd = listener.accept_connection();
    if (fd < 0) {
      return;
    }
    ++counters_.accepted;
    Connection conn;
    conn.fd = fd;
    const std::uint64_t id = next_id_++;
    auto [it, inserted] = connections_.emplace(id, std::move(conn));
    set_deadline(id, it->second, TimeoutKind::kIdle, options_.idle_timeout_ms);
  }
}

void Reactor::close_connection(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  ::close(it->second.fd);
  connections_.erase(it);
}

namespace {

/// True when the peer has closed the connection outright, as opposed to
/// half-closing its write side. On an AF_UNIX stream socket close()
/// raises POLLHUP and shutdown(SHUT_WR) does not; on TCP neither does (the
/// local write side is still open), so a TCP close reads as a half-close.
bool peer_closed(int fd) {
  struct pollfd probe;
  probe.fd = fd;
  probe.events = POLLIN;
  probe.revents = 0;
  return ::poll(&probe, 1, 0) == 1 && (probe.revents & POLLHUP) != 0;
}

}  // namespace

void Reactor::fail_read(std::uint64_t id, Connection& conn, int error) {
  ++counters_.read_errors;
  conn.request.clear();
  conn.state = ConnState::kAwaiting;
  set_deadline(id, conn, TimeoutKind::kIdle, 0);
  if (events_.on_read_error) {
    events_.on_read_error(id, error);
  } else {
    close_connection(id);
  }
}

void Reactor::handle_readable(std::uint64_t id, Connection& conn) {
  char buf[kReadChunk];
  for (;;) {
    const ssize_t n = testing::fault::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      if (conn.discard_input) {
        continue;  // oversized request: drain the peer, keep nothing
      }
      if (!conn.saw_request_byte) {
        // The request began: the idle window is over, the request window
        // starts (it is NOT extended per byte — a trickler cannot stay
        // alive by dripping one byte per interval).
        conn.saw_request_byte = true;
        set_deadline(id, conn, TimeoutKind::kRequest, options_.request_timeout_ms);
      }
      conn.request.append(buf, static_cast<std::size_t>(n));
      if (options_.max_request_bytes != 0 &&
          conn.request.size() > options_.max_request_bytes) {
        ++counters_.oversized;
        const std::size_t seen = conn.request.size();
        conn.request.clear();
        conn.request.shrink_to_fit();
        conn.discard_input = true;
        conn.state = ConnState::kAwaiting;
        set_deadline(id, conn, TimeoutKind::kIdle, 0);  // solver window: no timer
        if (events_.on_oversized) {
          events_.on_oversized(id, seen);
        } else {
          close_connection(id);
        }
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF: the request (or the discard) is over
      conn.saw_eof = true;
      if (conn.state == ConnState::kReading && peer_closed(conn.fd)) {
        // The FIN came from close(), not shutdown(SHUT_WR): nobody is left
        // to read an answer, so the bytes are a torn prefix, not a request.
        fail_read(id, conn, ECONNRESET);
      } else if (conn.state == ConnState::kReading) {
        ++counters_.requests;
        conn.state = ConnState::kAwaiting;
        // Dispatched: the queue-deadline shed in net::Server owns the
        // waiting window, not a reactor timer.
        set_deadline(id, conn, TimeoutKind::kIdle, 0);
        std::string request = std::move(conn.request);
        conn.request.clear();
        if (events_.on_request) {
          events_.on_request(id, std::move(request));
        } else {
          close_connection(id);
        }
      } else if (conn.state == ConnState::kWriting &&
                 conn.write_offset == conn.response.size()) {
        close_connection(id);  // discard finished after the response did
      }
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    // Hard read error (ECONNRESET and friends): the request is torn.
    // Never dispatch the truncated bytes — surface the error instead.
    if (conn.state == ConnState::kReading) {
      fail_read(id, conn, errno);
    } else {
      conn.saw_eof = true;  // discard side died; stop polling for input
      if (conn.state == ConnState::kWriting &&
          conn.write_offset == conn.response.size()) {
        close_connection(id);
      }
    }
    return;
  }
}

void Reactor::handle_writable(std::uint64_t id, Connection& conn) {
  while (conn.write_offset < conn.response.size()) {
    const ssize_t n =
        testing::fault::write(conn.fd, conn.response.data() + conn.write_offset,
                              conn.response.size() - conn.write_offset);
    if (n >= 0) {
      conn.write_offset += static_cast<std::size_t>(n);
      if (n > 0) {
        // Progress-based write deadline: each successful write re-arms
        // it, so a slow-but-draining reader of a huge response survives
        // while a stalled one is cut within write_timeout_ms.
        set_deadline(id, conn, TimeoutKind::kWrite, options_.write_timeout_ms);
      }
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;  // kernel buffer full: wait for the next POLLOUT
    }
    ++counters_.write_errors;  // peer gone; nothing useful to do
    close_connection(id);
    return;
  }
  // Response fully out. Close unless an oversized peer is still mid-send
  // — then keep draining its bytes so it can reach its own EOF.
  if (!conn.discard_input || conn.saw_eof) {
    close_connection(id);
  }
}

void Reactor::run() {
  open_wakeup_pipe();
  std::vector<pollfd> fds;
  // Parallel tags: what each pollfd row is. listener rows index
  // listeners_; connection rows carry the connection id.
  enum class Tag { kWakeup, kStop, kListener, kConn };
  struct Row {
    Tag tag;
    std::size_t index = 0;
    std::uint64_t conn = 0;
  };
  std::vector<Row> rows;

  for (;;) {
    apply_pending_responses();
    {
      bool stop = false;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        stop = stop_requested_;
      }
      if (stop) {
        begin_drain();
      }
    }
    // Responses submitted for freshly-drained connections may already be
    // applicable; re-apply before deciding to exit.
    apply_pending_responses();
    if (draining_ && connections_.empty()) {
      break;
    }

    fds.clear();
    rows.clear();
    if (wakeup_read_ >= 0) {
      fds.push_back({wakeup_read_, POLLIN, 0});
      rows.push_back({Tag::kWakeup, 0, 0});
    }
    if (stop_fd_ >= 0 && !draining_) {
      fds.push_back({stop_fd_, POLLIN, 0});
      rows.push_back({Tag::kStop, 0, 0});
    }
    if (!draining_) {
      for (std::size_t i = 0; i < listeners_.size(); ++i) {
        fds.push_back({listeners_[i].fd(), POLLIN, 0});
        rows.push_back({Tag::kListener, i, 0});
      }
    }
    for (const auto& [id, conn] : connections_) {
      short events = 0;
      const bool discarding = conn.discard_input && !conn.saw_eof;
      switch (conn.state) {
        case ConnState::kReading:
          events = POLLIN;
          break;
        case ConnState::kAwaiting:
          events = discarding ? POLLIN : 0;
          break;
        case ConnState::kWriting:
          events = (conn.write_offset < conn.response.size() ? POLLOUT : 0) |
                   (discarding ? POLLIN : 0);
          break;
      }
      if (events == 0) {
        continue;  // waiting on submit_response; the wakeup pipe covers it
      }
      fds.push_back({conn.fd, events, 0});
      rows.push_back({Tag::kConn, 0, id});
    }

    // The earliest live deadline caps the poll timeout; with none armed
    // this is -1 and the loop blocks exactly as the timerless reactor
    // always has.
    const int timeout_ms = next_deadline_timeout_ms();
    if (testing::fault::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             timeout_ms) < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // poll itself unusable: abandon ship, close everything below
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      switch (rows[i].tag) {
        case Tag::kWakeup: {
          char buf[64];
          while (::read(wakeup_read_, buf, sizeof(buf)) > 0) {
          }
          break;
        }
        case Tag::kStop: {
          const std::lock_guard<std::mutex> lock(mu_);
          stop_requested_ = true;  // applied at the next loop top
          break;
        }
        case Tag::kListener:
          if (rows[i].index < listeners_.size()) {
            accept_ready(listeners_[rows[i].index]);
          }
          break;
        case Tag::kConn: {
          const auto it = connections_.find(rows[i].conn);
          if (it == connections_.end()) {
            break;  // closed earlier in this dispatch round
          }
          if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            handle_readable(rows[i].conn, it->second);
          }
          const auto again = connections_.find(rows[i].conn);
          if (again != connections_.end() &&
              again->second.state == ConnState::kWriting &&
              (fds[i].revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
            handle_writable(rows[i].conn, again->second);
          }
          break;
        }
      }
    }
    // After I/O progressed (and possibly re-armed deadlines): cut every
    // connection whose window elapsed.
    expire_deadlines();
  }

  for (auto& [id, conn] : connections_) {
    ::close(conn.fd);
  }
  connections_.clear();
  if (wakeup_read_ >= 0) {
    ::close(wakeup_read_);
    wakeup_read_ = -1;
    const std::lock_guard<std::mutex> lock(mu_);
    ::close(wakeup_write_);
    wakeup_write_ = -1;
  }
}

}  // namespace net
}  // namespace fppn
