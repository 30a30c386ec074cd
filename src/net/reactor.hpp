// net::Reactor — the single-threaded event loop of the serving stack: a
// poll(2) loop driving every listener and every connection as a
// non-blocking state machine, so thousands of idle or slow connections
// cost one pollfd each instead of one thread each (PR 8's
// thread-per-connection daemon inverted).
//
// Connection lifecycle (one request per connection, EOF-framed):
//
//   accept -> kReading   read chunks until the peer half-closes (EOF).
//               |        A hard read() error, a Unix peer that close()d
//               |        instead of half-closing (POLLHUP at EOF), or an
//               |        over-limit request raises on_read_error /
//               |        on_oversized instead of ever dispatching
//               |        truncated bytes.
//               v
//          kAwaiting     the full request was handed to on_request();
//               |        the connection waits (unpolled) for
//               |        submit_response() from any thread.
//               v
//           kWriting     non-blocking writes until the response is out,
//               |        then close. Oversized connections keep reading
//               v        and discarding in parallel so a mid-send client
//            closed      is never deadlocked against its own error.
//
// The callbacks run on the reactor thread and may call submit_response()
// synchronously (responses are queued and applied at the loop top).
// submit_response() and request_stop() are the only thread-safe entry
// points — everything else is reactor-thread state.
//
// Deadlines: three optional per-connection timers (Options, all in ms,
// 0 = off) arm a lazy min-heap whose earliest entry drives the poll
// timeout — with no deadline armed the loop still blocks forever, so
// the timerless configuration behaves exactly as before:
//
//   idle     accept -> first request byte   (a connected-but-silent peer)
//   request  first byte -> complete request (a slow-loris trickler)
//   write    no write progress while flushing (a never-draining reader)
//
// An expired connection is counted (Counters::*_timeouts), reported via
// on_timeout, and closed — mid-read there is nothing to answer, and a
// stalled reader would never take an answer anyway. Requests already
// dispatched (kAwaiting) carry no reactor deadline: queue-level shedding
// in net::Server owns that window. The write deadline is progress-based —
// every successful write re-arms it — so a huge response to a slow-but-
// draining reader survives while a stalled one is cut.
//
// Shutdown: request_stop() (or a readable stop fd, the daemon's
// self-pipe) begins the drain — listeners close first, connections still
// reading are dropped, and the loop runs on until every dispatched
// request has had its response written. run() returning therefore means
// "drained", not merely "stopped".
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/listener.hpp"

namespace fppn {
namespace net {

class Reactor {
 public:
  /// Which per-connection deadline expired (see the file comment).
  enum class TimeoutKind {
    kIdle,     ///< accepted, no request byte within idle_timeout_ms
    kRequest,  ///< request started, not complete within request_timeout_ms
    kWrite,    ///< no write progress within write_timeout_ms
  };

  /// Event hooks, all invoked on the reactor thread. on_request hands
  /// over the complete request text; the other two report a connection
  /// whose request can never complete — the receiver decides the error
  /// response (submit_response) or lets the connection die silently.
  struct Events {
    std::function<void(std::uint64_t conn, std::string request)> on_request;
    std::function<void(std::uint64_t conn, std::size_t bytes)> on_oversized;
    std::function<void(std::uint64_t conn, int error)> on_read_error;
    /// A deadline expired; the connection is closed right after this
    /// returns (notification only — there is no peer left to answer).
    std::function<void(std::uint64_t conn, TimeoutKind kind)> on_timeout;
    /// The drain began: listeners are gone, no new requests will arrive.
    std::function<void()> on_drain;
  };

  struct Options {
    /// Requests larger than this raise on_oversized; 0 = unlimited.
    std::size_t max_request_bytes = 0;
    int idle_timeout_ms = 0;     ///< accept -> first byte; 0 = off
    int request_timeout_ms = 0;  ///< first byte -> full request; 0 = off
    int write_timeout_ms = 0;    ///< stalled response write; 0 = off
  };

  /// Monotonic counters, written only by the reactor thread; read them
  /// after run() returns (or from the callbacks).
  struct Counters {
    std::uint64_t accepted = 0;      ///< connections accepted
    std::uint64_t requests = 0;      ///< complete requests dispatched
    std::uint64_t oversized = 0;     ///< requests rejected by the size cap
    std::uint64_t read_errors = 0;   ///< hard read() failures, Unix close() mid-request
    std::uint64_t write_errors = 0;  ///< responses the peer never took
    std::uint64_t aborted = 0;       ///< reading connections dropped by drain
    std::uint64_t idle_timeouts = 0;     ///< closed: silent after accept
    std::uint64_t request_timeouts = 0;  ///< closed: request never completed
    std::uint64_t write_timeouts = 0;    ///< closed: response write stalled
  };

  Reactor(Events events, Options options)
      : events_(std::move(events)), options_(options) {}
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Adds a listening socket (before run()). The reactor owns it and
  /// closes it (unlinking a Unix path) when the drain begins.
  void add_listener(Listener listener);

  /// Watches `fd` (not owned); readable => begin the drain. The fd is
  /// never read, matching the daemon's never-drained self-pipe.
  void watch_stop_fd(int fd) { stop_fd_ = fd; }

  /// Queues the response for `conn` and wakes the loop. Thread-safe;
  /// a response for an already-closed connection is dropped silently.
  void submit_response(std::uint64_t conn, std::string text);

  /// Begins the drain from any thread (idempotent).
  void request_stop();

  /// The event loop: blocks until drained (see file comment).
  void run();

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class ConnState {
    kReading,   ///< accumulating request bytes
    kAwaiting,  ///< request dispatched; response not yet submitted
    kWriting,   ///< response flushing
  };

  struct Connection {
    int fd = -1;
    ConnState state = ConnState::kReading;
    std::string request;
    std::string response;
    std::size_t write_offset = 0;
    /// Keep reading and discarding (oversized request): the peer may be
    /// blocked mid-send, and draining its bytes is what unblocks it.
    bool discard_input = false;
    bool saw_eof = false;
    bool saw_request_byte = false;  ///< idle -> request deadline transition
    /// Armed deadline (valid when deadline_seq != 0). deadline_seq pairs
    /// the connection with its live heap entry — re-arming bumps it, so
    /// stale heap entries are recognized and skipped (lazy deletion).
    Clock::time_point deadline{};
    TimeoutKind deadline_kind = TimeoutKind::kIdle;
    std::uint64_t deadline_seq = 0;
  };

  /// Lazy min-heap entry: (when, conn, seq). An entry whose connection is
  /// gone or whose seq no longer matches is skipped on pop.
  struct DeadlineEntry {
    Clock::time_point when;
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
  };

  void open_wakeup_pipe();
  /// Writes one byte to the wakeup pipe; the caller holds mu_, which
  /// guards wakeup_write_ against run() opening and closing the pipe.
  void wake();
  void apply_pending_responses();
  void begin_drain();
  void accept_ready(const Listener& listener);
  void handle_readable(std::uint64_t id, Connection& conn);
  /// A torn request: counts a read error, drops the bytes and reports
  /// `error` through on_read_error (or closes the connection).
  void fail_read(std::uint64_t id, Connection& conn, int error);
  void handle_writable(std::uint64_t id, Connection& conn);
  void close_connection(std::uint64_t id);

  /// Arms (timeout_ms > 0) or clears (timeout_ms <= 0) `conn`'s deadline.
  void set_deadline(std::uint64_t id, Connection& conn, TimeoutKind kind,
                    int timeout_ms);
  /// Drops stale heap tops; returns the poll timeout in ms (-1 = none).
  int next_deadline_timeout_ms();
  /// Counts, reports and closes every connection whose deadline passed.
  void expire_deadlines();

  Events events_;
  Options options_;
  std::vector<Listener> listeners_;
  int stop_fd_ = -1;
  int wakeup_read_ = -1;
  int wakeup_write_ = -1;  ///< guarded by mu_

  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  Counters counters_;
  std::vector<DeadlineEntry> deadlines_;  ///< std::*_heap min-heap by `when`
  std::uint64_t next_deadline_seq_ = 1;

  std::mutex mu_;
  std::vector<std::pair<std::uint64_t, std::string>> pending_responses_;
  bool stop_requested_ = false;

  /// Connections closed mid-iteration (write error during dispatch);
  /// erased at the loop top so iterators stay valid.
  std::vector<std::uint64_t> dead_;
};

}  // namespace net
}  // namespace fppn
