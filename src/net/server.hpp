// net::Server — the serving stack assembled: one Reactor thread owning
// every connection, a bounded WorkQueue, and a pool of solver threads
// that run the request handler — so connection I/O and solving never
// share a thread, and admission is explicit:
//
//   reactor (1 thread)          solver pool (N threads)
//   ----------------------      -------------------------------
//   accept / read request  -->  WorkQueue::try_push
//     queue full: respond         |  pop, measure queue wait
//     "overloaded" now            v
//   write responses        <--  handler(request, queue_wait_ms)
//
// The handler runs concurrently on every solver thread and returns the
// complete response text; the protocol hooks supply the response lines
// for the three transport-level rejections (queue full, oversized
// request, torn read), so the net layer never hardcodes a wire format —
// the engine service owns the "fppn-serve ..." grammar.
//
// run() blocks on the calling thread until stop() is called or the stop
// fd becomes readable, then drains: listeners close, queued requests
// finish, every response is written, the pool joins. One Server = one
// run().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/listener.hpp"
#include "net/reactor.hpp"
#include "net/work_queue.hpp"

namespace fppn {
namespace net {

/// The reactor's options (the request size cap, protocol.oversized
/// beyond it, and the per-connection deadlines; see net/reactor.hpp) plus
/// the queue and solver pool's own.
struct ServerOptions : Reactor::Options {
  int solver_threads = 2;
  std::size_t queue_capacity = 64;
  /// Readable => drain (the daemon's signal self-pipe). Not owned;
  /// -1 = stop() only.
  int stop_fd = -1;
  /// A popped request whose queue wait already exceeds this is answered
  /// with protocol.deadline_exceeded instead of the handler — stale-work
  /// shedding: the client has likely given up, so solving would burn a
  /// solver slot on an answer nobody reads. 0 = off.
  int queue_deadline_ms = 0;
};

/// The response lines for transport-level rejections. All hooks are
/// invoked on the reactor thread except deadline_exceeded (solver
/// thread); null hooks fall back to a terse "error: ..." line (tests of
/// the bare net layer). timed_out is a notification, not a response —
/// the expired connection is already being closed.
struct ServerProtocol {
  std::function<std::string()> overloaded;
  std::function<std::string(std::size_t bytes_seen)> oversized;
  std::function<std::string(int error)> read_error;
  std::function<std::string()> deadline_exceeded;
  std::function<void(Reactor::TimeoutKind kind)> timed_out;
};

/// What the server knows about a request when it hands it to the
/// handler — the load signals behind stale-work shedding and graceful
/// degradation decisions.
struct RequestInfo {
  double queue_wait_ms = 0.0;     ///< enqueue -> pop
  std::size_t queue_depth = 0;    ///< requests still queued at pop time
  std::size_t queue_capacity = 0; ///< the bounded queue's capacity
};

class Server {
 public:
  /// `handler(request, info)` returns the full response text; it runs
  /// concurrently on every solver thread.
  using Handler =
      std::function<std::string(std::string request, const RequestInfo& info)>;

  Server(ServerOptions options, ServerProtocol protocol, Handler handler);

  /// Adds a listening socket (before run()).
  void add_listener(Listener listener);

  /// Serves until stopped, then drains; see the file comment.
  void run();

  /// Begins the drain from any thread (idempotent).
  void stop() { reactor_.request_stop(); }

  /// Pending (queued, not yet popped) requests — observability for
  /// benches and tests driving the backpressure path.
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }

  [[nodiscard]] const Reactor::Counters& reactor_counters() const noexcept {
    return reactor_.counters();
  }

 private:
  struct Job {
    std::uint64_t conn = 0;
    std::string request;
    std::chrono::steady_clock::time_point enqueued;
  };

  void solver_loop();

  ServerOptions options_;
  ServerProtocol protocol_;
  Handler handler_;
  WorkQueue<Job> queue_;
  Reactor reactor_;
};

}  // namespace net
}  // namespace fppn
