#include "net/server.hpp"

#include <cstring>
#include <utility>

namespace fppn {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

}  // namespace

Server::Server(ServerOptions options, ServerProtocol protocol, Handler handler)
    : options_(options),
      protocol_(std::move(protocol)),
      handler_(std::move(handler)),
      queue_(options.queue_capacity),
      reactor_(
          Reactor::Events{
              /*on_request=*/
              [this](std::uint64_t conn, std::string request) {
                Job job;
                job.conn = conn;
                job.request = std::move(request);
                job.enqueued = Clock::now();
                if (!queue_.try_push(std::move(job))) {
                  reactor_.submit_response(
                      conn, protocol_.overloaded ? protocol_.overloaded()
                                                 : std::string("error: overloaded\n"));
                }
              },
              /*on_oversized=*/
              [this](std::uint64_t conn, std::size_t bytes) {
                reactor_.submit_response(
                    conn, protocol_.oversized ? protocol_.oversized(bytes)
                                              : std::string("error: request too large\n"));
              },
              /*on_read_error=*/
              [this](std::uint64_t conn, int error) {
                reactor_.submit_response(
                    conn, protocol_.read_error
                              ? protocol_.read_error(error)
                              : std::string("error: request read failed: ") +
                                    std::strerror(error) + "\n");
              },
              /*on_timeout=*/
              [this](std::uint64_t, Reactor::TimeoutKind kind) {
                if (protocol_.timed_out) {
                  protocol_.timed_out(kind);
                }
              },
              /*on_drain=*/
              [this] { queue_.close(); },
          },
          options) {
  if (options_.stop_fd >= 0) {
    reactor_.watch_stop_fd(options_.stop_fd);
  }
}

void Server::add_listener(Listener listener) {
  reactor_.add_listener(std::move(listener));
}

void Server::solver_loop() {
  while (auto job = queue_.pop()) {
    RequestInfo info;
    info.queue_wait_ms = ms_since(job->enqueued);
    info.queue_depth = queue_.size();
    info.queue_capacity = options_.queue_capacity;
    if (options_.queue_deadline_ms > 0 &&
        info.queue_wait_ms > static_cast<double>(options_.queue_deadline_ms)) {
      // Stale-work shedding: the deadline passed while queued, so answer
      // without burning a solver slot on it.
      reactor_.submit_response(
          job->conn, protocol_.deadline_exceeded
                         ? protocol_.deadline_exceeded()
                         : std::string("error: deadline exceeded\n"));
      continue;
    }
    std::string response =
        handler_ ? handler_(std::move(job->request), info) : std::string();
    reactor_.submit_response(job->conn, std::move(response));
  }
}

void Server::run() {
  std::vector<std::thread> solvers;
  const int threads = options_.solver_threads < 1 ? 1 : options_.solver_threads;
  solvers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    solvers.emplace_back(&Server::solver_loop, this);
  }
  // The reactor returns only once drained: every dispatched request has
  // been answered and written (solver completions keep waking it).
  reactor_.run();
  queue_.close();  // belt and braces; the drain already closed it
  for (std::thread& t : solvers) {
    t.join();
  }
}

}  // namespace net
}  // namespace fppn
