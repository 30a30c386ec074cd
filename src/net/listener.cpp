#include "net/listener.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "testing/fault_injector.hpp"

namespace fppn {
namespace net {

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// getaddrinfo wrapper (numeric service, IPv4-first): one resolved
/// address or a thrown std::runtime_error naming the failure.
struct ResolvedAddress {
  sockaddr_storage storage{};
  socklen_t length = 0;
  int family = AF_INET;
};

ResolvedAddress resolve_tcp(const std::string& host, std::uint16_t port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* list = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(),
                               &hints, &list);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve '" + host + "': " + ::gai_strerror(rc));
  }
  // Prefer IPv4: the daemon's flag syntax is HOST:PORT, which cannot
  // express bracketed IPv6 literals anyway.
  const addrinfo* chosen = list;
  for (const addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    if (ai->ai_family == AF_INET) {
      chosen = ai;
      break;
    }
  }
  ResolvedAddress out;
  out.length = static_cast<socklen_t>(chosen->ai_addrlen);
  out.family = chosen->ai_family;
  std::memcpy(&out.storage, chosen->ai_addr, chosen->ai_addrlen);
  ::freeaddrinfo(list);
  return out;
}

std::uint16_t bound_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in&>(addr).sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6&>(addr).sin6_port);
  }
  return 0;
}

}  // namespace

Endpoint Endpoint::unix_socket(std::string socket_path) {
  Endpoint ep;
  ep.kind = Kind::kUnix;
  ep.path = std::move(socket_path);
  return ep;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint ep;
  ep.kind = Kind::kTcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

Endpoint Endpoint::parse_tcp(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument("expected HOST:PORT, got '" + text + "'");
  }
  const std::string host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("expected a numeric port in '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (errno == ERANGE || port < 0 || port > 65535) {
    throw std::invalid_argument("port out of range 0..65535 in '" + text + "'");
  }
  return tcp(host, static_cast<std::uint16_t>(port));
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) {
    return "unix:'" + path + "'";
  }
  return "tcp " + host + ":" + std::to_string(port);
}

Listener Listener::listen(const Endpoint& endpoint, int backlog) {
  Endpoint bound = endpoint;
  int fd = -1;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    // A stale socket file from a previous run would make bind fail; the
    // daemon owns its path, so clear it first.
    ::unlink(endpoint.path.c_str());
    sockaddr_un addr;
    try {
      addr = unix_address(endpoint.path);
    } catch (...) {
      ::close(fd);
      throw;
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, backlog) < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot listen on " + endpoint.describe() + ": " +
                               std::strerror(err));
    }
  } else {
    ResolvedAddress addr;
    try {
      addr = resolve_tcp(endpoint.host, endpoint.port, /*passive=*/true);
    } catch (const std::exception& e) {
      throw std::runtime_error("cannot listen on " + endpoint.describe() + ": " +
                               e.what());
    }
    fd = ::socket(addr.family, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr.storage), addr.length) < 0 ||
        ::listen(fd, backlog) < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot listen on " + endpoint.describe() + ": " +
                               std::strerror(err));
    }
    bound.port = bound_port(fd);
  }
  set_nonblocking(fd);
  return Listener(fd, std::move(bound));
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), endpoint_(std::move(other.endpoint_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    other.fd_ = -1;
  }
  return *this;
}

Listener::~Listener() { close(); }

int Listener::accept_connection() const {
  if (fd_ < 0) {
    return -1;
  }
  // Transient failures (EINTR, EAGAIN, ECONNABORTED) all return -1: the
  // listener stays in the poll set and level-triggered readiness retries
  // the accept on the next loop — no explicit retry loop needed.
  const int conn = testing::fault::accept(fd_);
  if (conn < 0) {
    return -1;
  }
  set_nonblocking(conn);
  return conn;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      ::unlink(endpoint_.path.c_str());
    }
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

int connect_endpoint(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr;
    try {
      addr = unix_address(endpoint.path);
    } catch (...) {
      ::close(fd);
      errno = ENAMETOOLONG;
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      return -1;
    }
    return fd;
  }
  ResolvedAddress addr;
  try {
    addr = resolve_tcp(endpoint.host, endpoint.port, /*passive=*/false);
  } catch (...) {
    errno = EHOSTUNREACH;
    return -1;
  }
  const int fd = ::socket(addr.family, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr.storage), addr.length) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_to_eof(int fd) {
  std::string data;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return data;
    }
  }
}

std::optional<std::string> exchange(const Endpoint& endpoint,
                                    const std::string& request) {
  const int fd = connect_endpoint(endpoint);
  if (fd < 0) {
    return std::nullopt;
  }
  (void)write_all(fd, request);
  ::shutdown(fd, SHUT_WR);  // EOF-frames the request
  std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

}  // namespace net
}  // namespace fppn
