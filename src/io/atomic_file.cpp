#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "testing/fault_injector.hpp"

namespace fppn::io {

namespace fs = std::filesystem;

namespace {

/// Full-buffer write with EINTR retry and short-write continuation —
/// POSIX write() may take fewer bytes than offered (signal, quota,
/// near-full disk) without that being an error. Returns false on a hard
/// failure (errno preserved). A transient EINTR is retried forever: the
/// caller owns no deadline here, and the write is local-file I/O.
bool write_all_bytes(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = testing::fault::file_write(fd, data + off, len - off);
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

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  static std::atomic<unsigned long> write_counter{0};
  const fs::path final_path(path);
  const fs::path tmp_path = final_path.string() + ".tmp." +
                            std::to_string(static_cast<long>(::getpid())) + "." +
                            std::to_string(write_counter.fetch_add(1));
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot write '" + tmp_path.string() + "'");
  }
  const auto discard_tmp = [&tmp_path] {
    std::error_code ec;
    fs::remove(tmp_path, ec);
  };
  if (!write_all_bytes(fd, content.data(), content.size())) {
    ::close(fd);
    discard_tmp();
    throw std::runtime_error("short write to '" + tmp_path.string() +
                             "' (disk full?)");
  }
  // Flush to stable storage before publishing: a rename that survives a
  // crash while its contents did not would be a *torn-by-power* file,
  // exactly what the temp-file dance exists to rule out.
  if (testing::fault::fsync(fd) != 0) {
    ::close(fd);
    discard_tmp();
    throw std::runtime_error("cannot sync '" + tmp_path.string() + "': " +
                             std::strerror(errno));
  }
  if (::close(fd) != 0) {
    discard_tmp();
    throw std::runtime_error("cannot sync '" + tmp_path.string() + "': " +
                             std::strerror(errno));
  }
  if (testing::fault::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const int err = errno;
    discard_tmp();
    throw std::runtime_error("cannot rename into '" + final_path.string() +
                             "': " + std::strerror(err));
  }
}

void ensure_directory(const std::string& directory, const std::string& context) {
  std::error_code ec;
  const fs::path dir(directory);
  if (fs::exists(dir, ec)) {
    if (!fs::is_directory(dir, ec)) {
      throw std::runtime_error(context + ": '" + directory +
                               "' exists but is not a directory");
    }
    return;
  }
  if (!dir.parent_path().empty() && !fs::exists(dir.parent_path(), ec)) {
    throw std::runtime_error(context + ": parent of '" + directory +
                             "' does not exist");
  }
  std::error_code create_ec;
  if (!fs::create_directory(dir, create_ec) || create_ec) {
    // A racing process may have created it between the exists() probe and
    // here — losing that race is success, not an error.
    std::error_code probe_ec;
    if (!fs::is_directory(dir, probe_ec)) {
      throw std::runtime_error(context + ": cannot create directory '" + directory +
                               "': " + create_ec.message());
    }
  }
}

}  // namespace fppn::io
