// Atomic whole-file publication, shared by every on-disk format writer
// (schedule-cache entries, fuzz repro files).
#pragma once

#include <string>

namespace fppn::io {

/// Writes `content` to `path` through a unique temp file (pid +
/// process-wide counter suffix), fsyncs it, then publishes with an
/// atomic rename, so concurrent readers — and other processes sharing
/// the directory, even over a network filesystem — never observe a torn
/// file; racing writers each publish a complete file and the last rename
/// wins. The write loop retries EINTR and continues short writes; every
/// step is a fault-injection site (testing::FaultInjector). Throws
/// std::runtime_error with the failing path on any I/O failure; the temp
/// file is removed on failure. Thread-safe.
void write_file_atomic(const std::string& path, const std::string& content);

/// Ensures `directory` exists as a directory: creates the leaf when
/// missing, refuses a missing parent (a typo'd path must fail loudly, not
/// scatter files somewhere unexpected), and tolerates losing a creation
/// race to a concurrent process. Throws std::runtime_error — messages
/// prefixed with `context` ("schedule cache", "fuzz repro directory") —
/// when the path exists as a non-directory, the parent is missing, or
/// creation genuinely fails. The shared loud-error contract of
/// ScheduleCache and the fuzz loop.
void ensure_directory(const std::string& directory, const std::string& context);

}  // namespace fppn::io
