#ifndef CHAMELEON_UTIL_IO_H_
#define CHAMELEON_UTIL_IO_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/common.h"

namespace chameleon {

/// Reads a key file in SOSD binary format: a uint64 count followed by
/// `count` little-endian uint64 keys. Returns false on I/O or format
/// error, after printing an errno-annotated diagnostic to stderr.
bool ReadSosdFile(const std::string& path, std::vector<Key>* keys);

/// Writes keys in SOSD binary format. Returns false on I/O error, after
/// printing an errno-annotated diagnostic to stderr.
bool WriteSosdFile(const std::string& path, const std::vector<Key>& keys);

// --- Durable storage files ---------------------------------------------------
// How every storage layer makes a file crash-safe. Each helper returns
// false after printing the same stderr diagnostic as the SOSD functions.

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
/// Owns a stdio stream; closes it unchecked on scope exit. A writer that
/// must see a failed close calls `std::fclose(f.release())` itself.
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// fsyncs directory `dir` ("" means ".") so the entries created, renamed
/// or removed in it survive a crash.
bool FsyncDir(const std::string& dir);

/// Renames `from` over `to`, then fsyncs `to`'s directory. If only the
/// directory fsync fails, `to` holds the new file but may not survive a
/// crash.
bool DurableRename(const std::string& from, const std::string& to);

/// Replaces `path` with what `fill` writes to `path + ".tmp"` (opened
/// "w+b", so `fill` may read back its bytes), then flushes, fsyncs and
/// closes it and DurableRenames it over `path`. On a failure before the
/// rename the tmp file is removed and `path` is left as it was.
bool DurableWriteFile(const std::string& path,
                      const std::function<bool(std::FILE*)>& fill);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_IO_H_
