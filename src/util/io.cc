#include "src/util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace chameleon {
namespace {

/// One-line stderr diagnostic with errno context; every failure path
/// reports *why* (missing file, short read, full disk) instead of a
/// silent false.
void WarnIo(const char* op, const std::string& path, const char* detail) {
  if (errno != 0) {
    std::fprintf(stderr, "WARNING: %s(%s): %s: %s\n", op, path.c_str(),
                 detail, std::strerror(errno));
  } else {
    std::fprintf(stderr, "WARNING: %s(%s): %s\n", op, path.c_str(), detail);
  }
}

}  // namespace

bool ReadSosdFile(const std::string& path, std::vector<Key>* keys) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    WarnIo("ReadSosdFile", path, "cannot open");
    return false;
  }
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1) {
    WarnIo("ReadSosdFile", path, "cannot read key count header");
    std::fclose(f);
    return false;
  }
  keys->resize(count);
  // count == 0: data() may be null, which fread must not receive.
  const size_t read =
      count == 0 ? 0 : std::fread(keys->data(), sizeof(Key), count, f);
  std::fclose(f);
  if (read != count) {
    WarnIo("ReadSosdFile", path, "truncated: fewer keys than header claims");
    keys->clear();
    return false;
  }
  return true;
}

bool WriteSosdFile(const std::string& path, const std::vector<Key>& keys) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    WarnIo("WriteSosdFile", path, "cannot open");
    return false;
  }
  const uint64_t count = keys.size();
  bool ok = std::fwrite(&count, sizeof(count), 1, f) == 1;
  ok = ok && (count == 0 ||
              std::fwrite(keys.data(), sizeof(Key), count, f) == count);
  if (!ok) WarnIo("WriteSosdFile", path, "short write");
  if (std::fclose(f) != 0) {
    WarnIo("WriteSosdFile", path, "close failed");
    return false;
  }
  return ok;
}

bool FsyncDir(const std::string& dir) {
  const std::string path = dir.empty() ? "." : dir;
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  if (!ok) WarnIo("FsyncDir", path, "cannot open or fsync directory");
  if (fd >= 0) ::close(fd);
  return ok;
}

bool DurableRename(const std::string& from, const std::string& to) {
  errno = 0;
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    WarnIo("DurableRename", to, ("cannot rename " + from).c_str());
    return false;
  }
  return FsyncDir(std::filesystem::path(to).parent_path().string());
}

bool DurableWriteFile(const std::string& path,
                      const std::function<bool(std::FILE*)>& fill) {
  const std::string tmp = path + ".tmp";
  errno = 0;
  FilePtr f(std::fopen(tmp.c_str(), "w+b"));
  bool ok = f != nullptr && fill(f.get()) && std::fflush(f.get()) == 0 &&
            ::fsync(::fileno(f.get())) == 0;
  if (f != nullptr) ok = std::fclose(f.release()) == 0 && ok;
  if (!ok) WarnIo("DurableWriteFile", tmp, "open/write/fsync/close failed");
  if (!ok || !DurableRename(tmp, path)) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace chameleon
