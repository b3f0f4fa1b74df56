#ifndef CHAMELEON_UTIL_CRC32C_H_
#define CHAMELEON_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace chameleon {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum guarding every WAL record, snapshot, shards.meta file
/// and tiered data page. The path is chosen once per process at run
/// time: the SSE4.2 `crc32` instruction when the CPU has it (x86-64),
/// else a portable slice-by-4 table loop. Both produce bit-identical
/// values, so files written on one host verify on any other.
///
/// `Crc32c(data, n)` is the standard one-shot form (e.g.
/// Crc32c("123456789", 9) == 0xE3069283). `Crc32cExtend` continues a
/// running checksum so callers can checksum a record assembled in
/// pieces without concatenating buffers.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The table-driven path, runnable on any CPU; Crc32cExtend uses it when
/// the hardware path is unavailable. Exposed for differential tests.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

/// The path Crc32cExtend dispatches to in this process: "sse4.2" or
/// "portable".
const char* Crc32cImplementation();

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_CRC32C_H_
