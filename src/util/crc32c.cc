#include "src/util/crc32c.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace chameleon {
namespace {

// Slice-by-4 tables for the reflected Castagnoli polynomial, generated
// at compile time. table[0] is the classic byte-at-a-time table;
// table[k][b] is table[0] advanced k extra zero bytes, letting the loop
// fold four input bytes per iteration.
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::array<uint32_t, 256>, 4> MakeTables() {
  std::array<std::array<uint32_t, 256>, 4> t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    for (int k = 1; k < 4; ++k) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = MakeTables();

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes exactly this polynomial. Only
// this function is compiled for SSE4.2 (a target attribute, not a
// per-file -msse4.2), so the compiler cannot emit SSE4.2 anywhere else
// in this file; it runs only after the CPU check in UseSse42().
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const unsigned char* p, size_t n) {
  uint64_t crc64 = ~crc;
  while (n >= 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, p, 8);
    crc64 = _mm_crc32_u64(crc64, chunk);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --n;
  }
  return ~crc32;
}

bool UseSse42() {
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
}
#else
bool UseSse42() { return false; }
#endif

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = kTables[3][crc & 0xFF] ^ kTables[2][(crc >> 8) & 0xFF] ^
          kTables[1][(crc >> 16) & 0xFF] ^ kTables[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFF];
    --n;
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#if defined(__x86_64__)
  if (UseSse42()) {
    return Crc32cExtendSse42(crc, static_cast<const unsigned char*>(data), n);
  }
#endif
  return Crc32cExtendPortable(crc, data, n);
}

const char* Crc32cImplementation() {
  return UseSse42() ? "sse4.2" : "portable";
}

}  // namespace chameleon
