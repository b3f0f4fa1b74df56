// Tests for the CRC-32C implementation guarding WAL records, snapshots
// and tiered pages (util/crc32c.h): known vectors, and the run-time
// dispatched path checked against the portable table path.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tiered/page_file.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"

namespace chameleon {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check values (RFC 3720 appendix B.4 / every
  // implementation's smoke test), on the dispatched and portable paths.
  const std::vector<unsigned char> zeros(32, 0);
  const std::vector<unsigned char> ones(32, 0xFF);
  std::vector<unsigned char> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<unsigned char>(i);
  }
  for (auto crc : {&Crc32cExtend, &Crc32cExtendPortable}) {
    EXPECT_EQ(crc(0, "123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc(0, "", 0), 0x00000000u);
    EXPECT_EQ(crc(0, "a", 1), 0xC1D04330u);
    EXPECT_EQ(crc(0, zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(0, ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(0, ascending.data(), ascending.size()), 0x46DD794Eu);
  }
}

TEST(Crc32cTest, ImplementationIsNamed) {
  const std::string impl = Crc32cImplementation();
#if defined(__x86_64__)
  EXPECT_EQ(impl, __builtin_cpu_supports("sse4.2") ? "sse4.2" : "portable");
#else
  EXPECT_EQ(impl, "portable");
#endif
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  // Covers every tail length of the 8-byte hardware fold and of the
  // 4-byte table fold, at every alignment of the start pointer.
  Rng rng(31);
  std::vector<unsigned char> data(4200 + 16);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  for (size_t off = 0; off < 16; ++off) {
    for (size_t len = 0; len <= 4200; ++len) {
      const uint32_t seed = static_cast<uint32_t>(len * 0x9E3779B9u);
      ASSERT_EQ(Crc32cExtend(seed, data.data() + off, len),
                Crc32cExtendPortable(seed, data.data() + off, len))
          << "off " << off << " len " << len;
    }
  }
}

TEST(Crc32cTest, ChainedExtendMatchesPortableAcrossSplits) {
  Rng rng(37);
  std::vector<unsigned char> data(4096 + 13);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32cExtendPortable(0, data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split += 7) {
    for (size_t second = split; second <= data.size();
         second += 1 + (data.size() - split) / 5) {
      // Dispatched, portable, dispatched: a running CRC handed from one
      // path to the other must continue exactly.
      uint32_t crc = Crc32cExtend(0, data.data(), split);
      crc = Crc32cExtendPortable(crc, data.data() + split, second - split);
      crc = Crc32cExtend(crc, data.data() + second, data.size() - second);
      ASSERT_EQ(crc, whole) << "split " << split << " second " << second;
    }
  }
}

TEST(Crc32cTest, RealPageImageVerifiesOnBothPaths) {
  // A data page as PageFile writes it: the stored word at offset 0 is
  // the CRC of bytes [8, page_size), computed by the dispatched path.
  const std::string dir = ::testing::TempDir() + "/crc32c_page_image";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/main.pages";
  constexpr size_t kPage = 4096;
  {
    auto file = tiered::PageFile::Create(path);
    ASSERT_NE(file, nullptr);
    auto buf = tiered::PageFile::AllocateAligned(kPage);
    const size_t n = file->entries_per_page();
    tiered::PageFile::SetPageCount(buf.get(), static_cast<uint32_t>(n));
    KeyValue* entries = tiered::PageFile::PageEntries(buf.get());
    for (size_t i = 0; i < n; ++i) {
      entries[i] = {static_cast<Key>(i * 977 + 5), static_cast<Value>(i)};
    }
    ASSERT_TRUE(file->WritePage(0, buf.get()));
    ASSERT_TRUE(file->SyncHeader(n));
  }
  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> page(kPage);
  in.seekg(kPage);  // page 0 of the file is the header page
  ASSERT_TRUE(in.read(reinterpret_cast<char*>(page.data()), kPage));
  uint32_t stored;
  std::memcpy(&stored, page.data(), sizeof(stored));
  EXPECT_EQ(stored, Crc32cExtendPortable(0, page.data() + 8, kPage - 8));
  EXPECT_EQ(stored, Crc32c(page.data() + 8, kPage - 8));
  std::filesystem::remove_all(dir);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  Rng rng(17);
  std::vector<unsigned char> data(4097);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32c(data.data(), data.size());
  // Any split point must produce the same value.
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                       size_t{4000}, data.size()}) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string msg = "the WAL record this checksum protects";
  const uint32_t good = Crc32c(msg.data(), msg.size());
  for (size_t byte = 0; byte < msg.size(); byte += 3) {
    for (int bit = 0; bit < 8; bit += 5) {
      msg[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(msg.data(), msg.size()), good)
          << "byte " << byte << " bit " << bit;
      msg[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

TEST(Crc32cTest, UnalignedStartsMatch) {
  // The hardware path folds 8 bytes at a time; make sure odd offsets
  // and lengths agree with a byte-at-a-time reference via Extend.
  Rng rng(23);
  std::vector<unsigned char> data(257);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next());
  for (size_t off = 0; off < 9; ++off) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{8}, size_t{15},
                       size_t{100}}) {
      uint32_t byte_wise = 0;
      for (size_t i = 0; i < len; ++i) {
        byte_wise = Crc32cExtend(byte_wise, data.data() + off + i, 1);
      }
      EXPECT_EQ(Crc32c(data.data() + off, len), byte_wise)
          << "off " << off << " len " << len;
    }
  }
}

}  // namespace
}  // namespace chameleon
