// Tests for the segmented write-ahead log (storage/wal.h): record
// round trips, segment rotation, the torn-tail / mid-log-corruption
// replay classification, fsync policies, and fault injection.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/stats.h"
#include "src/storage/wal.h"

namespace chameleon {
namespace {

using obs::Counter;
using obs::StatsRegistry;

/// One decoded record captured during replay.
struct Rec {
  uint8_t type;
  std::vector<uint8_t> payload;
  bool operator==(const Rec&) const = default;
};

Wal::ReplayStatus ReplayAll(const Wal& wal, std::vector<Rec>* out,
                            size_t* replayed = nullptr) {
  out->clear();
  return wal.Replay(
      0,
      [out](uint8_t type, std::span<const uint8_t> payload) {
        out->push_back(Rec{type, {payload.begin(), payload.end()}});
      },
      replayed);
}

/// Per-test scratch directory, wiped on construction and destruction.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Appends `n` fixed-pattern records (type = i % 250, payload = 8
  /// bytes of i) and returns the expected replay transcript.
  std::vector<Rec> AppendPattern(Wal* wal, size_t n) {
    std::vector<Rec> expected;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t word = i;
      uint8_t payload[8];
      std::memcpy(payload, &word, 8);
      const uint8_t type = static_cast<uint8_t>(i % 250);
      EXPECT_TRUE(wal->Append(type, payload, sizeof(payload)));
      expected.push_back(Rec{type, {payload, payload + 8}});
    }
    return expected;
  }

  std::string dir_;
};

TEST_F(WalTest, AppendThenReplayRoundTrips) {
  Wal wal(dir_);
  ASSERT_TRUE(wal.Open());
  std::vector<Rec> expected = AppendPattern(&wal, 100);
  // A zero-length payload is legal too.
  ASSERT_TRUE(wal.Append(7, nullptr, 0));
  expected.push_back(Rec{7, {}});
  wal.Close();

  std::vector<Rec> got;
  size_t replayed = 0;
  ASSERT_EQ(ReplayAll(wal, &got, &replayed), Wal::ReplayStatus::kOk);
  EXPECT_EQ(replayed, expected.size());
  EXPECT_EQ(got, expected);
}

TEST_F(WalTest, RotatesSegmentsAndReplaysAcrossThem) {
  WalOptions options;
  options.segment_bytes = 256;  // force frequent rotation
  options.fsync = FsyncPolicy::kNone;
  Wal wal(dir_, options);
  ASSERT_TRUE(wal.Open());
  const std::vector<Rec> expected = AppendPattern(&wal, 200);
  wal.Close();

  const std::vector<uint64_t> segments = wal.ListSegments();
  EXPECT_GT(segments.size(), 3u) << "rotation never triggered";
  std::vector<Rec> got;
  ASSERT_EQ(ReplayAll(wal, &got), Wal::ReplayStatus::kOk);
  EXPECT_EQ(got, expected);
}

TEST_F(WalTest, OpenStartsFreshSegmentAfterHighestExisting) {
  Wal wal(dir_);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 10);
  const uint64_t first_seq = wal.current_seq();
  wal.Close();

  // Reopening never appends into the old (possibly torn) segment.
  ASSERT_TRUE(wal.Open());
  EXPECT_EQ(wal.current_seq(), first_seq + 1);
  AppendPattern(&wal, 5);
  wal.Close();

  std::vector<Rec> got;
  ASSERT_EQ(ReplayAll(wal, &got), Wal::ReplayStatus::kOk);
  EXPECT_EQ(got.size(), 15u);
}

TEST_F(WalTest, TornFinalRecordIsToleratedAndDropped) {
  Wal wal(dir_);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 20);
  const std::string path = wal.SegmentPath(wal.current_seq());
  wal.Close();

  // Chop the last record mid-payload: a crash during the final append.
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_TRUE(Wal::TruncateFileTo(path, size - 5));

  std::vector<Rec> got;
  size_t replayed = 0;
  ASSERT_EQ(ReplayAll(wal, &got, &replayed), Wal::ReplayStatus::kOk);
  EXPECT_EQ(replayed, 19u) << "torn record must be dropped, not replayed";
}

TEST_F(WalTest, FlippedCrcInFinalRecordIsToleratedAsTornTail) {
  Wal wal(dir_);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 20);
  const std::string path = wal.SegmentPath(wal.current_seq());
  wal.Close();

  // Flip one byte inside the *last* record (its payload ends at EOF):
  // indistinguishable from a torn in-place final append, so tolerated.
  const uint64_t size = std::filesystem::file_size(path);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size) - 3, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, static_cast<long>(size) - 3, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  std::vector<Rec> got;
  size_t replayed = 0;
  ASSERT_EQ(ReplayAll(wal, &got, &replayed), Wal::ReplayStatus::kOk);
  EXPECT_EQ(replayed, 19u);
}

TEST_F(WalTest, FlippedCrcMidLogHardFailsReplay) {
  Wal wal(dir_);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 20);
  const std::string path = wal.SegmentPath(wal.current_seq());
  wal.Close();

  // Damage a record in the *middle* of the segment: bytes follow it, so
  // the log was durable past this point — silent skipping would lose
  // acknowledged writes. Record layout: 16B segment header, then
  // 17-byte records (4 crc + 4 len + 1 type + 8 payload).
  const long mid_record_payload = 16 + 5 * 17 + 9 + 2;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, mid_record_payload, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, mid_record_payload, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  std::vector<Rec> got;
  EXPECT_EQ(ReplayAll(wal, &got), Wal::ReplayStatus::kCorrupt);
}

TEST_F(WalTest, CorruptionInNonFinalSegmentHardFailsEvenAtItsTail) {
  WalOptions options;
  options.fsync = FsyncPolicy::kNone;
  Wal wal(dir_, options);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 10);
  const std::string first = wal.SegmentPath(wal.current_seq());
  ASSERT_TRUE(wal.Rotate());
  AppendPattern(&wal, 10);
  wal.Close();

  // Truncating the *first* segment's tail is mid-log corruption: a
  // later segment exists, so that data was acknowledged and durable.
  const uint64_t size = std::filesystem::file_size(first);
  ASSERT_TRUE(Wal::TruncateFileTo(first, size - 5));
  std::vector<Rec> got;
  EXPECT_EQ(ReplayAll(wal, &got), Wal::ReplayStatus::kCorrupt);
}

TEST_F(WalTest, TruncateBeforeDeletesCoveredSegmentsOnly) {
  WalOptions options;
  options.segment_bytes = 256;
  options.fsync = FsyncPolicy::kNone;
  Wal wal(dir_, options);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 200);
  const uint64_t live = wal.current_seq();
  ASSERT_GT(live, 2u);

  const size_t removed = wal.TruncateBefore(live);
  EXPECT_EQ(removed, static_cast<size_t>(live));
  const std::vector<uint64_t> left = wal.ListSegments();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], live);

  // Replay from the truncation point still works.
  std::vector<Rec> got;
  wal.Close();
  EXPECT_EQ(wal.Replay(live, [&](uint8_t, std::span<const uint8_t>) {}),
            Wal::ReplayStatus::kOk);
}

TEST_F(WalTest, FsyncPolicyCountersMatchContract) {
#ifndef CHAMELEON_NO_STATS
  StatsRegistry& reg = StatsRegistry::Get();
  {
    reg.Reset();
    Wal wal(dir_ + "/always", WalOptions{.fsync = FsyncPolicy::kAlways});
    ASSERT_TRUE(wal.Open());
    AppendPattern(&wal, 10);
    EXPECT_EQ(reg.Total(Counter::kWalFsyncs), 10u);
    EXPECT_EQ(reg.Total(Counter::kWalAppends), 10u);
    // 10 records of 17 bytes each (4 crc + 4 len + 1 type + 8 payload).
    EXPECT_EQ(reg.Total(Counter::kWalBytes), 170u);
  }
  {
    reg.Reset();
    Wal wal(dir_ + "/every4",
            WalOptions{.fsync = FsyncPolicy::kEveryN, .fsync_every_n = 4});
    ASSERT_TRUE(wal.Open());
    AppendPattern(&wal, 10);
    EXPECT_EQ(reg.Total(Counter::kWalFsyncs), 2u) << "group commit of 4";
  }
  {
    reg.Reset();
    Wal wal(dir_ + "/none", WalOptions{.fsync = FsyncPolicy::kNone});
    ASSERT_TRUE(wal.Open());
    AppendPattern(&wal, 10);
    EXPECT_EQ(reg.Total(Counter::kWalFsyncs), 0u);
    ASSERT_TRUE(wal.Sync());  // explicit barrier still works
    EXPECT_EQ(reg.Total(Counter::kWalFsyncs), 1u);
  }
  reg.Reset();
#else
  GTEST_SKIP() << "counters compiled out";
#endif
}

TEST_F(WalTest, InjectedFsyncFailureFailsTheAppend) {
  Wal wal(dir_, WalOptions{.fsync = FsyncPolicy::kAlways});
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 3);
  wal.InjectFsyncFailure(2);  // the 2nd fsync from now fails
  const uint64_t word = 99;
  EXPECT_TRUE(wal.Append(1, &word, 8));
  EXPECT_FALSE(wal.Append(1, &word, 8)) << "append must not ack a failed fsync";
  EXPECT_TRUE(wal.Append(1, &word, 8)) << "fault is one-shot";
}

TEST_F(WalTest, FailedRotationFsyncFailsTheAppend) {
  // A commit window wider than the test: only the rotation's close
  // fsync could commit the first records.
  WalOptions options;
  options.segment_bytes = 100;
  options.fsync = FsyncPolicy::kEveryN;
  options.fsync_every_n = 1000;
  Wal wal(dir_, options);
  ASSERT_TRUE(wal.Open());
  const uint64_t first = wal.current_seq();
  AppendPattern(&wal, 5);  // 16-byte header + 5 x 17-byte records < 100
  ASSERT_EQ(wal.current_seq(), first);
  wal.InjectFsyncFailure(1);
  const uint64_t word = 5;
  EXPECT_FALSE(wal.Append(1, &word, 8))
      << "a rotation must not ack records its close fsync failed to sync";
  EXPECT_EQ(wal.committed_records(), 0u);
  EXPECT_EQ(wal.fsyncs(), 0u);
}

TEST_F(WalTest, SimulateCrashKeepsEverythingUnderFsyncAlways) {
  Wal wal(dir_, WalOptions{.fsync = FsyncPolicy::kAlways});
  ASSERT_TRUE(wal.Open());
  const std::vector<Rec> expected = AppendPattern(&wal, 50);
  wal.SimulateCrash();

  std::vector<Rec> got;
  ASSERT_EQ(ReplayAll(wal, &got), Wal::ReplayStatus::kOk);
  EXPECT_EQ(got, expected) << "fsync=always must lose zero acked writes";
}

TEST_F(WalTest, SimulateCrashDropsUnsyncedTailUnderFsyncNone) {
  Wal wal(dir_, WalOptions{.fsync = FsyncPolicy::kNone});
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 30);
  ASSERT_TRUE(wal.Sync());  // barrier: first 30 are durable
  AppendPattern(&wal, 20);  // never synced — lost in the crash
  wal.SimulateCrash();

  std::vector<Rec> got;
  size_t replayed = 0;
  ASSERT_EQ(ReplayAll(wal, &got, &replayed), Wal::ReplayStatus::kOk);
  EXPECT_EQ(replayed, 30u);
}

TEST_F(WalTest, ReplayOfEmptyOrMissingDirectoryIsOkAndEmpty) {
  Wal wal(dir_);
  std::vector<Rec> got;
  size_t replayed = 123;
  EXPECT_EQ(ReplayAll(wal, &got, &replayed), Wal::ReplayStatus::kOk);
  EXPECT_EQ(replayed, 0u);
}

// --- Group commit -----------------------------------------------------------
// Separate suite so CI can pick it up under TSan by name: the whole
// point is concurrent appenders sharing fsync barriers.

using WalGroupCommitTest = WalTest;

/// Runs `threads` appenders, each appending `per_thread` records of the
/// form [thread u8 type][seq u64 payload]; every Append must be
/// acknowledged.
void AppendConcurrently(Wal* wal, size_t threads, size_t per_thread) {
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([wal, t, per_thread] {
      for (size_t i = 0; i < per_thread; ++i) {
        const uint64_t word = t * per_thread + i;
        uint8_t payload[8];
        std::memcpy(payload, &word, 8);
        ASSERT_TRUE(wal->Append(static_cast<uint8_t>(t + 1), payload, 8));
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

TEST_F(WalGroupCommitTest, TwoWritersShareFsyncsUnderFsyncAlways) {
  constexpr size_t kThreads = 2;
  constexpr size_t kPerThread = 200;
  Wal wal(dir_);  // fsync=always
  ASSERT_TRUE(wal.Open());
  // Widen the commit window so the followers reliably pile up behind
  // the leader's fsync even on a fast tmpfs.
  wal.InjectSyncDelayForTest(std::chrono::microseconds(200));
  AppendConcurrently(&wal, kThreads, kPerThread);

  EXPECT_EQ(wal.appended_records(), kThreads * kPerThread);
  EXPECT_EQ(wal.committed_records(), kThreads * kPerThread)
      << "an acknowledged kAlways append was not covered by an fsync";
  // The group-commit win: strictly fewer fsyncs than records (each
  // leader fsync acks every record buffered before it). +1 allows
  // nothing — Open()'s header sync is not counted in fsyncs().
  EXPECT_LT(wal.fsyncs(), kThreads * kPerThread)
      << "writers never shared an fsync; group commit is not batching";
  EXPECT_GT(wal.fsyncs(), 0u);

  // Every acknowledged record survives the crash barrier.
  wal.SimulateCrash();
  std::vector<Rec> got;
  size_t replayed = 0;
  ASSERT_EQ(ReplayAll(wal, &got, &replayed), Wal::ReplayStatus::kOk);
  EXPECT_EQ(replayed, kThreads * kPerThread);
  // Per-thread suborder is preserved (each thread's payloads ascend).
  std::vector<uint64_t> last(kThreads + 1, 0);
  std::vector<size_t> counts(kThreads + 1, 0);
  for (const Rec& rec : got) {
    ASSERT_EQ(rec.payload.size(), 8u);
    ASSERT_GE(rec.type, 1u);
    ASSERT_LE(rec.type, kThreads);
    uint64_t word = 0;
    std::memcpy(&word, rec.payload.data(), 8);
    if (counts[rec.type] > 0) {
      EXPECT_GT(word, last[rec.type]);
    }
    last[rec.type] = word;
    ++counts[rec.type];
  }
  for (size_t t = 1; t <= kThreads; ++t) {
    EXPECT_EQ(counts[t], kPerThread) << "thread " << t;
  }
}

TEST_F(WalGroupCommitTest, ManyWritersStressWithRotation) {
  // TSan food: four appenders racing across segment rotations and the
  // kEveryN commit path, plus a concurrent Sync barrier caller.
  WalOptions options;
  options.segment_bytes = 1 << 12;  // rotate often
  options.fsync = FsyncPolicy::kEveryN;
  options.fsync_every_n = 16;
  Wal wal(dir_, options);
  ASSERT_TRUE(wal.Open());
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 500;
  std::thread syncer([&wal] {
    for (int i = 0; i < 50; ++i) {
      wal.Sync();
      std::this_thread::yield();
    }
  });
  AppendConcurrently(&wal, kThreads, kPerThread);
  syncer.join();
  EXPECT_EQ(wal.appended_records(), kThreads * kPerThread);
  ASSERT_TRUE(wal.Sync());
  EXPECT_EQ(wal.committed_records(), kThreads * kPerThread);
  wal.Close();

  std::vector<Rec> got;
  ASSERT_EQ(ReplayAll(wal, &got), Wal::ReplayStatus::kOk);
  EXPECT_EQ(got.size(), kThreads * kPerThread);
}

TEST_F(WalGroupCommitTest, SingleWriterKeepsHistoricalFsyncCounts) {
  // Group commit must not change the single-threaded contract: kAlways
  // still costs exactly one fsync per append.
  Wal wal(dir_);
  ASSERT_TRUE(wal.Open());
  AppendPattern(&wal, 25);
  EXPECT_EQ(wal.fsyncs(), 25u);
  EXPECT_EQ(wal.committed_records(), 25u);
  // A Sync with nothing outstanding is free.
  ASSERT_TRUE(wal.Sync());
  EXPECT_EQ(wal.fsyncs(), 25u);
  wal.Close();
}

}  // namespace
}  // namespace chameleon
