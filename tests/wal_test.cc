// WAL unit tests: record encode/replay roundtrips for every record kind
// and value type, truncation, file persistence, and corruption handling —
// including the recovery split between a torn tail (truncated, prefix
// kept) and mid-log corruption (hard error).
#include "txn/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace pdtstore {
namespace {

// Writes the whole log to `path` the way a Database persists it: through
// a WalWriter, by the group-commit SyncTo.
void PersistLog(Wal* wal, const std::string& path) {
  auto writer = WalWriter::Open(FileSystem::Default(), path,
                                /*truncate=*/true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  wal->SetWriter(writer->get());
  EXPECT_TRUE(wal->SyncTo(wal->SizeBytes()).ok());
  wal->SetWriter(nullptr);
}

// A three-record committed log written to `path`; returns its size.
uint64_t WriteSampleLog(const std::string& path) {
  Wal wal;
  wal.LogBegin(1);
  wal.LogInsert(1, "t", {int64_t{1}, std::string("one")});
  wal.LogCommit(1);
  PersistLog(&wal, path);
  return wal.SizeBytes();
}

std::string ReadAll(const std::string& path) {
  std::string data;
  EXPECT_TRUE(FileSystem::Default()->ReadFileToString(path, &data).ok());
  return data;
}

void WriteAll(const std::string& path, const std::string& data) {
  auto f = FileSystem::Default()->NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data).ok());
  ASSERT_TRUE((*f)->Close().ok());
}

TEST(WalTest, RoundtripsAllRecordKinds) {
  Wal wal;
  wal.LogBegin(7);
  wal.LogInsert(7, "t", {int64_t{42}, 3.5, std::string("hi")});
  wal.LogModify(7, "t", {Value(42)}, 2, Value("patched"));
  wal.LogDelete(7, "t", {Value(42)});
  wal.LogCommit(7);
  wal.LogAbort(8);
  wal.LogCheckpoint("t");
  EXPECT_EQ(wal.RecordCount(), 7u);

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& r) {
                   records.push_back(r);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[0].txn_id, 7u);
  EXPECT_EQ(records[1].type, WalRecordType::kInsert);
  ASSERT_EQ(records[1].tuple.size(), 3u);
  EXPECT_EQ(records[1].tuple[0], Value(42));
  EXPECT_DOUBLE_EQ(records[1].tuple[1].AsDouble(), 3.5);
  EXPECT_EQ(records[1].tuple[2], Value("hi"));
  EXPECT_EQ(records[2].type, WalRecordType::kModify);
  EXPECT_EQ(records[2].column, 2u);
  EXPECT_EQ(records[2].value, Value("patched"));
  EXPECT_EQ(records[3].type, WalRecordType::kDelete);
  EXPECT_EQ(records[3].key[0], Value(42));
  EXPECT_EQ(records[4].type, WalRecordType::kCommit);
  EXPECT_EQ(records[5].type, WalRecordType::kAbort);
  EXPECT_EQ(records[5].txn_id, 8u);
  EXPECT_EQ(records[6].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[6].table, "t");
}

TEST(WalTest, LsnsAreMonotonic) {
  Wal wal;
  uint64_t a = wal.LogBegin(1);
  uint64_t b = wal.LogCommit(1);
  uint64_t c = wal.LogBegin(2);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(WalTest, TruncateEmptiesLog) {
  Wal wal;
  wal.LogBegin(1);
  wal.LogCommit(1);
  wal.Truncate();
  EXPECT_EQ(wal.SizeBytes(), 0u);
  EXPECT_EQ(wal.RecordCount(), 0u);
  int seen = 0;
  ASSERT_TRUE(wal.Replay([&](const WalRecord&) {
                   ++seen;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(seen, 0);
}

TEST(WalTest, FileRoundtrip) {
  Wal wal;
  wal.LogBegin(1);
  wal.LogInsert(1, "accounts", {std::string("alice"), int64_t{100}});
  wal.LogCommit(1);
  std::string path = ::testing::TempDir() + "/wal_roundtrip.bin";
  PersistLog(&wal, path);
  Wal loaded;
  auto stats = loaded.RecoverFrom(FileSystem::Default(), path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->tail_truncated);
  EXPECT_EQ(loaded.SizeBytes(), wal.SizeBytes());
  EXPECT_EQ(loaded.RecordCount(), 3u);
}

TEST(WalTest, ReplayCallbackErrorPropagates) {
  Wal wal;
  wal.LogBegin(1);
  wal.LogCommit(1);
  Status st = wal.Replay([](const WalRecord& r) {
    if (r.type == WalRecordType::kCommit) {
      return Status::Internal("stop");
    }
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(WalTest, NegativeAndExtremeValuesRoundtrip) {
  Wal wal;
  wal.LogInsert(1, "t",
                {int64_t{-1}, int64_t{INT64_MIN}, int64_t{INT64_MAX},
                 -0.0, 1e-300, std::string()});
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& r) {
                   records.push_back(r);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].tuple[0], Value(int64_t{-1}));
  EXPECT_EQ(records[0].tuple[1], Value(int64_t{INT64_MIN}));
  EXPECT_EQ(records[0].tuple[2], Value(int64_t{INT64_MAX}));
  EXPECT_DOUBLE_EQ(records[0].tuple[3].AsDouble(), -0.0);
  EXPECT_DOUBLE_EQ(records[0].tuple[4].AsDouble(), 1e-300);
  EXPECT_EQ(records[0].tuple[5], Value(""));
}

TEST(WalTest, ReplayReappendReproducesIdenticalBytes) {
  // The frame codec is canonical: decoding every record and appending
  // them into a fresh log reproduces the original bytes exactly, so a
  // recovered log continues at precisely the old offsets.
  Wal wal;
  wal.LogBegin(3);
  wal.LogInsert(3, "t", {int64_t{-9}, 2.25, std::string("x")});
  wal.LogModify(3, "t", {Value(int64_t{-9})}, 1, Value(7.5));
  wal.LogDelete(3, "t", {Value(int64_t{-9})});
  wal.LogCommit(3);
  wal.LogCheckpoint("t");
  std::string a = ::testing::TempDir() + "/wal_bytes_a.bin";
  std::string b = ::testing::TempDir() + "/wal_bytes_b.bin";
  PersistLog(&wal, a);
  Wal rebuilt;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& r) {
                   rebuilt.Append(r);
                   return Status::OK();
                 })
                  .ok());
  PersistLog(&rebuilt, b);
  EXPECT_EQ(ReadAll(a), ReadAll(b));
}

TEST(WalTest, RecoverFromMissingFileIsEmptyLog) {
  Wal wal;
  wal.LogBegin(9);  // stale contents must be dropped by recovery
  auto stats =
      wal.RecoverFrom(FileSystem::Default(),
                      ::testing::TempDir() + "/no_such_wal.bin");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records, 0u);
  EXPECT_EQ(stats->valid_bytes, 0u);
  EXPECT_FALSE(stats->tail_truncated);
  EXPECT_EQ(wal.RecordCount(), 0u);
}

TEST(WalTest, RecoverFromEmptyFileIsEmptyLog) {
  std::string path = ::testing::TempDir() + "/wal_empty.bin";
  WriteAll(path, "");
  Wal wal;
  auto stats = wal.RecoverFrom(FileSystem::Default(), path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records, 0u);
  EXPECT_FALSE(stats->tail_truncated);
}

TEST(WalTest, RecoverTruncatesTornTail) {
  // Cut the final frame short — the torn write a crash mid-append
  // leaves. Recovery keeps the intact prefix and trims the file.
  std::string path = ::testing::TempDir() + "/wal_torn.bin";
  uint64_t full = WriteSampleLog(path);
  std::string data = ReadAll(path);
  WriteAll(path, data.substr(0, data.size() - 5));

  Wal wal;
  auto stats = wal.RecoverFrom(FileSystem::Default(), path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->tail_truncated);
  EXPECT_EQ(stats->records, 2u);  // begin + insert survive; commit torn
  EXPECT_LT(stats->valid_bytes, full);
  EXPECT_EQ(wal.SizeBytes(), stats->valid_bytes);
  // The file itself was truncated to the valid prefix.
  EXPECT_EQ(ReadAll(path).size(), stats->valid_bytes);
  // And the recovered log replays cleanly (strict scan passes now).
  size_t seen = 0;
  ASSERT_TRUE(wal.Replay([&](const WalRecord&) {
                   ++seen;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(seen, 2u);
}

TEST(WalTest, RecoverTreatsCorruptFinalFrameAsTornTail) {
  // A bit flip inside the LAST frame is indistinguishable from a torn
  // write of that frame, so it is truncated, not fatal.
  std::string path = ::testing::TempDir() + "/wal_last_flip.bin";
  WriteSampleLog(path);
  std::string data = ReadAll(path);
  data[data.size() - 1] ^= 0x40;
  WriteAll(path, data);

  Wal wal;
  auto stats = wal.RecoverFrom(FileSystem::Default(), path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->tail_truncated);
  EXPECT_EQ(stats->records, 2u);
}

TEST(WalTest, RecoverReportsMidLogCorruption) {
  // A bad frame with valid data after it is NOT a crash artifact —
  // recovery must refuse rather than silently drop committed records.
  std::string path = ::testing::TempDir() + "/wal_midflip.bin";
  WriteSampleLog(path);
  std::string data = ReadAll(path);
  data[20] ^= 0x01;  // inside the first frame's payload
  WriteAll(path, data);

  Wal wal;
  auto stats = wal.RecoverFrom(FileSystem::Default(), path);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, RecoverRejectsRelocatedFrames) {
  // Frames carry their own offset in the checksummed LSN: a log whose
  // bytes were shifted (e.g. a hole dropped by a broken copy) has valid
  // CRCs but wrong positions, and must be rejected, not replayed.
  std::string a = ::testing::TempDir() + "/wal_reloc_a.bin";
  std::string path = ::testing::TempDir() + "/wal_reloc.bin";
  WriteSampleLog(a);
  std::string data = ReadAll(a);
  // Drop the first frame: the remaining frames' LSNs no longer match
  // their new offsets.
  uint32_t len0 = 0;
  std::memcpy(&len0, data.data(), sizeof(len0));
  WriteAll(path, data.substr(16 + len0));

  Wal wal;
  auto stats = wal.RecoverFrom(FileSystem::Default(), path);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, RecoverRejectsInsaneFrameLength) {
  // A length prefix beyond the sanity bound with data after it reads as
  // corruption, not as a (2GiB) torn tail.
  std::string path = ::testing::TempDir() + "/wal_len.bin";
  WriteSampleLog(path);
  std::string data = ReadAll(path);
  uint32_t huge = 0x7FFFFFFF;
  std::memcpy(data.data(), &huge, sizeof(huge));
  WriteAll(path, data);

  Wal wal;
  auto stats = wal.RecoverFrom(FileSystem::Default(), path);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, CheckpointRecordMidLogReplaysInOrder) {
  Wal wal;
  wal.LogBegin(1);
  wal.LogInsert(1, "t", {int64_t{1}});
  wal.LogCommit(1);
  wal.LogCheckpoint("t");
  wal.LogBegin(2);
  wal.LogInsert(2, "t", {int64_t{2}});
  wal.LogCommit(2);
  std::vector<WalRecordType> types;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& r) {
                   types.push_back(r.type);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(types.size(), 7u);
  EXPECT_EQ(types[3], WalRecordType::kCheckpoint);
  EXPECT_EQ(types[6], WalRecordType::kCommit);
}

TEST(WalTest, TakeUnflushedHandsOutEachSuffixOnce) {
  Wal wal;
  wal.LogBegin(1);
  uint64_t end = 0;
  std::string first = wal.TakeUnflushed(&end);
  EXPECT_EQ(first.size(), end);
  EXPECT_EQ(end, wal.SizeBytes());
  // Nothing new appended: the second take is empty.
  EXPECT_TRUE(wal.TakeUnflushed(&end).empty());
  wal.LogCommit(1);
  std::string second = wal.TakeUnflushed(&end);
  EXPECT_FALSE(second.empty());
  EXPECT_EQ(first.size() + second.size(), wal.SizeBytes());
  EXPECT_EQ(end, wal.SizeBytes());
}

}  // namespace
}  // namespace pdtstore
