// WAL unit tests: op encode/replay roundtrips for every op kind and
// value type, one frame per transaction, truncation, file persistence,
// and corruption handling — including the recovery split between a torn
// tail (truncated, prefix kept) and mid-log corruption (hard error).
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

// One transaction's payload: a single insert of `k`.
std::string InsertPayload(int64_t k) {
  std::string payload;
  Wal::EncodeInsert(&payload, "t", {k, std::string("row")});
  return payload;
}

// A three-transaction log written to `path`; returns its size.
uint64_t WriteSampleLog(const std::string& path) {
  Wal wal;
  for (int64_t k = 1; k <= 3; ++k) wal.Append(InsertPayload(k));
  PersistLog(&wal, path);
  return wal.SizeBytes();
}

// Every frame of `wal`, one op list per frame.
std::vector<std::vector<WalRecord>> Frames(const Wal& wal) {
  std::vector<std::vector<WalRecord>> frames;
  EXPECT_TRUE(wal.Replay([&](const std::vector<WalRecord>& ops) {
                   frames.push_back(ops);
                   return Status::OK();
                 })
                  .ok());
  return frames;
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

TEST(WalTest, RoundtripsAllOpKindsInOneFrame) {
  Wal wal;
  std::string payload;
  Wal::EncodeInsert(&payload, "t", {int64_t{42}, 3.5, std::string("hi")});
  Wal::EncodeModify(&payload, "u", {Value(42)}, 2, Value("patched"));
  Wal::EncodeDelete(&payload, "t", {Value(42)});
  wal.Append(payload);
  EXPECT_EQ(wal.RecordCount(), 1u);

  const auto frames = Frames(wal);
  ASSERT_EQ(frames.size(), 1u);
  const std::vector<WalRecord>& ops = frames[0];
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].type, WalRecordType::kInsert);
  EXPECT_EQ(ops[0].table, "t");
  ASSERT_EQ(ops[0].tuple.size(), 3u);
  EXPECT_EQ(ops[0].tuple[0], Value(42));
  EXPECT_DOUBLE_EQ(ops[0].tuple[1].AsDouble(), 3.5);
  EXPECT_EQ(ops[0].tuple[2], Value("hi"));
  EXPECT_EQ(ops[1].type, WalRecordType::kModify);
  EXPECT_EQ(ops[1].table, "u");
  EXPECT_EQ(ops[1].key[0], Value(42));
  EXPECT_EQ(ops[1].column, 2u);
  EXPECT_EQ(ops[1].value, Value("patched"));
  EXPECT_EQ(ops[2].type, WalRecordType::kDelete);
  EXPECT_EQ(ops[2].table, "t");
  EXPECT_EQ(ops[2].key[0], Value(42));
}

TEST(WalTest, AppendReturnsGrowingEndOffsets) {
  Wal wal;
  const std::string first = InsertPayload(1);
  const uint64_t a = wal.Append(first);
  EXPECT_EQ(a, 16 + first.size());  // frame header + payload
  const uint64_t b = wal.Append(InsertPayload(2));
  EXPECT_LT(a, b);
  EXPECT_EQ(b, wal.SizeBytes());
}

TEST(WalTest, TruncateEmptiesLog) {
  Wal wal;
  wal.Append(InsertPayload(1));
  wal.Truncate();
  EXPECT_EQ(wal.SizeBytes(), 0u);
  EXPECT_EQ(wal.RecordCount(), 0u);
  EXPECT_TRUE(Frames(wal).empty());
}

TEST(WalTest, FileRoundtrip) {
  Wal wal;
  std::string payload;
  Wal::EncodeInsert(&payload, "accounts",
                    {std::string("alice"), int64_t{100}});
  Wal::EncodeDelete(&payload, "accounts", {Value("bob")});
  wal.Append(payload);
  wal.Append(InsertPayload(7));
  std::string path = ::testing::TempDir() + "/wal_roundtrip.bin";
  PersistLog(&wal, path);
  Wal loaded;
  auto stats = loaded.RecoverFrom(FileSystem::Default(), path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->tail_truncated);
  EXPECT_EQ(loaded.SizeBytes(), wal.SizeBytes());
  EXPECT_EQ(loaded.RecordCount(), 2u);
  const auto frames = Frames(loaded);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].size(), 2u);
  EXPECT_EQ(frames[1].size(), 1u);
}

TEST(WalTest, ReplayCallbackErrorPropagates) {
  Wal wal;
  wal.Append(InsertPayload(1));
  wal.Append(InsertPayload(2));
  int calls = 0;
  Status st = wal.Replay([&](const std::vector<WalRecord>&) {
    return ++calls == 2 ? Status::Internal("stop") : Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 2);
}

TEST(WalTest, NegativeAndExtremeValuesRoundtrip) {
  Wal wal;
  std::string payload;
  Wal::EncodeInsert(&payload, "t",
                    {int64_t{-1}, int64_t{INT64_MIN}, int64_t{INT64_MAX},
                     -0.0, 1e-300, std::string()});
  wal.Append(payload);
  const auto frames = Frames(wal);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].size(), 1u);
  const Tuple& tuple = frames[0][0].tuple;
  EXPECT_EQ(tuple[0], Value(int64_t{-1}));
  EXPECT_EQ(tuple[1], Value(int64_t{INT64_MIN}));
  EXPECT_EQ(tuple[2], Value(int64_t{INT64_MAX}));
  EXPECT_DOUBLE_EQ(tuple[3].AsDouble(), -0.0);
  EXPECT_DOUBLE_EQ(tuple[4].AsDouble(), 1e-300);
  EXPECT_EQ(tuple[5], Value(""));
}

TEST(WalTest, ReplayReappendReproducesIdenticalBytes) {
  // The frame codec is canonical: decoding every frame and re-encoding
  // its ops into a fresh log reproduces the original bytes exactly, so a
  // recovered log continues at precisely the old offsets.
  Wal wal;
  std::string payload;
  Wal::EncodeInsert(&payload, "t", {int64_t{-9}, 2.25, std::string("x")});
  Wal::EncodeModify(&payload, "t", {Value(int64_t{-9})}, 1, Value(7.5));
  Wal::EncodeDelete(&payload, "t", {Value(int64_t{-9})});
  wal.Append(payload);
  wal.Append(InsertPayload(3));
  std::string a = ::testing::TempDir() + "/wal_bytes_a.bin";
  std::string b = ::testing::TempDir() + "/wal_bytes_b.bin";
  PersistLog(&wal, a);
  Wal rebuilt;
  ASSERT_TRUE(wal.Replay([&](const std::vector<WalRecord>& ops) {
                   std::string p;
                   for (const WalRecord& r : ops) {
                     switch (r.type) {
                       case WalRecordType::kInsert:
                         Wal::EncodeInsert(&p, r.table, r.tuple);
                         break;
                       case WalRecordType::kDelete:
                         Wal::EncodeDelete(&p, r.table, r.key);
                         break;
                       case WalRecordType::kModify:
                         Wal::EncodeModify(&p, r.table, r.key, r.column,
                                           r.value);
                         break;
                     }
                   }
                   rebuilt.Append(p);
                   return Status::OK();
                 })
                  .ok());
  PersistLog(&rebuilt, b);
  EXPECT_EQ(ReadAll(a), ReadAll(b));
}

TEST(WalTest, RecoverFromMissingFileIsEmptyLog) {
  Wal wal;
  wal.Append(InsertPayload(9));  // stale contents must be dropped
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
  EXPECT_EQ(stats->records, 2u);  // the first two transactions survive
  EXPECT_LT(stats->valid_bytes, full);
  EXPECT_EQ(wal.SizeBytes(), stats->valid_bytes);
  // The file itself was truncated to the valid prefix.
  EXPECT_EQ(ReadAll(path).size(), stats->valid_bytes);
  // And the recovered log replays cleanly (strict scan passes now).
  EXPECT_EQ(Frames(wal).size(), 2u);
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

TEST(WalTest, TakeUnflushedHandsOutEachSuffixOnce) {
  Wal wal;
  wal.Append(InsertPayload(1));
  uint64_t end = 0;
  std::string first = wal.TakeUnflushed(&end);
  EXPECT_EQ(first.size(), end);
  EXPECT_EQ(end, wal.SizeBytes());
  // Nothing new appended: the second take is empty.
  EXPECT_TRUE(wal.TakeUnflushed(&end).empty());
  wal.Append(InsertPayload(2));
  std::string second = wal.TakeUnflushed(&end);
  EXPECT_FALSE(second.empty());
  EXPECT_EQ(first.size() + second.size(), wal.SizeBytes());
  EXPECT_EQ(end, wal.SizeBytes());
}

}  // namespace
}  // namespace pdtstore
