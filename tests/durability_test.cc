// Durability-layer tests: CRC32C vectors, the fault-injecting file
// system's crash model, manifest / table-image framing, and the
// Database Open/Save/reopen protocol — including WAL replay without a
// checkpoint, group commit under concurrency, rename-crash atomicity
// and the read-only degrade path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "db/checkpoint.h"
#include "db/database.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/file.h"

namespace pdtstore {
namespace {

using testutil::AllColumns;
using testutil::InventoryRows;
using testutil::InventorySchema;

// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<Tuple> TableRows(Table* table) {
  auto src = table->Scan(AllColumns(table->schema()));
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

// Commits one insert through the table's transaction manager.
Status CommitInsert(Database* db, const std::string& table,
                    const Tuple& tuple) {
  PDT_ASSIGN_OR_RETURN(TxnManager * mgr, db->Txn(table));
  auto txn = mgr->Begin();
  PDT_RETURN_NOT_OK(txn->Insert(tuple));
  return txn->Commit();
}

// ---------------------------------------------------------------------
// CRC32C.
// ---------------------------------------------------------------------

TEST(Crc32cTest, MatchesKnownVectors) {
  // The standard check value for CRC32C ("123456789").
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes (the iSCSI test vector).
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendIsChunkingInvariant) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t cut : {size_t{1}, size_t{7}, size_t{8}, size_t{13}}) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

TEST(FaultInjectingFsTest, UnsyncedBytesAreNotDurable) {
  std::string dir = FreshDir("fi_unsynced");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto f = fs.NewWritableFile(dir + "/f", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("hello").ok());
  // Not synced: the base file system has not seen the bytes yet.
  std::string got;
  Status st = FileSystem::Default()->ReadFileToString(dir + "/f", &got);
  EXPECT_TRUE(!st.ok() || got.empty());
  ASSERT_TRUE((*f)->Sync().ok());
  ASSERT_TRUE(FileSystem::Default()->ReadFileToString(dir + "/f", &got).ok());
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(fs.bytes_persisted(), 5u);
}

TEST(FaultInjectingFsTest, CrashAfterBytesTearsTheWrite) {
  std::string dir = FreshDir("fi_torn");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto f = fs.NewWritableFile(dir + "/f", true);
  ASSERT_TRUE(f.ok());
  // Pin the new file's directory entry; otherwise the crash legitimately
  // loses the whole file, not just the torn suffix.
  ASSERT_TRUE(fs.SyncDir(dir).ok());
  ASSERT_TRUE((*f)->Append("0123456789").ok());
  fs.ScheduleCrashAfterBytes(4);
  EXPECT_FALSE((*f)->Sync().ok());
  EXPECT_TRUE(fs.crashed());
  // Exactly the 4-byte prefix survived the power cut.
  std::string got;
  ASSERT_TRUE(FileSystem::Default()->ReadFileToString(dir + "/f", &got).ok());
  EXPECT_EQ(got, "0123");
  // The dead machine refuses everything.
  EXPECT_FALSE((*f)->Append("more").ok());
  EXPECT_FALSE(fs.NewWritableFile(dir + "/g", true).ok());
  EXPECT_FALSE(fs.RenameFile(dir + "/f", dir + "/g").ok());
}

TEST(FaultInjectingFsTest, FailNextSyncDropsPendingBytesWithoutCrashing) {
  std::string dir = FreshDir("fi_failsync");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto f = fs.NewWritableFile(dir + "/f", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("lost").ok());
  fs.FailNextSync();
  EXPECT_FALSE((*f)->Sync().ok());
  EXPECT_FALSE(fs.crashed());  // an I/O error, not a power cut
  // The dropped page cache never reaches disk; later writes still work.
  ASSERT_TRUE((*f)->Append("kept").ok());
  ASSERT_TRUE((*f)->Sync().ok());
  std::string got;
  ASSERT_TRUE(FileSystem::Default()->ReadFileToString(dir + "/f", &got).ok());
  EXPECT_EQ(got, "kept");
}

TEST(FaultInjectingFsTest, RenameCrashBeforeLeavesTargetUntouched) {
  std::string dir = FreshDir("fi_ren_before");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto write = [&](const std::string& p, const std::string& s) {
    auto f = fs.NewWritableFile(p, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(s).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  };
  write(dir + "/old", "old");
  write(dir + "/new", "new");
  ASSERT_TRUE(fs.SyncDir(dir).ok());  // setup entries are durable
  fs.ScheduleCrashAtRename(1, RenameCrash::kBefore);
  EXPECT_FALSE(fs.RenameFile(dir + "/new", dir + "/old").ok());
  EXPECT_TRUE(fs.crashed());
  std::string got;
  ASSERT_TRUE(
      FileSystem::Default()->ReadFileToString(dir + "/old", &got).ok());
  EXPECT_EQ(got, "old");
}

TEST(FaultInjectingFsTest, RenameCrashAfterAppliesTheRenameFirst) {
  std::string dir = FreshDir("fi_ren_after");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto write = [&](const std::string& p, const std::string& s) {
    auto f = fs.NewWritableFile(p, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(s).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  };
  write(dir + "/old", "old");
  write(dir + "/new", "new");
  ASSERT_TRUE(fs.SyncDir(dir).ok());  // setup entries are durable
  fs.ScheduleCrashAtRename(1, RenameCrash::kAfter);
  // The caller never learns the rename happened — the classic
  // committed-but-unacknowledged window.
  EXPECT_FALSE(fs.RenameFile(dir + "/new", dir + "/old").ok());
  std::string got;
  ASSERT_TRUE(
      FileSystem::Default()->ReadFileToString(dir + "/old", &got).ok());
  EXPECT_EQ(got, "new");
}

TEST(FaultInjectingFsTest, UnsyncedDirectoryEntriesAreLostAtCrash) {
  std::string dir = FreshDir("fi_direntry");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto write = [&](const std::string& p, const std::string& s) {
    auto f = fs.NewWritableFile(p, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(s).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  };
  // "kept" gets its directory entry fsynced; "lost" only gets a file
  // fsync, which persists bytes + inode but not the entry naming them.
  write(dir + "/kept", "kept");
  ASSERT_TRUE(fs.SyncDir(dir).ok());
  write(dir + "/lost", "lost");
  // Power cut mid-write elsewhere: every unsynced directory op rolls
  // back with it.
  auto f = fs.NewWritableFile(dir + "/probe", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("xy").ok());
  fs.ScheduleCrashAfterBytes(1);
  EXPECT_FALSE((*f)->Sync().ok());
  EXPECT_TRUE(fs.crashed());
  std::string got;
  EXPECT_TRUE(
      FileSystem::Default()->ReadFileToString(dir + "/kept", &got).ok());
  EXPECT_EQ(got, "kept");
  auto lost = FileSystem::Default()->FileExists(dir + "/lost");
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
  auto probe = FileSystem::Default()->FileExists(dir + "/probe");
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(*probe);
}

TEST(FaultInjectingFsTest, UnsyncedRenameRollsBackAtCrash) {
  std::string dir = FreshDir("fi_ren_unsynced");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto write = [&](const std::string& p, const std::string& s) {
    auto f = fs.NewWritableFile(p, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(s).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  };
  write(dir + "/src", "new");
  write(dir + "/dst", "old");
  ASSERT_TRUE(fs.SyncDir(dir).ok());
  // The rename succeeds but its directory entry is never fsynced: a
  // crash reverts it, resurrecting the replaced target. This is exactly
  // the failure a manifest commit without SyncDir would hit.
  ASSERT_TRUE(fs.RenameFile(dir + "/src", dir + "/dst").ok());
  auto f = fs.NewWritableFile(dir + "/probe", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("xy").ok());
  fs.ScheduleCrashAfterBytes(1);
  EXPECT_FALSE((*f)->Sync().ok());
  std::string got;
  ASSERT_TRUE(
      FileSystem::Default()->ReadFileToString(dir + "/dst", &got).ok());
  EXPECT_EQ(got, "old");
  ASSERT_TRUE(
      FileSystem::Default()->ReadFileToString(dir + "/src", &got).ok());
  EXPECT_EQ(got, "new");
}

TEST(FaultInjectingFsTest, SyncDirMakesRenameCrashDurable) {
  std::string dir = FreshDir("fi_dirsync_ren");
  FaultInjectingFs fs(FileSystem::Default());
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  auto f = fs.NewWritableFile(dir + "/a", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("payload").ok());
  ASSERT_TRUE((*f)->Sync().ok());
  ASSERT_TRUE((*f)->Close().ok());
  ASSERT_TRUE(fs.RenameFile(dir + "/a", dir + "/b").ok());
  ASSERT_TRUE(fs.SyncDir(dir).ok());
  // Crash after the SyncDir: both the creation and the rename stick.
  auto g = fs.NewWritableFile(dir + "/probe", true);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE((*g)->Append("xy").ok());
  fs.ScheduleCrashAfterBytes(1);
  EXPECT_FALSE((*g)->Sync().ok());
  std::string got;
  EXPECT_TRUE(
      FileSystem::Default()->ReadFileToString(dir + "/b", &got).ok());
  EXPECT_EQ(got, "payload");
  auto a = FileSystem::Default()->FileExists(dir + "/a");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(*a);
}

// ---------------------------------------------------------------------
// Manifest and table images.
// ---------------------------------------------------------------------

TEST(ManifestTest, RoundtripsAllFields) {
  std::string dir = FreshDir("manifest_rt");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  Manifest m;
  m.epoch = 42;
  m.wal_file = "wal.000042";
  ManifestTable t;
  t.name = "inventory";
  t.backend = DeltaBackend::kPdt;
  t.columns = InventorySchema()->columns();
  t.sort_key = {0, 1};
  t.chunk_rows = 4096;
  t.compression = false;
  t.image_file = "inventory.img.000042";
  t.row_count = 99;
  m.tables.push_back(t);
  ASSERT_TRUE(WriteManifest(fs, dir, m).ok());
  auto got = ReadManifest(fs, dir);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->epoch, 42u);
  EXPECT_EQ(got->wal_file, "wal.000042");
  ASSERT_EQ(got->tables.size(), 1u);
  EXPECT_EQ(got->tables[0].name, "inventory");
  EXPECT_EQ(got->tables[0].columns.size(), 4u);
  EXPECT_EQ(got->tables[0].sort_key, (std::vector<ColumnId>{0, 1}));
  EXPECT_EQ(got->tables[0].chunk_rows, 4096u);
  EXPECT_FALSE(got->tables[0].compression);
  EXPECT_EQ(got->tables[0].image_file, "inventory.img.000042");
  EXPECT_EQ(got->tables[0].row_count, 99u);
}

TEST(ManifestTest, MissingIsNotFoundCorruptIsCorruption) {
  std::string dir = FreshDir("manifest_bad");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  EXPECT_EQ(ReadManifest(fs, dir).status().code(), StatusCode::kNotFound);

  Manifest m;
  m.wal_file = "wal.000000";
  ASSERT_TRUE(WriteManifest(fs, dir, m).ok());
  std::string path = dir + "/" + kManifestFileName;
  std::string data;
  ASSERT_TRUE(fs->ReadFileToString(path, &data).ok());
  data[data.size() / 2] ^= 0x10;
  auto f = fs->NewWritableFile(path, true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data).ok());
  ASSERT_TRUE((*f)->Close().ok());
  EXPECT_EQ(ReadManifest(fs, dir).status().code(), StatusCode::kCorruption);
}

TEST(ManifestTest, TableImageRoundtripsAndDetectsCorruption) {
  std::string dir = FreshDir("image_rt");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  Table table("inventory", InventorySchema(), TableOptions{});
  ASSERT_TRUE(table.Load(InventoryRows()).ok());
  std::string path = dir + "/inventory.img";
  ASSERT_TRUE(SaveTableImage(fs, path, table).ok());

  Table loaded("inventory", InventorySchema(), TableOptions{});
  ASSERT_TRUE(
      LoadTableImage(fs, path, InventoryRows().size(), &loaded).ok());
  EXPECT_EQ(TableRows(&loaded), InventoryRows());

  std::string data;
  ASSERT_TRUE(fs->ReadFileToString(path, &data).ok());
  data[data.size() - 2] ^= 0x04;
  auto f = fs->NewWritableFile(path, true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data).ok());
  ASSERT_TRUE((*f)->Close().ok());
  Table corrupt("inventory", InventorySchema(), TableOptions{});
  EXPECT_EQ(LoadTableImage(fs, path, InventoryRows().size(), &corrupt).code(),
            StatusCode::kCorruption);
}

TEST(ManifestTest, TableImageRowCountBeyondItsPayloadIsCorruption) {
  // A well-framed image (valid CRC) whose header claims 2^40 rows over
  // 16-byte column payloads: the decoder must prove the count from the
  // payload before it sizes anything.
  std::string dir = FreshDir("image_rows");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  std::string p;
  PutVarint64(&p, uint64_t{1} << 40);
  PutVarint64(&p, 4);
  for (int c = 0; c < 4; ++c) {
    p.push_back(static_cast<char>(Encoding::kPlain));
    PutVarint64(&p, 16);
    PutFixed64(&p, 1);
    PutFixed64(&p, 2);
  }
  std::string image("PDTIMG01", 8);
  PutFixed32(&image, static_cast<uint32_t>(p.size()));
  PutFixed32(&image, Crc32c(p.data(), p.size()));
  image.append(p);
  std::string path = dir + "/inventory.img";
  auto f = fs->NewWritableFile(path, true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(image).ok());
  ASSERT_TRUE((*f)->Close().ok());
  // The manifest agrees with the header, so the decoder must catch it.
  Table table("inventory", InventorySchema(), TableOptions{});
  EXPECT_EQ(LoadTableImage(fs, path, uint64_t{1} << 40, &table).code(),
            StatusCode::kCorruption);
}

TEST(ManifestTest, ImageRowCountBeyondManifestIsCorruptionBeforeDecode) {
  // A well-framed image (valid CRC) whose header and single RLE run both
  // claim 2^40 rows — a self-consistent payload the decoder would size
  // an 8 TiB column for — while the manifest says 5. Open must report
  // Corruption from the header alone, without allocating.
  std::string dir = FreshDir("image_vs_manifest");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  std::string p;
  PutVarint64(&p, uint64_t{1} << 40);
  PutVarint64(&p, 1);
  p.push_back(static_cast<char>(Encoding::kRle));
  std::string run;
  PutVarint64(&run, uint64_t{1} << 40);
  PutFixed64(&run, 7);
  PutVarint64(&p, run.size());
  p.append(run);
  std::string image("PDTIMG01", 8);
  PutFixed32(&image, static_cast<uint32_t>(p.size()));
  PutFixed32(&image, Crc32c(p.data(), p.size()));
  image.append(p);
  auto f = fs->NewWritableFile(dir + "/t.img", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(image).ok());
  ASSERT_TRUE((*f)->Close().ok());

  Manifest m;
  m.wal_file = "wal.000000";
  ManifestTable t;
  t.name = "t";
  t.columns = {{"k", TypeId::kInt64}};
  t.sort_key = {0};
  t.chunk_rows = 1024;
  t.image_file = "t.img";
  t.row_count = 5;
  m.tables.push_back(t);
  ASSERT_TRUE(WriteManifest(fs, dir, m).ok());
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->read_only());
  EXPECT_EQ((*db)->recovery_status().code(), StatusCode::kCorruption)
      << (*db)->recovery_status().ToString();
}

// ---------------------------------------------------------------------
// Database open / save / recover.
// ---------------------------------------------------------------------

TEST(DatabaseDurabilityTest, SaveAndReopenRestoresTables) {
  std::string dir = FreshDir("db_save");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("inventory", InventorySchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Load(InventoryRows()).ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Berlin", "cloth", "Y", 5})
            .ok());
    ASSERT_TRUE((*db)->Save().ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE((*db)->read_only());
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  auto rows = TableRows(*table);
  EXPECT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows.front()[0], Value("Berlin"));
  // The checkpoint absorbed the log: nothing left to replay.
  EXPECT_EQ((*db)->wal()->RecordCount(), 0u);
}

TEST(DatabaseDurabilityTest, ReopenWithoutSaveReplaysTheWal) {
  std::string dir = FreshDir("db_replay");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("inventory", InventorySchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*db)->Save().ok());  // checkpoint the empty table
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Bergen", "rack", "Y", 3})
            .ok());
    // No Save: the commits exist only as fsynced WAL frames.
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(TableRows(*table).size(), 2u);
  // And committing after recovery appends to the same segment.
  ASSERT_TRUE(
      CommitInsert(db->get(), "inventory", {"Tromso", "bin", "N", 2}).ok());
}

TEST(DatabaseDurabilityTest, WalReplayAcrossMultipleTables) {
  std::string dir = FreshDir("db_multitable");
  auto orders_schema = [] {
    auto s = Schema::Make({{"id", TypeId::kInt64}, {"sku", TypeId::kString}},
                          {0});
    return std::make_shared<const Schema>(std::move(*s));
  }();
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
    ASSERT_TRUE((*db)->CreateTable("orders", orders_schema).ok());
    // Both tables commit into ONE shared log, no checkpoint.
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "orders", {int64_t{1}, std::string("sku-9")})
            .ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Bergen", "rack", "Y", 3})
            .ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto inv = (*db)->GetTable("inventory");
  auto ord = (*db)->GetTable("orders");
  ASSERT_TRUE(inv.ok());
  ASSERT_TRUE(ord.ok());
  EXPECT_EQ(TableRows(*inv).size(), 2u);
  auto orows = TableRows(*ord);
  ASSERT_EQ(orows.size(), 1u);
  EXPECT_EQ(orows[0][1], Value("sku-9"));
}

TEST(DatabaseDurabilityTest, ReopenReplaysPastAVdtTable) {
  // Txn() refuses VDT tables, so replay must skip them instead of
  // driving one with a transaction manager.
  std::string dir = FreshDir("db_vdt_replay");
  TableOptions vdt_opts;
  vdt_opts.backend = DeltaBackend::kVdt;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto inv = (*db)->CreateTable("inventory", InventorySchema());
    ASSERT_TRUE(inv.ok());
    ASSERT_TRUE((*inv)->Load(InventoryRows()).ok());
    auto vdt = (*db)->CreateTable("archive", InventorySchema(), vdt_opts);
    ASSERT_TRUE(vdt.ok());
    ASSERT_TRUE((*vdt)->Load(InventoryRows()).ok());
    ASSERT_TRUE((*db)->Save().ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto inv = (*db)->GetTable("inventory");
  ASSERT_TRUE(inv.ok());
  auto rows = TableRows(*inv);
  EXPECT_EQ(rows.size(), InventoryRows().size() + 1);
  EXPECT_NE(std::find(rows.begin(), rows.end(),
                      Tuple{"Oslo", "bench", "N", 1}),
            rows.end());
  auto vdt = (*db)->GetTable("archive");
  ASSERT_TRUE(vdt.ok());
  EXPECT_EQ((*vdt)->options().backend, DeltaBackend::kVdt);
  EXPECT_EQ((*vdt)->pdt(), nullptr);
  EXPECT_EQ(TableRows(*vdt), InventoryRows());
}

TEST(DatabaseDurabilityTest, TornWalTailLosesOnlyTheTornCommit) {
  std::string dir = FreshDir("db_torn");
  std::string wal_path;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Bergen", "rack", "Y", 3})
            .ok());
    wal_path = dir + "/wal.000000";
  }
  // Tear the last frame (the second commit marker) as a crash would.
  std::string data;
  ASSERT_TRUE(
      FileSystem::Default()->ReadFileToString(wal_path, &data).ok());
  ASSERT_TRUE(FileSystem::Default()
                  ->TruncateFile(wal_path, data.size() - 3)
                  .ok());
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  // The first commit survived; the torn second one is gone entirely.
  auto rows = TableRows(*table);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value("Oslo"));
}

TEST(DatabaseDurabilityTest, MidLogWalCorruptionDegradesToReadOnly) {
  std::string dir = FreshDir("db_midlog");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(CommitInsert(db->get(), "inventory",
                               {"S" + std::to_string(i), "p", "N", i})
                      .ok());
    }
  }
  std::string wal_path = dir + "/wal.000000";
  std::string data;
  ASSERT_TRUE(
      FileSystem::Default()->ReadFileToString(wal_path, &data).ok());
  data[20] ^= 0x02;  // first frame's payload — far from the tail
  auto f = FileSystem::Default()->NewWritableFile(wal_path, true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data).ok());
  ASSERT_TRUE((*f)->Close().ok());

  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());  // open succeeds, but degraded
  EXPECT_TRUE((*db)->read_only());
  EXPECT_EQ((*db)->recovery_status().code(), StatusCode::kCorruption);
  // Every mutating entry point surfaces the degrade.
  EXPECT_FALSE((*db)->Txn("inventory").ok());
  EXPECT_FALSE((*db)->CreateTable("other", InventorySchema()).ok());
  EXPECT_FALSE((*db)->Save().ok());
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->Insert({"X", "y", "N", 0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseDurabilityTest, CorruptImageDegradesToReadOnly) {
  std::string dir = FreshDir("db_badimage");
  std::string image;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    auto table = (*db)->CreateTable("inventory", InventorySchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Load(InventoryRows()).ok());
    ASSERT_TRUE((*db)->Save().ok());
    image = dir + "/inventory.img.000001";
  }
  std::string data;
  ASSERT_TRUE(FileSystem::Default()->ReadFileToString(image, &data).ok());
  data[data.size() / 2] ^= 0x08;
  auto f = FileSystem::Default()->NewWritableFile(image, true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(data).ok());
  ASSERT_TRUE((*f)->Close().ok());

  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->read_only());
  EXPECT_EQ((*db)->recovery_status().code(), StatusCode::kCorruption);
}

TEST(DatabaseDurabilityTest, CrashBeforeManifestRenameKeepsOldCheckpoint) {
  std::string dir = FreshDir("db_ren_before");
  FaultInjectingFs fs(FileSystem::Default());
  DatabaseOptions opts;
  opts.fs = &fs;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("inventory", InventorySchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
    // Kill the machine at the manifest commit rename inside Save. (The
    // image and manifest writes are renames too: the manifest's is the
    // second rename of this Save.)
    fs.ScheduleCrashAtRename(2, RenameCrash::kBefore);
    EXPECT_FALSE((*db)->Save().ok());
    EXPECT_TRUE(fs.crashed());
  }
  // Restart: the old manifest + old WAL are still the database.
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(TableRows(*table).size(), 1u);
}

TEST(DatabaseDurabilityTest, CrashAfterManifestRenameKeepsNewCheckpoint) {
  std::string dir = FreshDir("db_ren_after");
  FaultInjectingFs fs(FileSystem::Default());
  DatabaseOptions opts;
  opts.fs = &fs;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("inventory", InventorySchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
    fs.ScheduleCrashAtRename(2, RenameCrash::kAfter);
    // Save reports failure (the machine died before it could return),
    // but the manifest rename — the commit point — already happened.
    EXPECT_FALSE((*db)->Save().ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(TableRows(*table).size(), 1u);
}

TEST(DatabaseDurabilityTest, FsyncFailurePoisonsLaterCommits) {
  std::string dir = FreshDir("db_failsync");
  FaultInjectingFs fs(FileSystem::Default());
  DatabaseOptions opts;
  opts.fs = &fs;
  // One committer, so its own AwaitCommit leads the fsync that fails:
  // the failure reaches this commit deterministically.
  auto db = Database::Open(dir, opts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
  auto mgr = (*db)->Txn("inventory");
  ASSERT_TRUE(mgr.ok());

  fs.FailNextSync();
  auto txn = (*mgr)->Begin();
  ASSERT_TRUE(txn->Insert({"Oslo", "bench", "N", 1}).ok());
  Status st = txn->Commit();
  EXPECT_FALSE(st.ok());
  // The failed-durability state is sticky: the manager cannot promise
  // anything about the log anymore.
  EXPECT_FALSE((*mgr)->wal_status().ok());
  auto txn2 = (*mgr)->Begin();
  ASSERT_TRUE(txn2->Insert({"Bergen", "rack", "Y", 3}).ok());
  EXPECT_FALSE(txn2->Commit().ok());
}

TEST(DatabaseDurabilityTest, GroupCommitAcknowledgedCommitsSurviveReopen) {
  std::string dir = FreshDir("db_group");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
    auto mgr = (*db)->Txn("inventory");
    ASSERT_TRUE(mgr.ok());
    std::vector<std::thread> threads;
    std::atomic<int> committed{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto txn = (*mgr)->Begin();
          Status st = txn->Insert(
              {"T" + std::to_string(t), "p" + std::to_string(i), "N", i});
          if (st.ok()) st = txn->Commit();
          ASSERT_TRUE(st.ok()) << st.ToString();
          committed.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(committed.load(), kThreads * kPerThread);
    // Disjoint keys: every commit must have succeeded and been synced.
    EXPECT_EQ((*mgr)->committed_count(),
              static_cast<uint64_t>(kThreads * kPerThread));
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(TableRows(*table).size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(DatabaseDurabilityTest, MissingWalNamedByManifestIsCorruption) {
  std::string dir = FreshDir("db_missing_wal");
  std::string wal_file;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
    ASSERT_TRUE((*db)->Save().ok());  // epoch 1: Save created the WAL
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
  }
  // Simulate lost directory state: the manifest survived but the WAL
  // segment it names did not. Treating that as an empty log would
  // silently drop the committed insert.
  auto m = ReadManifest(FileSystem::Default(), dir);
  ASSERT_TRUE(m.ok());
  ASSERT_GT(m->epoch, 0u);
  ASSERT_TRUE(
      FileSystem::Default()->DeleteFile(dir + "/" + m->wal_file).ok());
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->read_only());
  EXPECT_EQ((*db)->recovery_status().code(), StatusCode::kCorruption)
      << (*db)->recovery_status().ToString();
}

TEST(DatabaseDurabilityTest, SaveAfterFsyncFailureRestoresDurability) {
  std::string dir = FreshDir("db_save_after_failsync");
  FaultInjectingFs fs(FileSystem::Default());
  DatabaseOptions opts;
  opts.fs = &fs;
  {
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("inventory", InventorySchema()).ok());
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Oslo", "bench", "N", 1})
            .ok());
    // Group commit applies the transaction in memory under the commit
    // lock and syncs afterwards: a failed fsync loses only the ack.
    fs.FailNextSync();
    EXPECT_FALSE(
        CommitInsert(db->get(), "inventory", {"Bergen", "rack", "Y", 3})
            .ok());
    auto mgr = (*db)->Txn("inventory");
    ASSERT_TRUE(mgr.ok());
    EXPECT_FALSE((*mgr)->wal_status().ok());  // log is poisoned
    // Save must still be possible: it writes fresh files and its
    // manifest rename re-establishes durability for everything applied,
    // including the unacknowledged commit (the "ack lost" case).
    ASSERT_TRUE((*db)->Save().ok());
    EXPECT_TRUE((*mgr)->wal_status().ok());
    // And the fresh segment accepts new commits again.
    ASSERT_TRUE(
        CommitInsert(db->get(), "inventory", {"Tromso", "bin", "N", 2})
            .ok());
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only()) << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("inventory");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(TableRows(*table).size(), 3u);
}

TEST(WalSyncToTest, StaleOffsetAfterTruncateReturnsOkInsteadOfSpinning) {
  std::string dir = FreshDir("wal_stale_syncto");
  FileSystem* fs = FileSystem::Default();
  ASSERT_TRUE(fs->CreateDir(dir).ok());
  auto writer = WalWriter::Open(fs, dir + "/wal", true);
  ASSERT_TRUE(writer.ok());
  Wal wal;
  wal.SetWriter(writer->get());
  wal.LogBegin(1);
  wal.LogCommit(1);
  const uint64_t upto = wal.SizeBytes();
  ASSERT_GT(upto, 0u);
  // A checkpoint absorbed the log and truncated it while a committer
  // still held this offset. The records are durable via the checkpoint:
  // SyncTo must acknowledge, not busy-wait for bytes that will never
  // exist again.
  wal.Truncate();
  EXPECT_TRUE(wal.SyncTo(upto).ok());
  // A fresh append still flushes through the writer normally.
  wal.LogBegin(2);
  wal.LogCommit(2);
  EXPECT_TRUE(wal.SyncTo(wal.SizeBytes()).ok());
}

TEST(DatabaseDurabilityTest, FreshDirectoryIsImmediatelyReopenable) {
  std::string dir = FreshDir("db_fresh");
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    // No tables, no commits: just the root pointer.
  }
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->read_only());
  EXPECT_TRUE((*db)->TableNames().empty());
}

}  // namespace
}  // namespace pdtstore
