#include "db/database.h"

#include <cinttypes>
#include <cstdio>

namespace pdtstore {

Database::Database(DatabaseOptions options)
    : options_(options),
      pool_(std::make_shared<BufferPool>(options.buffer_pool_bytes)) {}

std::string Database::WalFileName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal.%06" PRIu64, epoch);
  return buf;
}

void Database::Degrade(const Status& why) {
  if (read_only_) return;  // first cause wins
  read_only_ = true;
  recovery_status_ = why;
  for (auto& [name, table] : tables_) table->SetReadOnly();
}

Status Database::ReplayWal() {
  // Txn() refuses VDT tables, so the log holds no records for them (and
  // a transaction manager cannot drive one).
  std::vector<Table*> pdt_tables;
  for (auto& [name, table] : tables_) {
    if (table->pdt() != nullptr) pdt_tables.push_back(table.get());
  }
  // A throwaway manager with NO wal attached: replaying through a
  // manager wired to the WAL being replayed would append each replayed
  // commit back onto it. A multi-table transaction replays as one
  // atomic commit.
  MultiTxnManager recovery_mgr(std::move(pdt_tables), /*wal=*/nullptr);
  PDT_RETURN_NOT_OK(recovery_mgr.Recover(*wal_));
  // Fold the recovered Write-PDTs into the tables before the manager
  // dies.
  return recovery_mgr.PropagateAndMaybeCheckpoint();
}

StatusOr<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                   DatabaseOptions options) {
  FileSystem* fs = options.fs != nullptr ? options.fs : FileSystem::Default();
  auto db = std::make_unique<Database>(options);
  db->dir_ = dir;
  db->fs_ = fs;
  db->wal_ = std::make_unique<Wal>();
  PDT_RETURN_NOT_OK(fs->CreateDir(dir));

  auto manifest = ReadManifest(fs, dir);
  if (!manifest.ok() &&
      manifest.status().code() == StatusCode::kNotFound) {
    // Fresh directory: establish the root pointer before doing anything
    // else, so a half-created database is still a valid (empty) one.
    db->manifest_.epoch = 0;
    db->manifest_.wal_file = WalFileName(0);
    PDT_RETURN_NOT_OK(WriteManifest(fs, dir, db->manifest_));
  } else if (!manifest.ok()) {
    // The root pointer itself is untrustworthy: nothing can be loaded.
    db->Degrade(manifest.status());
    return db;
  } else {
    db->manifest_ = std::move(*manifest);
    for (const ManifestTable& t : db->manifest_.tables) {
      auto schema = Schema::Make(t.columns, t.sort_key);
      if (!schema.ok()) {
        db->Degrade(schema.status());
        return db;
      }
      TableOptions topts;
      topts.backend = t.backend;
      topts.store.chunk_rows = static_cast<size_t>(t.chunk_rows);
      topts.store.compression = t.compression;
      auto table = std::make_unique<Table>(
          t.name, std::make_shared<const Schema>(std::move(*schema)), topts,
          db->pool_);
      if (!t.image_file.empty()) {
        Status st = LoadTableImage(fs, db->PathOf(t.image_file),
                                   t.row_count, table.get());
        if (!st.ok()) {
          db->tables_[t.name] = std::move(table);
          db->Degrade(st);
          return db;
        }
      }
      db->tables_[t.name] = std::move(table);
    }
  }

  // A manifest from epoch > 0 was written by Save(), which creates and
  // fsyncs the segment *and its directory entry* before the manifest
  // rename commits. If that segment is now missing, directory state from
  // before the checkpoint leaked through the crash (or someone deleted
  // the log): treating it as an empty log would silently drop every
  // commit since the checkpoint, so refuse instead. Epoch 0 is exempt —
  // a fresh database writes its manifest before the segment exists.
  const std::string wal_path = db->PathOf(db->manifest_.wal_file);
  if (db->manifest_.epoch > 0) {
    auto wal_exists = fs->FileExists(wal_path);
    if (!wal_exists.ok()) {
      db->Degrade(wal_exists.status());
      return db;
    }
    if (!*wal_exists) {
      db->Degrade(Status::Corruption("manifest epoch " +
                                     std::to_string(db->manifest_.epoch) +
                                     " names missing WAL segment " +
                                     db->manifest_.wal_file));
      return db;
    }
  }
  // Recover the WAL: accept the committed prefix, truncate a torn tail,
  // refuse mid-log corruption.
  auto stats = db->wal_->RecoverFrom(fs, wal_path);
  if (!stats.ok()) {
    db->Degrade(stats.status());
    return db;
  }
  // Replay the committed transactions.
  if (db->wal_->RecordCount() > 0) {
    Status st = db->ReplayWal();
    if (!st.ok()) {
      db->Degrade(st);
      return db;
    }
  }
  // Attach the durable sink; new commits append after the replayed
  // frames in the same segment. Opening may have just created the
  // epoch-0 segment, so pin its directory entry down too.
  auto writer = WalWriter::Open(fs, wal_path, false);
  if (!writer.ok()) {
    db->Degrade(writer.status());
    return db;
  }
  Status dir_st = fs->SyncDir(dir);
  if (!dir_st.ok()) {
    db->Degrade(dir_st);
    return db;
  }
  db->wal_writer_ = std::move(*writer);
  db->wal_->SetWriter(db->wal_writer_.get());
  db->wal_->MarkAllFlushed();
  return db;
}

Status Database::Save() {
  if (!persistent()) {
    return Status::InvalidArgument("Save() requires a database dir");
  }
  if (read_only_) return recovery_status_;
  // Deliberately no wal_->health() check: a poisoned log means some
  // acknowledgements could not be issued, but the updates themselves are
  // applied in memory. Save writes fresh files and commits them with the
  // manifest rename, so a successful Save re-establishes durability —
  // any applied-but-unacknowledged commit then survives reopen, which is
  // the commit-prefix contract's "ack lost" case (a commit may prove
  // durable even though its caller saw an error).
  // Quiesce: fold every Write-PDT into its table (refuses if any
  // transactions are still active).
  for (auto& [name, mgr] : managers_) {
    PDT_RETURN_NOT_OK(mgr->PropagateAndMaybeCheckpoint());
  }
  Manifest next;
  next.epoch = manifest_.epoch + 1;
  next.wal_file = WalFileName(next.epoch);
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".img.%06" PRIu64, next.epoch);
  for (auto& [name, table] : tables_) {
    // Absorb the delta into the stable image, then write it out. Images
    // get fresh epoch-stamped names: an old image is never overwritten,
    // so a crash below leaves the previous checkpoint intact.
    PDT_RETURN_NOT_OK(table->Checkpoint());
    ManifestTable t;
    t.name = name;
    t.backend = table->options().backend;
    t.columns = table->schema().columns();
    t.sort_key = table->schema().sort_key();
    t.chunk_rows = table->options().store.chunk_rows;
    t.compression = table->options().store.compression;
    t.row_count = table->store().num_rows();
    if (t.row_count > 0) {
      t.image_file = name + suffix;
      PDT_RETURN_NOT_OK(
          SaveTableImage(fs_, PathOf(t.image_file), *table));
    }
    next.tables.push_back(std::move(t));
  }
  // Create the next epoch's (empty) WAL segment before the manifest can
  // point at it.
  PDT_ASSIGN_OR_RETURN(auto new_writer,
                       WalWriter::Open(fs_, PathOf(next.wal_file), true));
  PDT_RETURN_NOT_OK(new_writer->Sync());
  // The new segment's directory entry must be durable BEFORE the
  // manifest can name it — otherwise a crash after the manifest rename
  // could recover an epoch whose WAL vanished with the unsynced entry.
  PDT_RETURN_NOT_OK(fs_->SyncDir(dir_));
  // THE COMMIT POINT: after this rename the new checkpoint is the
  // database; before it, the old manifest + old WAL still are.
  PDT_RETURN_NOT_OK(WriteManifest(fs_, dir_, next));
  // Only now is it safe to drop the log the images absorbed.
  Manifest old = std::move(manifest_);
  manifest_ = std::move(next);
  wal_->Truncate();
  wal_writer_ = std::move(new_writer);
  wal_->SetWriter(wal_writer_.get());
  for (auto& [name, mgr] : managers_) {
    mgr->SetWalWriter(wal_writer_.get());
  }
  // Best-effort cleanup of the previous epoch's files; leftovers are
  // unreferenced and harmless.
  (void)fs_->DeleteFile(PathOf(old.wal_file));
  for (const ManifestTable& t : old.tables) {
    if (!t.image_file.empty()) (void)fs_->DeleteFile(PathOf(t.image_file));
  }
  return Status::OK();
}

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       std::shared_ptr<const Schema> schema) {
  return CreateTable(name, std::move(schema), TableOptions{});
}

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       std::shared_ptr<const Schema> schema,
                                       TableOptions options) {
  if (read_only_) {
    return Status::InvalidArgument("database is read-only: " +
                                   recovery_status_.message());
  }
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  auto table =
      std::make_unique<Table>(name, std::move(schema), options, pool_);
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  if (persistent()) {
    // Make the DDL durable: re-point the manifest at the same epoch's
    // files plus the new (empty) table.
    ManifestTable t;
    t.name = name;
    t.backend = options.backend;
    t.columns = ptr->schema().columns();
    t.sort_key = ptr->schema().sort_key();
    t.chunk_rows = options.store.chunk_rows;
    t.compression = options.store.compression;
    Manifest next = manifest_;
    next.tables.push_back(std::move(t));
    Status st = WriteManifest(fs_, dir_, next);
    if (!st.ok()) {
      tables_.erase(name);
      return st;
    }
    manifest_ = std::move(next);
  }
  return ptr;
}

StatusOr<Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  return it->second.get();
}

Status Database::DropTable(const std::string& name) {
  if (read_only_) {
    return Status::InvalidArgument("database is read-only: " +
                                   recovery_status_.message());
  }
  if (tables_.erase(name) == 0) return Status::NotFound("no table " + name);
  managers_.erase(name);
  return Status::OK();
}

StatusOr<TxnManager*> Database::Txn(const std::string& name) {
  if (read_only_) {
    return Status::InvalidArgument("database is read-only: " +
                                   recovery_status_.message());
  }
  auto it = managers_.find(name);
  if (it != managers_.end()) return it->second.get();
  PDT_ASSIGN_OR_RETURN(Table * table, GetTable(name));
  if (table->pdt() == nullptr) {
    return Status::InvalidArgument(
        "transactions require the PDT backend: " + name);
  }
  if (wal_ == nullptr) wal_ = std::make_unique<Wal>();
  auto mgr = std::make_unique<TxnManager>(table, wal_.get());
  if (wal_writer_ != nullptr) mgr->SetWalWriter(wal_writer_.get());
  TxnManager* ptr = mgr.get();
  managers_[name] = std::move(mgr);
  return ptr;
}

TxnManager* Database::FindTxn(const std::string& name) const {
  auto it = managers_.find(name);
  return it != managers_.end() ? it->second.get() : nullptr;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, unused] : tables_) names.push_back(name);
  return names;
}

}  // namespace pdtstore
