// Database: a catalog of updatable tables sharing one buffer pool, plus
// global I/O accounting used by the benchmarks' cold/hot protocol.
//
// A Database is either in-memory (the default constructor) or persistent
// (Open(dir)): persistent databases keep a group-commit WAL segment plus
// a checksummed MANIFEST + per-table stable images in their directory,
// and recover the committed state on reopen. The durability protocol:
//
//   commit   — redo frames appended to the shared WAL; the commit is
//              acknowledged only after the frames are fsynced (group
//              commit batches concurrent committers into one fsync)
//   Save     — checkpoint: write fresh table images (temp + rename),
//              create the next epoch's empty WAL segment, then atomically
//              rename the new MANIFEST over the old one — the commit
//              point — and only then truncate the old WAL
//   Open     — load the images the MANIFEST names, replay the committed
//              WAL suffix (torn tail truncated, mid-log corruption
//              reported), and continue appending to the live segment
//
// If recovery finds state it cannot trust (corrupt manifest, image or
// mid-log WAL damage) the database degrades to read-only and surfaces
// the cause via recovery_status() instead of crashing or guessing.
#ifndef PDTSTORE_DB_DATABASE_H_
#define PDTSTORE_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "db/checkpoint.h"
#include "db/table.h"
#include "txn/txn_manager.h"

namespace pdtstore {

/// Database-wide configuration.
struct DatabaseOptions {
  /// Decoded-chunk cache capacity; 0 = unbounded.
  size_t buffer_pool_bytes = 0;
  /// File system for persistence; null = the real POSIX one. Tests pass
  /// a FaultInjectingFs here.
  FileSystem* fs = nullptr;
};

/// A small embedded column-store database.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  /// Opens (or creates) a persistent database in `dir`: loads the
  /// manifest and table images, replays the committed WAL suffix and
  /// attaches the group-commit writer. Always returns a usable Database
  /// unless the directory itself is unusable; unrecoverable contents
  /// degrade it to read-only with the cause in recovery_status().
  static StatusOr<std::unique_ptr<Database>> Open(const std::string& dir,
                                                  DatabaseOptions options = {});

  /// Durable checkpoint: writes every table's stable image and commits
  /// them with an atomic manifest swap; the WAL is truncated only after
  /// the swap. On a crash anywhere inside Save, reopen sees either the
  /// old checkpoint + old WAL or the new checkpoint — never a mixture.
  Status Save();

  /// Creates an (unloaded) table; fails on duplicate name. On a
  /// persistent database the creation is durable (manifest rewrite)
  /// before this returns.
  StatusOr<Table*> CreateTable(const std::string& name,
                               std::shared_ptr<const Schema> schema);
  StatusOr<Table*> CreateTable(const std::string& name,
                               std::shared_ptr<const Schema> schema,
                               TableOptions options);

  /// Looks a table up by name.
  StatusOr<Table*> GetTable(const std::string& name) const;

  /// Drops a table. (Persistent databases refuse while read-only; the
  /// drop is made durable by the next Save.)
  Status DropTable(const std::string& name);

  /// The transaction manager for `name` (created on first use). On a
  /// persistent database its commits are durable through the shared
  /// WAL; all managers share one transaction-id space.
  StatusOr<TxnManager*> Txn(const std::string& name);

  /// The transaction manager for `name` if one was already created by
  /// Txn(); null otherwise. Read-only lookup for observability (the
  /// shell's `.stats`) — never instantiates a manager as a side effect.
  TxnManager* FindTxn(const std::string& name) const;

  bool persistent() const { return !dir_.empty(); }
  /// True when recovery degraded the database (see recovery_status()).
  bool read_only() const { return read_only_; }
  /// Why the database is read-only; OK when it is healthy.
  const Status& recovery_status() const { return recovery_status_; }
  Wal* wal() { return wal_.get(); }

  BufferPool* buffer_pool() const { return pool_.get(); }
  /// Snapshot of the pool's I/O counters (safe mid-scan; see BufferPool).
  IoStats io_stats() const { return pool_->stats(); }
  void ResetIoStats() { pool_->ResetStats(); }
  /// Empties the decoded-chunk cache: the next scans run "cold".
  void DropCaches() { pool_->EvictAll(); }

  const DatabaseOptions& options() const { return options_; }
  std::vector<std::string> TableNames() const;

 private:
  // Marks the database read-only with `why` (first cause wins).
  void Degrade(const Status& why);
  // Replays the recovered WAL into every PDT table, in one pass through
  // one throwaway manager.
  Status ReplayWal();
  std::string PathOf(const std::string& file) const { return dir_ + "/" + file; }
  static std::string WalFileName(uint64_t epoch);

  DatabaseOptions options_;
  std::shared_ptr<BufferPool> pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;

  // Persistence state (unset for in-memory databases).
  std::string dir_;
  FileSystem* fs_ = nullptr;
  Manifest manifest_;  ///< the current durable root (mirrors MANIFEST)
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<WalWriter> wal_writer_;
  std::map<std::string, std::unique_ptr<TxnManager>> managers_;
  bool read_only_ = false;
  Status recovery_status_ = Status::OK();
};

}  // namespace pdtstore

#endif  // PDTSTORE_DB_DATABASE_H_
