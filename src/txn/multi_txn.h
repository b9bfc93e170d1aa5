// The commit engine: snapshot-isolated transactions over a set of
// PDT-backed tables (Sec. 3.3, Fig. 14/15), generalized to transactions
// spanning several tables (the paper's TPC-H refresh functions update
// orders *and* lineitem atomically). The single-table TxnManager of
// txn/txn_manager.h is this engine over one table.
//
// Every table keeps its own three-layer PDT stack:
//
//   Trans-PDT  — private to a transaction, holds its uncommitted updates
//   Write-PDT  — small master PDT receiving committed updates; copied
//                (or shared, when no commit intervened) into each new
//                transaction's snapshot
//   Read-PDT   — large RAM-resident layer (the Table's PDT) that
//                Write-PDT contents are periodically propagated into
//
// A transaction holds a (read, write-copy, trans) triple per managed
// table, all taken at one instant. Reads are lock-free: a query merges
// stable ▷ Read ▷ Write-copy ▷ Trans entirely from snapshot-owned
// structures. Commits run Algorithm 9 with per-table Serialize: a
// write-write conflict on *any* table aborts the whole transaction, and
// on success every table's Trans-PDT propagates into that table's master
// Write-PDT under one commit lock, giving all-or-nothing visibility.
//
// Concurrent write path (see DESIGN.md "Concurrent write path"): commits
// are two-phase. The build phase (positioning updates, encoding each
// into the transaction's one WAL payload) runs outside the manager lock;
// Publish() seals the transaction's Trans-PDTs and payload into a delta
// record and appends it to the manager's commit FIFO, and the first
// AwaitCommit() to find its record undecided runs Algorithm 9 for every
// sealed record in publication order, appending one WAL frame per
// record with updates. The fsync waits happen outside the lock, so
// concurrent commits share one group-commit fsync.
//
// Install-only propagation: an installed Read-PDT is never mutated.
// Every Write→Read fold runs inline under the manager lock, right after
// the commit that pushed the Write-PDT over its cap: it builds a merged
// clone and installs it via Table::ReplacePdt, so driverless scans
// (Table::Scan, the HTAP harness's analytic readers) and running
// snapshots keep reading the Read-PDT they pinned while commits
// continue.
#ifndef PDTSTORE_TXN_MULTI_TXN_H_
#define PDTSTORE_TXN_MULTI_TXN_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/table.h"
#include "txn/wal.h"

namespace pdtstore {

class MultiTxnManager;

namespace internal {
struct MultiDeltaRecord;
}  // namespace internal

/// Tuning knobs of the transaction managers.
struct TxnManagerOptions {
  /// Propagate Write-PDT into the Read-PDT when it exceeds this many
  /// entries (the paper keeps the Write-PDT smaller than the CPU cache).
  size_t write_pdt_max_entries = 4096;
  /// Checkpoint a table when its Read-PDT exceeds this many entries.
  size_t read_pdt_max_entries = 1 << 20;
};

/// Per-table layer counters of a MultiTxnManager (see GetStats()).
struct MultiTxnTableStats {
  std::string table;
  size_t read_pdt_entries = 0;
  size_t write_pdt_entries = 0;
  /// Always 0: every fold runs inline, so no claimed Write-PDT waits
  /// between the Write and Read layers.
  size_t merge_pending_entries = 0;
  /// Write→Read folds installed for this table (every fold, inline at
  /// the commit that crossed the cap or at PropagateAndMaybeCheckpoint).
  uint64_t background_merges = 0;
};

/// Observability counters for the write path (see shell `.stats`).
struct MultiTxnStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  size_t active = 0;
  size_t pending_deltas = 0;    ///< commit FIFO depth: sealed, undecided
  uint64_t fold_batches = 0;    ///< AwaitCommit calls that drained the FIFO
  uint64_t folded_records = 0;  ///< records decided by those drains
  uint64_t commit_lock_ns = 0;  ///< total ns commit work held the lock
  uint64_t wal_syncs = 0;       ///< fsyncs through the attached writer
  uint64_t wal_records = 0;     ///< WAL frames: one per committed update txn
  std::vector<MultiTxnTableStats> tables;
};

/// A snapshot-isolated transaction over a fixed set of tables. Not
/// thread-safe itself; distinct transactions may run on distinct threads.
class MultiTransaction {
 public:
  ~MultiTransaction();

  Status Insert(const std::string& table, const Tuple& tuple);
  Status DeleteByKey(const std::string& table,
                     const std::vector<Value>& key);
  Status ModifyByKey(const std::string& table, const std::vector<Value>& key,
                     ColumnId col, const Value& v);

  /// Point read over the full update domain (including an active
  /// Query-PDT, since point reads feed update logic).
  StatusOr<Tuple> GetByKey(const std::string& table,
                           const std::vector<Value>& key) const;
  /// Snapshot scan, including own uncommitted updates. `scan_opts`
  /// enables the morsel-driven parallel scan over the snapshot's layer
  /// stack: the Read/Write snapshots are immutable, so workers share them
  /// lock-free. A parallel scan also reads the Trans-PDT from worker
  /// threads, so the transaction must not update this table while one is
  /// being consumed (route updates through the Query-PDT, which the scan
  /// stack deliberately excludes, or drain the scan first). Never null:
  /// after Publish(), or for an unmanaged table, the returned source
  /// fails on its first Next().
  std::unique_ptr<BatchSource> Scan(const std::string& table,
                                    std::vector<ColumnId> projection,
                                    const KeyBounds* bounds = nullptr,
                                    const ScanOptions& scan_opts = {}) const;
  /// The same snapshot scan as a morsel plan, feeding the parallel
  /// pipelines (exec/pipeline.h). The caveats of Scan() apply.
  MorselPlan PlanMorsels(const std::string& table,
                         std::vector<ColumnId> projection,
                         const KeyBounds* bounds = nullptr,
                         const ScanOptions& scan_opts = {}) const;
  /// Visible row count; after Publish() it reports the count as of
  /// sealing.
  StatusOr<uint64_t> RowCount(const std::string& table) const;

  /// Commits all tables atomically; Status::Conflict aborts everything.
  /// Equivalent to Publish() + AwaitCommit(). The transaction is
  /// finished either way.
  Status Commit();

  /// First half of the two-phase commit: seals every table's Trans-PDT
  /// and the WAL payload into one delta record and appends it to the
  /// manager's commit FIFO — no verdict is produced yet. After Publish()
  /// the transaction accepts no further updates or reads; the only legal
  /// follow-ups are AwaitCommit() and Abort() (which withdraws the record
  /// if it is still undecided). Refuses, leaving the transaction open
  /// for Abort(), while a Query-PDT is active or when the payload would
  /// exceed Wal::kMaxPayloadBytes (one frame carries one transaction).
  Status Publish();

  /// Second half: if the record is still undecided, decides every sealed
  /// record in FIFO order (all tables of a record together — the verdict
  /// is all-or-nothing), then waits for WAL durability outside the lock
  /// (group commit).
  Status AwaitCommit();

  /// Discards all buffered updates. After Publish(), withdraws the
  /// record from the FIFO if it is undecided; if a commit already
  /// decided it, the verdict stands and Abort is a no-op.
  void Abort();

  // ------------------------------------------------------------------
  // Query-PDT (paper footnote 5): a fourth PDT layer that shields a
  // running query from its own updates (Halloween protection). While
  // active, the table's updates land in the Query-PDT but Scan still
  // sees only stable ▷ Read ▷ Write ▷ Trans; EndQueryPdt() propagates
  // the buffered updates into the Trans-PDT. Publish() refuses while
  // any Query-PDT is active.
  // ------------------------------------------------------------------

  Status BeginQueryPdt(const std::string& table);
  Status EndQueryPdt(const std::string& table);
  bool query_pdt_active(const std::string& table) const;

  bool finished() const { return finished_; }

 private:
  friend class MultiTxnManager;

  // One table's snapshot. Scans see [read, write, trans]; update
  // positioning additionally sees the Query-PDT when one is active.
  struct TableView {
    Table* table = nullptr;
    std::shared_ptr<const Pdt> read;     // pinned Read-PDT
    std::shared_ptr<const Pdt> write;    // Write-PDT snapshot
    std::unique_ptr<Pdt> trans;          // private Trans-PDT (until Publish)
    std::unique_ptr<Pdt> query;          // optional Query-PDT (footnote 5)
  };

  MultiTransaction(MultiTxnManager* mgr, uint64_t start_time);

  StatusOr<TableView*> View(const std::string& table) const;
  // View() for updates and point reads: refuses a finished or
  // published transaction.
  StatusOr<TableView*> OpenView(const std::string& table) const;
  static std::vector<const Pdt*> Layers(const TableView& v);
  static std::vector<const Pdt*> UpdateLayers(const TableView& v);
  // The PDT that receives updates (Query-PDT when active, else Trans).
  static Pdt* UpdateTarget(const TableView& v) {
    return v.query != nullptr ? v.query.get() : v.trans.get();
  }

  MultiTxnManager* mgr_;
  uint64_t start_time_;
  // Keyed by table name; every managed table is snapshot together at
  // Begin(), so the transaction sees one instant across tables (lazy
  // per-table snapshots would let a reader observe, say, a lineitem row
  // whose order isn't visible yet).
  mutable std::map<std::string, TableView> views_;
  // The WAL payload: every successful update, encoded in op order as it
  // happens (until Publish). Stays empty when the manager has no WAL.
  std::string redo_;
  // The published delta record; owned here, queued in the manager's
  // commit FIFO until a commit decides it (or an abort withdraws it).
  std::unique_ptr<internal::MultiDeltaRecord> rec_;
  // RowCount() per table as of Publish() — the sealed Trans-PDTs may be
  // concurrently serialized by another thread's AwaitCommit, so they are
  // off-limits.
  std::map<std::string, uint64_t> sealed_counts_;
  bool finished_ = false;
};

/// Coordinates transactions across a set of PDT-backed tables.
///
/// Exclusive driver rule: a table is driven by exactly one manager at a
/// time. The constructor claims each table's driver slot (asserting if
/// another manager already holds it) and the destructor releases them;
/// two managers on one table would install Read-PDTs under two unrelated
/// locks.
class MultiTxnManager {
 public:
  /// `wal` is optional; when given, every commit with updates appends
  /// one frame of logical redo records.
  MultiTxnManager(std::vector<Table*> tables, Wal* wal = nullptr,
                  TxnManagerOptions opts = {});
  /// Releases the tables' driver slots.
  ~MultiTxnManager();

  /// Starts a snapshot-isolated transaction over every managed table.
  std::unique_ptr<MultiTransaction> Begin();

  /// Attaches the durable sink that commits must reach before returning
  /// OK. The writer must outlive the manager (or be detached with
  /// nullptr). The WAL's durability watermark is not touched — load or
  /// truncate the Wal first so it knows which bytes are already on disk.
  /// A later flush or fsync failure is sticky (Wal::health()): the
  /// manager refuses every subsequent commit with that status, because
  /// it can no longer promise durability.
  void SetWalWriter(WalWriter* writer);

  /// The sticky WAL health status: OK until a flush or fsync failed.
  Status wal_status() const;

  /// Replays a WAL (recovery): applies each frame — one committed
  /// transaction — in log order. Several managers may share one log:
  /// only records addressed to managed tables are applied, and frames
  /// with none are skipped; a multi-table transaction replays as one
  /// atomic commit.
  /// Runs at most once, only on a pristine manager, and never from the
  /// manager's own WAL — anything else returns InvalidArgument instead
  /// of double-applying updates.
  Status Recover(const Wal& wal);

  /// Write->Read propagation for every table, then checkpoints each
  /// table whose Read-PDT exceeds read_pdt_max_entries. Quiet points
  /// only: returns InvalidArgument while transactions are active (a
  /// published-but-unfolded commit still counts). The checkpoint fast
  /// path is reserved for managers without a durable writer — durable
  /// checkpointing is Database::Save's manifest protocol — and leaves
  /// the WAL alone, since other tables' redo may share it.
  Status PropagateAndMaybeCheckpoint();

  size_t active_transactions() const;
  /// Atomic, so monitor threads can poll them without the lock.
  uint64_t committed_count() const {
    return committed_count_.load(std::memory_order_relaxed);
  }
  uint64_t aborted_count() const {
    return aborted_count_.load(std::memory_order_relaxed);
  }
  const Pdt& write_pdt(const std::string& table) const {
    return *state_.at(table).write;
  }

  /// Snapshot of the write-path counters (consistent under the lock).
  MultiTxnStats GetStats() const;

 private:
  friend class MultiTransaction;

  struct TableState {
    Table* table = nullptr;
    std::unique_ptr<Pdt> write;  // master Write-PDT
    std::shared_ptr<const Pdt> write_snapshot;  // cache: copy of write
    uint64_t write_snapshot_time = 0;           // logical time of that copy
    uint64_t folds = 0;  // Write→Read folds installed (under mu_)
  };

  // An entry of TZ: a committed transaction's serialized Trans-PDTs,
  // kept while overlapping transactions still run.
  struct CommittedTxn {
    std::map<std::string, std::shared_ptr<Pdt>> pdts;  // tables touched
    uint64_t commit_time = 0;
    int refcnt = 0;
  };

  // Snapshot one table's layer stack for a transaction beginning now.
  // Caller holds mu_.
  MultiTransaction::TableView MakeViewLocked(TableState* st);

  // --- commit path ---
  // Blocks until `rec` has a verdict: takes the lock and, if the record
  // is still undecided, decides every record in the FIFO in publication
  // order. Returns the verdict; `*durable_upto` is the WAL offset to
  // sync outside the lock (0 = nothing to wait for).
  Status AwaitVerdict(internal::MultiDeltaRecord* rec,
                      uint64_t* durable_upto);
  // Algorithm 9 for one record, across all its tables: per-table
  // conflict check against TZ, WAL frame append, fold into each table's
  // Write-PDT — all-or-nothing. Verdict lands in the record. Caller
  // holds mu_.
  void CommitRecordLocked(internal::MultiDeltaRecord* rec);
  // Abort of a published transaction: withdraw the record from the FIFO
  // if still undecided, else honor the verdict. Caller is the owning
  // thread.
  void AbortPublished(MultiTransaction* txn);
  // TZ refcount release + active_ decrement for a finishing txn.
  void FinishActiveLocked(uint64_t start_time);

  // --- Write→Read propagation (install-only; see file comment) ---
  // Folds every Write-PDT over write_pdt_max_entries inline. Caller
  // holds mu_.
  Status MaybePropagateLocked();
  // Folds `st`'s Write-PDT into a clone of its Read-PDT, installs the
  // clone via ReplacePdt and empties the Write-PDT. On failure nothing
  // changes: the Write-PDT stays unfolded for the next attempt. Caller
  // holds mu_.
  Status FoldIntoReadLocked(TableState* st);

  mutable std::mutex mu_;
  TxnManagerOptions opts_;
  Wal* wal_;
  // Durable sink; the group-commit state itself lives in the (possibly
  // shared) Wal, so managers logging to one file agree on durability.
  WalWriter* writer_ = nullptr;
  bool recovered_ = false;
  // Tables whose driver slot this manager claimed (released in dtor).
  std::vector<Table*> claimed_;
  std::map<std::string, TableState> state_;

  // Sealed, undecided records in publication order (under mu_).
  std::deque<internal::MultiDeltaRecord*> sealed_;

  uint64_t clock_ = 1;  // logical commit clock
  size_t active_ = 0;
  std::atomic<uint64_t> committed_count_{0};
  std::atomic<uint64_t> aborted_count_{0};
  std::deque<CommittedTxn> tz_;  // commit-ordered

  // Write-path counters (under mu_).
  uint64_t fold_batches_ = 0;
  uint64_t folded_records_ = 0;
  uint64_t commit_lock_ns_ = 0;
};

}  // namespace pdtstore

#endif  // PDTSTORE_TXN_MULTI_TXN_H_
