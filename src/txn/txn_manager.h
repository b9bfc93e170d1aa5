// Single-table transactions: TxnManager is the one-table case of the
// commit engine in txn/multi_txn.h. Same three PDT layers (Sec. 3.3,
// Fig. 14/15), same Algorithm 9, same commit FIFO, group commit and
// inline install-only Write→Read fold — these classes only drop the
// table-name argument from every call.
#ifndef PDTSTORE_TXN_TXN_MANAGER_H_
#define PDTSTORE_TXN_TXN_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "txn/multi_txn.h"

namespace pdtstore {

class TxnManager;

/// A snapshot-isolated transaction over one table; see MultiTransaction
/// for the contract of each call. Not thread-safe itself; distinct
/// transactions may run on distinct threads.
class Transaction {
 public:
  /// Transaction-local updates (buffered in the Trans-PDT, or in the
  /// Query-PDT while one is active).
  Status Insert(const Tuple& tuple) { return txn_->Insert(table_, tuple); }
  Status DeleteByKey(const std::vector<Value>& key) {
    return txn_->DeleteByKey(table_, key);
  }
  Status ModifyByKey(const std::vector<Value>& key, ColumnId col,
                     const Value& v) {
    return txn_->ModifyByKey(table_, key, col, v);
  }

  /// Snapshot reads, including own uncommitted updates (the Query-PDT
  /// excepted). After Publish() the returned source (never null) fails
  /// with InvalidArgument on its first Next().
  std::unique_ptr<BatchSource> Scan(std::vector<ColumnId> projection,
                                    const KeyBounds* bounds = nullptr,
                                    const ScanOptions& scan_opts = {}) const {
    return txn_->Scan(table_, std::move(projection), bounds, scan_opts);
  }
  MorselPlan PlanMorsels(std::vector<ColumnId> projection,
                         const KeyBounds* bounds = nullptr,
                         const ScanOptions& scan_opts = {}) const {
    return txn_->PlanMorsels(table_, std::move(projection), bounds,
                             scan_opts);
  }
  StatusOr<Tuple> GetByKey(const std::vector<Value>& key) const {
    return txn_->GetByKey(table_, key);
  }
  /// Visible row count; after Publish() the count as of sealing.
  uint64_t RowCount() const { return *txn_->RowCount(table_); }

  /// Two-phase commit (Publish + AwaitCommit), or both at once.
  Status Commit() { return txn_->Commit(); }
  Status Publish() { return txn_->Publish(); }
  Status AwaitCommit() { return txn_->AwaitCommit(); }
  void Abort() { txn_->Abort(); }

  /// Query-PDT (paper footnote 5): shields a running query from its own
  /// updates until EndQueryPdt() folds them into the Trans-PDT.
  Status BeginQueryPdt() { return txn_->BeginQueryPdt(table_); }
  Status EndQueryPdt() { return txn_->EndQueryPdt(table_); }
  bool query_pdt_active() const { return txn_->query_pdt_active(table_); }

  uint64_t id() const { return txn_->id(); }
  bool finished() const { return txn_->finished(); }

 private:
  friend class TxnManager;
  Transaction(std::unique_ptr<MultiTransaction> txn, const std::string& table)
      : txn_(std::move(txn)), table_(table) {}

  std::unique_ptr<MultiTransaction> txn_;  // aborts on destruction
  // The Table's own name; the table outlives its manager's transactions.
  const std::string& table_;
};

/// Observability counters for one table's write path (see shell
/// `.stats`): MultiTxnStats with its one table's layer counters inlined.
struct TxnManagerStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  size_t active = 0;
  size_t pending_deltas = 0;      ///< commit FIFO depth: sealed, undecided
  uint64_t fold_batches = 0;      ///< AwaitCommit calls that drained the FIFO
  uint64_t folded_records = 0;    ///< records decided by those drains
  uint64_t commit_lock_ns = 0;    ///< total ns commit work held the lock
  size_t read_pdt_entries = 0;
  size_t write_pdt_entries = 0;
  size_t merge_pending_entries = 0;  ///< always 0 (every fold is inline)
  uint64_t background_merges = 0;    ///< Write→Read folds installed
  uint64_t wal_syncs = 0;          ///< fsyncs through the attached writer
  uint64_t wal_records = 0;
};

/// Manages transactions over one PDT-backed Table: a MultiTxnManager over
/// `{table}`, with the same exclusive-driver claim, WAL, recovery and
/// propagation contracts.
class TxnManager : private MultiTxnManager {
 public:
  /// `wal` is optional; when given, commits append logical redo records.
  TxnManager(Table* table, Wal* wal = nullptr, TxnManagerOptions opts = {})
      : MultiTxnManager({table}, wal, opts), table_(table) {}

  /// Starts a snapshot-isolated transaction.
  std::unique_ptr<Transaction> Begin() {
    return std::unique_ptr<Transaction>(
        new Transaction(MultiTxnManager::Begin(), table_->name()));
  }

  using MultiTxnManager::SetWalWriter;
  using MultiTxnManager::wal_status;
  using MultiTxnManager::Recover;
  using MultiTxnManager::PropagateAndMaybeCheckpoint;
  using MultiTxnManager::active_transactions;
  using MultiTxnManager::committed_count;
  using MultiTxnManager::aborted_count;

  Table* table() const { return table_; }
  const Pdt& write_pdt() const {
    return MultiTxnManager::write_pdt(table_->name());
  }

  /// Snapshot of the write-path counters (consistent under the lock).
  TxnManagerStats GetStats() const;

 private:
  Table* table_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_TXN_TXN_MANAGER_H_
