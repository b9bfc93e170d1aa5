// Updatable ordered table: immutable stable ColumnStore + sparse index +
// a differential structure (PDT or VDT, selectable per table so the two
// schemes can be compared head-to-head), SK-addressed updates and
// checkpointing (Sec. 2, "Checkpointing"). The PDT backend's updates run
// the shared positional helpers of txn/layered.h (Algorithms 3-6) over
// the one-layer stack {Read-PDT}.
#ifndef PDTSTORE_DB_TABLE_H_
#define PDTSTORE_DB_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "columnstore/batch.h"
#include "exec/parallel_scan.h"
#include "pdt/merge_scan.h"
#include "pdt/pdt.h"
#include "storage/column_store.h"
#include "storage/sparse_index.h"
#include "vdt/vdt.h"
#include "vdt/vdt_merge_scan.h"

namespace pdtstore {

/// Which differential scheme buffers this table's updates.
enum class DeltaBackend { kPdt, kVdt };

/// Per-table configuration.
struct TableOptions {
  DeltaBackend backend = DeltaBackend::kPdt;
  ColumnStoreOptions store;
  PdtOptions pdt;
};

/// An updatable, SK-ordered columnar table.
class Table {
 public:
  Table(std::string name, std::shared_ptr<const Schema> schema,
        TableOptions options, std::shared_ptr<BufferPool> pool = nullptr);

  /// Bulk-loads the stable image (SK-ordered rows) and builds the sparse
  /// index. Callable once, before any update.
  Status Load(const std::vector<Tuple>& rows);
  /// Column-wise bulk load (fast path for generators).
  Status LoadColumns(std::vector<ColumnVector> columns);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> shared_schema() const { return schema_; }
  const TableOptions& options() const { return options_; }
  const ColumnStore& store() const { return *store_; }
  const SparseIndex& sparse_index() const { return sparse_index_; }
  BufferPool* buffer_pool() const { return pool_.get(); }
  /// Raw Read-PDT pointer. A transaction driver never mutates an
  /// installed Read-PDT — each fold installs a new one via ReplacePdt —
  /// so only the pointer read itself needs care: it is unsynchronized
  /// against ReplacePdt, which makes it legal for the driver under its
  /// own lock (where its installs happen) or for a table with no driver
  /// attached. Every other reader pins a SharedPdt() snapshot instead.
  Pdt* pdt() { return pdt_.get(); }
  const Pdt* pdt() const { return pdt_.get(); }
  /// Shared ownership of the PDT (the Read-PDT of the transaction
  /// layers). Snapshots hold this so a concurrent ReplacePdt — a
  /// Write→Read fold installing a freshly merged Read-PDT — never
  /// pulls the layer out from under a running scan: the old PDT stays
  /// alive until its last snapshot drops it. The copy itself is taken
  /// under the table's own pointer lock, so it is safe against a
  /// racing ReplacePdt from any thread.
  std::shared_ptr<const Pdt> SharedPdt() const {
    std::lock_guard<std::mutex> lock(pdt_mu_);
    return pdt_;
  }
  /// Swaps in a replacement Read-PDT (a Write→Read fold's install).
  /// Synchronized against SharedPdt() pinners by the pointer lock; the
  /// transaction driver additionally serializes it against its own
  /// Begin()/commit paths under the driver lock.
  void ReplacePdt(std::shared_ptr<Pdt> pdt) {
    std::lock_guard<std::mutex> lock(pdt_mu_);
    pdt_ = std::move(pdt);
  }

  /// At most one transaction driver (TxnManager or MultiTxnManager) may
  /// manage a table at a time: drivers install Read-PDTs under their own
  /// lock, and two drivers would install them under different locks.
  /// Returns false if another driver already holds the claim. Released
  /// by the driver's destructor.
  bool AcquireTxnDriver() { return !txn_driver_.exchange(true); }
  void ReleaseTxnDriver() { txn_driver_.store(false); }
  Vdt* vdt() { return vdt_.get(); }
  const Vdt* vdt() const { return vdt_.get(); }

  /// Visible (merged) row count.
  uint64_t RowCount() const;

  // ------------------------------------------------------------------
  // SK-addressed updates (work on both backends).
  // ------------------------------------------------------------------

  /// Inserts a full tuple; fails with AlreadyExists on a duplicate SK.
  Status Insert(const Tuple& tuple);
  /// Deletes the tuple with the given SK.
  Status DeleteByKey(const std::vector<Value>& key);
  /// Sets one column of the tuple with the given SK. Modifying an SK
  /// column is executed as delete + insert (Sec. 2.1); if another row
  /// already holds the new key it fails with AlreadyExists and changes
  /// nothing.
  Status ModifyByKey(const std::vector<Value>& key, ColumnId col,
                     const Value& v);

  // ------------------------------------------------------------------
  // Positional updates (PDT backend only — the VDT has no positions,
  // which is precisely the architectural difference under study).
  // ------------------------------------------------------------------

  Status DeleteAt(Rid rid);
  Status ModifyAt(Rid rid, ColumnId col, const Value& v);

  // ------------------------------------------------------------------
  // Merged-image access (PDT backend).
  // ------------------------------------------------------------------

  /// Full merged tuple at `rid`.
  StatusOr<Tuple> GetMergedTuple(Rid rid) const;
  /// Locates an exact SK. Returns NotFound if absent.
  StatusOr<Rid> FindRidByKey(const std::vector<Value>& key) const;
  /// True if the key is visible in the merged image (both backends).
  StatusOr<bool> ContainsKey(const std::vector<Value>& key) const;

  // ------------------------------------------------------------------
  // Scans.
  // ------------------------------------------------------------------

  /// Merging scan of `projection`; `bounds` (optional, inclusive SK
  /// prefix range) restricts it through the sparse index. The PDT path
  /// scans exactly `projection`; the VDT path additionally reads all SK
  /// columns — the paper's core I/O asymmetry.
  ///
  /// `scan_opts.num_threads > 1` runs the morsel-driven parallel scan
  /// (exec/parallel_scan.h): consecutive SID-range morsels are merged by a
  /// worker pool; `scan_opts.ordered` picks SID-ordered or as-completed
  /// delivery. Both modes produce exactly the serial scan's rows. The
  /// scan must not overlap updates to this table's delta structure.
  std::unique_ptr<BatchSource> Scan(std::vector<ColumnId> projection,
                                    const KeyBounds* bounds = nullptr,
                                    const ScanOptions& scan_opts = {}) const;

  /// The stable interval a scan with `bounds` covers: the whole image
  /// when `bounds` is null, else the sparse-index lookup. Chunks the
  /// lookup excludes are never fetched; they are counted, with the disk
  /// bytes of their `projection` columns, into the buffer pool's skip
  /// stats. Shared by the table and transaction scan paths.
  SidRange ScanRange(const KeyBounds* bounds,
                     const std::vector<ColumnId>& projection) const;

  /// Plans the same scan as morsels + a per-morsel source factory, the
  /// input of the parallel pipelines (exec/pipeline.h): operator
  /// fragments run inside whichever worker claims each morsel. Falls
  /// back to a serial plan at one thread or when the source cannot be
  /// split (VDT without key fences). `scan_opts.morsel_rows == 0`
  /// auto-tunes the granularity from the chunk size and the delta's
  /// entry density.
  MorselPlan PlanMorsels(std::vector<ColumnId> projection,
                         const KeyBounds* bounds = nullptr,
                         const ScanOptions& scan_opts = {}) const;

  // ------------------------------------------------------------------
  // Maintenance.
  // ------------------------------------------------------------------

  /// Rebuilds the stable image from the merged state, resets the delta
  /// and re-derives the sparse index ("create a new image of the table
  /// with all updates applied", Sec. 2). With `num_threads > 1` the
  /// merged image is materialized by the ordered morsel-parallel scan on
  /// the shared worker pool; the output is byte-identical to the serial
  /// rebuild.
  Status Checkpoint(int num_threads = 1);

  /// Heap footprint of the differential structure.
  size_t DeltaMemoryBytes() const;

  /// Degrades the table to read-only: every direct mutation (and
  /// Checkpoint) fails with InvalidArgument. Used when recovery
  /// cannot reconstruct a trustworthy state — reads stay available,
  /// writes that could compound the damage do not.
  void SetReadOnly() { read_only_ = true; }
  bool read_only() const { return read_only_; }

 private:
  // Pins the current Read-PDT for the duration of one table operation
  // (null on the VDT backend). Table methods never touch pdt_ directly
  // beyond this: a background merge may ReplacePdt concurrently with
  // non-transactional reads, and the pin keeps the pointer read atomic
  // and the old layer alive until the operation finishes.
  std::shared_ptr<Pdt> PinPdt() const {
    std::lock_guard<std::mutex> lock(pdt_mu_);
    return pdt_;
  }

  std::string name_;
  std::shared_ptr<const Schema> schema_;
  TableOptions options_;
  std::shared_ptr<BufferPool> pool_;
  std::unique_ptr<ColumnStore> store_;
  SparseIndex sparse_index_;
  // Guards the pdt_ pointer itself (not the Pdt's contents): ReplacePdt
  // stores and SharedPdt/PinPdt copies happen under it, so the
  // shared_ptr is never copied concurrently with a reassignment.
  mutable std::mutex pdt_mu_;
  std::shared_ptr<Pdt> pdt_;
  std::unique_ptr<Vdt> vdt_;
  // Set while a TxnManager/MultiTxnManager drives this table.
  std::atomic<bool> txn_driver_{false};
  bool loaded_ = false;
  bool read_only_ = false;
};

}  // namespace pdtstore

#endif  // PDTSTORE_DB_TABLE_H_
