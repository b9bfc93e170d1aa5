// Value-based MergeScan: MergeUnion[SK](Scan(ins),
// MergeDiff[SK](Scan(stable), Scan(del))) — the physical plan the paper
// gives for VDT table scans. The stable scan is forced to read the SK
// columns in addition to the user projection (the extra I/O of Fig. 19
// plots 2/5), and every row pays a key comparison (the extra CPU of
// plots 1/3/4).
#ifndef PDTSTORE_VDT_VDT_MERGE_SCAN_H_
#define PDTSTORE_VDT_VDT_MERGE_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "columnstore/batch.h"
#include "storage/column_store.h"
#include "storage/sparse_index.h"
#include "vdt/vdt.h"

namespace pdtstore {

/// Inclusive key-prefix bounds for a restricted scan (empty = unbounded).
struct KeyBounds {
  std::vector<Value> lo;
  std::vector<Value> hi;
};

/// Merging scan over stable storage + one VDT. Emits only the user
/// projection, in SK order, with sequential RIDs (the VDT has no notion
/// of stable positions — another contrast with the PDT).
class VdtMergeScan : public BatchSource {
 public:
  /// `range` is the stable interval scanned (from the sparse index);
  /// `bounds` restricts which VDT entries participate (the key-space
  /// counterpart).
  ///
  /// `fence_lo` (inclusive) / `fence_hi` (exclusive) are full-SK morsel
  /// fences for parallel scans: the VDT has no positions, so a morsel of
  /// stable SIDs [lo, hi) owns exactly the differential entries with keys
  /// in [SK(lo), SK(hi)) — fences make adjacent morsels partition the
  /// insert/delete maps with no duplicate and no loss, on top of (not
  /// instead of) the user-visible `bounds`. Empty = unfenced on that side.
  VdtMergeScan(const ColumnStore* store, const Vdt* vdt,
               std::vector<ColumnId> projection,
               SidRange range, KeyBounds bounds = {},
               std::vector<Value> fence_lo = {},
               std::vector<Value> fence_hi = {});

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  // Compares the SK of stable row `row` in buf_ against a key vector.
  int CompareRowToKey(size_t row, const std::vector<Value>& key) const;
  void EmitStableRow(Batch* out, size_t row);
  void EmitInsertTuple(Batch* out, const Tuple& t);
  bool InsertInBounds(const std::vector<Value>& key) const;

  const ColumnStore* store_;
  const Vdt* vdt_;
  std::vector<ColumnId> projection_;       // user projection
  std::vector<ColumnId> scan_projection_;  // user projection + SK columns
  std::vector<int> sk_batch_idx_;          // SK positions in scan batches
  std::vector<int> out_batch_idx_;         // projection positions in scan
  KeyBounds bounds_;
  std::vector<Value> fence_lo_;            // morsel fence, inclusive
  std::vector<Value> fence_hi_;            // morsel fence, exclusive

  std::unique_ptr<BatchSource> stable_;
  Batch proto_;  // output layout, reused via ResetLike
  Batch buf_;
  size_t buf_off_ = 0;
  bool input_done_ = false;
  Vdt::InsertMap::const_iterator ins_it_;
  Vdt::DeleteSet::const_iterator del_it_;
  Rid out_rid_ = 0;
};

}  // namespace pdtstore

#endif  // PDTSTORE_VDT_VDT_MERGE_SCAN_H_
