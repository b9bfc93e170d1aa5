// MergeScan (Algorithm 2), block-oriented: a stable-table scan merged with
// one or more stacked PDT layers. Because differences are positional, the
// merge never touches sort-key values — the scan only reads the projected
// columns, which is the PDT's headline I/O advantage over value-based
// merging (Sec. 2, "Merging: PDT vs VDT").
#ifndef PDTSTORE_PDT_MERGE_SCAN_H_
#define PDTSTORE_PDT_MERGE_SCAN_H_

#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "pdt/pdt.h"
#include "storage/column_store.h"
#include "storage/sparse_index.h"

namespace pdtstore {

/// Scans the stable table's projected columns over one SID interval,
/// emitting batches whose start_rid is the SID of the first row. The
/// input side of every merge stack.
class StableScanSource : public BatchSource {
 public:
  /// `projection` must be non-empty; `range` must lie within the image.
  StableScanSource(const ColumnStore* store, std::vector<ColumnId> projection,
                   SidRange range);

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  const ColumnStore* store_;
  std::vector<ColumnId> projection_;
  Batch proto_;  // output layout, reused via ResetLike
  Sid cur_sid_ = 0;
  Sid end_sid_ = 0;
};

/// Applies one PDT layer to an input stream whose row positions (batch
/// start_rid + offset) are in the PDT's SID domain. Emits rows with RIDs
/// in the PDT's RID domain. The fast path passes whole runs of unmodified
/// rows through by counting down to the next update position ("skip"),
/// never comparing values.
///
/// Zero-copy runs: a stable run that covers the whole input batch or is
/// at least 256 rows long is emitted as a borrowed slice of the input
/// (ColumnVector::SliceFrom), so no row is copied and borrows over
/// buffer-pool chunks pass up stacked layers unchanged. Such a run ends
/// the output batch; rows already gathered are flushed first. A modify
/// inside it detaches only the modified column (copy-on-write SetFrom).
/// Shorter runs, inserts and owned inputs are copied into an owned batch.
///
/// Interval semantics: the input covers one contiguous run of positions
/// starting at `start_pos`, where the entry cursor is placed up front
/// (SeekSid), so a source over [lo, hi) starts correctly even when the
/// input yields no rows at all (every stable row of the interval deleted
/// by a lower layer). Entries at `start_pos` are emitted as leading
/// inserts; entries at the end-of-input position as trailing inserts
/// once the input is exhausted. For a key-bounded scan that is a
/// conservative superset — query predicates filter on top.
///
/// Morsel semantics (parallel scans): `emit_trailing_inserts` is false
/// on every morsel but the scan's last one: entries at a morsel's end
/// position are exactly the entries at the next morsel's start position,
/// which that morsel emits as leading inserts — together the morsels
/// partition the merged output with no duplicate and no loss.
class PdtMergeSource : public BatchSource {
 public:
  PdtMergeSource(std::unique_ptr<BatchSource> input, const Pdt* pdt,
                 std::vector<ColumnId> projection, Sid start_pos,
                 bool emit_trailing_inserts);

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  // Pulls the next input batch into buf_ (which must continue at
  // in_pos_); returns false when the input is exhausted.
  StatusOr<bool> FillInput(size_t max_rows);
  // Consumes the run of consecutive INS entries at the current position
  // (up to the batch budget) and gathers their tuples column-wise.
  void EmitInsertRun(Batch* out, size_t max_rows);

  std::unique_ptr<BatchSource> input_;
  const Pdt* pdt_;
  std::vector<ColumnId> projection_;
  Batch proto_;  // output layout, reused via ResetLike
  SelVector insert_offsets_;  // scratch reused across insert runs
  Batch buf_;
  size_t buf_off_ = 0;
  Rid in_pos_ = 0;     // input-domain position of buf_[buf_off_]
  bool input_done_ = false;
  bool emit_trailing_inserts_;
  Pdt::Cursor cursor_;
};

/// Builds the merge stack over the stable interval `range`: a stable scan
/// plus one PdtMergeSource per layer, bottom-up (layers[0] is the lowest
/// / oldest, e.g. the Read-PDT; the last is e.g. the Trans-PDT). Null and
/// empty layers are skipped. Each layer's cursor starts at the lower
/// layer's output position at `range.begin` (the stable start shifted by
/// the SeekSid prefix deltas below), so stacked layers stay aligned even
/// when lower layers emit no row of the interval. `final_morsel` is false
/// only for a parallel scan's non-last morsels, which leave the inserts
/// at their end position to the next morsel. Concatenating the outputs
/// of a scan's morsels in SID order equals the whole interval's output.
std::unique_ptr<BatchSource> MakeMergeScan(
    const ColumnStore& store, const std::vector<const Pdt*>& layers,
    const std::vector<ColumnId>& projection, SidRange range,
    bool final_morsel = true);

}  // namespace pdtstore

#endif  // PDTSTORE_PDT_MERGE_SCAN_H_
