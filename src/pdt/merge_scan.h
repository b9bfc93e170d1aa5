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

/// Scans the stable table's projected columns over the given SID ranges
/// (empty = full table), emitting batches whose start_rid is the SID of
/// the first row. The input side of every merge stack.
class StableScanSource : public BatchSource {
 public:
  /// `projection` must be non-empty; `ranges` must be ascending and
  /// disjoint (as produced by SparseIndex::LookupRange).
  StableScanSource(const ColumnStore* store, std::vector<ColumnId> projection,
                   std::vector<SidRange> ranges = {});

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  const ColumnStore* store_;
  std::vector<ColumnId> projection_;
  std::vector<SidRange> ranges_;
  Batch proto_;  // output layout, reused via ResetLike
  size_t range_idx_ = 0;
  Sid cur_sid_ = 0;
  bool started_ = false;
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
/// Range-scan semantics: on a gap in the input positions the entry cursor
/// re-seeks; trailing inserts (entries at the end-of-input position) are
/// emitted when the input is exhausted, which for restricted scans yields
/// a conservative superset exactly like zone-map pruning does — query
/// predicates filter on top.
///
/// Morsel semantics (parallel scans): `start_pos` positions the entry
/// cursor at an arbitrary input-domain offset up front (SeekSid), so a
/// source over morsel [lo, hi) starts correctly even when the input
/// yields no rows at all (every stable row of the morsel deleted by a
/// lower layer). `emit_trailing_inserts` is false on every morsel but
/// the scan's last one: entries at a morsel's end position are exactly
/// the entries at the next morsel's start position, which that morsel
/// emits as leading inserts — together the morsels partition the merged
/// output with no duplicate and no loss.
class PdtMergeSource : public BatchSource {
 public:
  PdtMergeSource(std::unique_ptr<BatchSource> input, const Pdt* pdt,
                 std::vector<ColumnId> projection, Sid start_pos = 0,
                 bool emit_trailing_inserts = true);

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  // Ensures buf_ has an unconsumed row, pulling from the input; returns
  // false when the input is exhausted.
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
  // Set by FillInput on an input RID discontinuity (zone-pruned gap):
  // the batch being assembled must flush before the post-gap rows, so
  // this layer's output RIDs stay contiguous within every batch.
  bool input_jumped_ = false;
  bool emit_trailing_inserts_ = true;
  Pdt::Cursor cursor_;
};

/// Builds the full stack: stable scan + one PdtMergeSource per layer,
/// bottom-up (layers[0] is the lowest / oldest, e.g. Read-PDT; the last is
/// e.g. the Trans-PDT). Null layers are skipped.
std::unique_ptr<BatchSource> MakeMergeScan(
    const ColumnStore& store, std::vector<const Pdt*> layers,
    std::vector<ColumnId> projection, std::vector<SidRange> ranges = {});

/// Builds the stack restricted to one morsel [morsel.begin, morsel.end)
/// of the stable SID domain. Each layer's cursor start position is the
/// lower layer's output position at the morsel boundary (derived via
/// SeekSid prefix deltas), so stacked layers stay aligned even when the
/// morsel emits no stable rows. `final_morsel` marks the scan's last
/// morsel, the only one that emits trailing inserts (see PdtMergeSource).
/// Concatenating the outputs of all morsels of a scan in SID order equals
/// the unrestricted MakeMergeScan output over the same ranges.
std::unique_ptr<BatchSource> MakeMorselMergeScan(
    const ColumnStore& store, const std::vector<const Pdt*>& layers,
    const std::vector<ColumnId>& projection, SidRange morsel,
    bool final_morsel);

}  // namespace pdtstore

#endif  // PDTSTORE_PDT_MERGE_SCAN_H_
