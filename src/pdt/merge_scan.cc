#include "pdt/merge_scan.h"

#include <algorithm>
#include <cassert>

namespace pdtstore {

namespace {
// Stable runs at least this long pass through PdtMergeSource as borrowed
// slices of the input batch instead of being copied. Each borrowed run
// ends an output batch, and an extra batch costs about as much as
// copying a few hundred values, so shorter runs are copied. At 256, dense
// deltas on a narrow projection scan no slower than copying every run;
// at 128 they were 5-10% slower (DESIGN.md, "Selection-vector kernels").
constexpr size_t kMinBorrowRows = 256;
}  // namespace

// ---------------------------------------------------------------------
// StableScanSource.
// ---------------------------------------------------------------------

StableScanSource::StableScanSource(const ColumnStore* store,
                                   std::vector<ColumnId> projection,
                                   SidRange range)
    : store_(store),
      projection_(std::move(projection)),
      cur_sid_(range.begin),
      end_sid_(range.end) {
  assert(!projection_.empty() && "scan needs at least one column");
  assert(range.begin <= range.end && range.end <= store_->num_rows());
  proto_ = Batch::ForSchema(store_->schema(), projection_);
}

StatusOr<bool> StableScanSource::Next(Batch* out, size_t max_rows) {
  if (cur_sid_ >= end_sid_) return false;
  size_t ci = store_->ChunkIndexForSid(cur_sid_);
  auto [cstart, cend] = store_->ChunkSidRange(ci);
  Sid end = std::min({end_sid_, cend, cur_sid_ + max_rows});

  out->ResetLike(proto_);
  out->set_start_rid(cur_sid_);
  for (size_t i = 0; i < projection_.size(); ++i) {
    PDT_ASSIGN_OR_RETURN(auto data, store_->FetchChunk(projection_[i], ci));
    // Zero-copy: the batch column becomes a view over the pool's decoded
    // chunk (pinned by the shared_ptr), instead of memcpy-ing the rows
    // into per-query storage. Downstream operators that mutate the batch
    // detach via copy-on-write; pure readers never copy. Batches never
    // span chunks, so a dictionary chunk's codes stay valid batch-wide.
    out->column(i).BorrowFrom(std::move(data), cur_sid_ - cstart,
                              end - cur_sid_);
  }
  cur_sid_ = end;
  return true;
}

// ---------------------------------------------------------------------
// PdtMergeSource.
// ---------------------------------------------------------------------

PdtMergeSource::PdtMergeSource(std::unique_ptr<BatchSource> input,
                               const Pdt* pdt,
                               std::vector<ColumnId> projection,
                               Sid start_pos, bool emit_trailing_inserts)
    : input_(std::move(input)),
      pdt_(pdt),
      projection_(std::move(projection)),
      in_pos_(start_pos),
      emit_trailing_inserts_(emit_trailing_inserts) {
  // SeekSid skips the entries before the interval while accumulating
  // the global prefix delta, keeping emitted RIDs correct.
  cursor_ = pdt_->SeekSid(start_pos);
  proto_ = Batch::ForSchema(pdt_->schema(), projection_);
}

StatusOr<bool> PdtMergeSource::FillInput(size_t max_rows) {
  PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&buf_, max_rows));
  buf_off_ = 0;
  if (!more) {
    buf_ = Batch();  // drop any stale rows from the previous batch
    input_done_ = true;
    return false;
  }
  // One interval per scan: the input never skips positions.
  assert(buf_.start_rid() == in_pos_);
  return true;
}

void PdtMergeSource::EmitInsertRun(Batch* out, size_t max_rows) {
  // Consumes the run of consecutive INS entries at the current position
  // (bounded by the batch budget) and gathers their tuples column-wise
  // from the insert space.
  insert_offsets_.clear();
  while (cursor_.Valid() && cursor_.sid() == in_pos_ &&
         cursor_.type() == kTypeIns &&
         out->num_rows() + insert_offsets_.size() < max_rows) {
    insert_offsets_.push_back(static_cast<uint32_t>(cursor_.value()));
    cursor_.Next();
  }
  const ValueSpace& vs = pdt_->value_space();
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->column(i).AppendGather(vs.insert_column(projection_[i]),
                                insert_offsets_);
  }
}

StatusOr<bool> PdtMergeSource::Next(Batch* out, size_t max_rows) {
  out->ResetLike(proto_);
  bool start_set = false;
  auto set_start = [&] {
    if (!start_set) {
      out->set_start_rid(in_pos_ + cursor_.delta_before());
      start_set = true;
    }
  };

  while (out->num_rows() < max_rows) {
    if (!input_done_ && buf_off_ >= buf_.num_rows()) {
      PDT_ASSIGN_OR_RETURN(bool more, FillInput(max_rows));
      (void)more;
    }
    const bool have_row = buf_off_ < buf_.num_rows();
    const bool have_entry = cursor_.Valid();

    if (have_row) {
      assert(!have_entry || cursor_.sid() >= in_pos_);
      const bool entry_here = have_entry && cursor_.sid() == in_pos_;
      if (entry_here && cursor_.type() == kTypeIns) {
        set_start();
        EmitInsertRun(out, max_rows);
        continue;
      }
      if (entry_here && cursor_.type() == kTypeDel) {
        // Ghost: consume the stable row without emitting it.
        ++buf_off_;
        ++in_pos_;
        cursor_.Next();
        continue;
      }
      // Bulk path: pass a whole run of stable rows through column-wise
      // (`skip` in the paper's Algorithm 2). The run may span modify
      // entries — they are patched into the output afterwards (typed
      // SetFrom) — so only INS/DEL entries truncate it.
      size_t run = buf_.num_rows() - buf_off_;
      Pdt::Cursor scout = cursor_;
      while (scout.Valid() && scout.sid() < in_pos_ + run) {
        if (!IsModifyType(scout.type())) {
          run = scout.sid() - in_pos_;
          break;
        }
        scout.Next();
      }
      assert(run > 0);
      // A long run (or one covering the whole input batch) is emitted as
      // a borrowed slice of the input: no row is copied, and borrows pass
      // up stacked layers unchanged. It ends the output batch, so rows
      // already gathered flush first. Shorter runs are copied, so dense
      // deltas do not cut batches into slivers.
      const bool borrow = run >= kMinBorrowRows ||
                          (buf_off_ == 0 && run == buf_.num_rows());
      if (borrow && out->num_rows() > 0) break;
      run = std::min(run, max_rows - out->num_rows());
      set_start();
      const size_t base = out->num_rows();
      for (size_t i = 0; i < out->num_columns(); ++i) {
        if (borrow) {
          out->column(i).SliceFrom(buf_.column(i), buf_off_, run);
        } else {
          out->column(i).AppendRange(buf_.column(i), buf_off_,
                                     buf_off_ + run);
        }
      }
      // Modifies inside the run: SetFrom detaches (copy-on-write) only
      // the modified column of a borrowed slice.
      const ValueSpace& vs = pdt_->value_space();
      while (cursor_.Valid() && cursor_.sid() < in_pos_ + run) {
        const ColumnId col = static_cast<ColumnId>(cursor_.type());
        int idx = out->IndexOfColumn(col);
        if (idx >= 0) {
          out->column(idx).SetFrom(base + (cursor_.sid() - in_pos_),
                                   vs.modify_column(col), cursor_.value());
        }
        cursor_.Next();
      }
      buf_off_ += run;
      in_pos_ += run;
      if (borrow) break;
      continue;
    }

    if (!input_done_) continue;  // fetch more at the loop top

    // Input exhausted: emit trailing inserts at the end position — unless
    // this source covers a non-final morsel, whose end-position entries
    // belong to the following morsel (its leading inserts).
    if (emit_trailing_inserts_ && have_entry && cursor_.sid() == in_pos_ &&
        cursor_.type() == kTypeIns) {
      set_start();
      EmitInsertRun(out, max_rows);
      continue;
    }
    break;
  }
  return out->num_rows() > 0;
}

// ---------------------------------------------------------------------
// Stack assembly.
// ---------------------------------------------------------------------

std::unique_ptr<BatchSource> MakeMergeScan(
    const ColumnStore& store, const std::vector<const Pdt*>& layers,
    const std::vector<ColumnId>& projection, SidRange range,
    bool final_morsel) {
  std::unique_ptr<BatchSource> source =
      std::make_unique<StableScanSource>(&store, projection, range);
  // Each layer consumes the output positions of the layer below: the
  // interval's start position in that domain is the stable start shifted
  // by the prefix delta of every lower layer.
  Sid start_pos = range.begin;
  for (const Pdt* layer : layers) {
    // An empty layer is an identity mapping (prefix delta 0, no inserts):
    // skipping it keeps the scan a bare StableScanSource (borrowed,
    // zero-copy batches) after checkpoints wipe the deltas.
    if (layer == nullptr || layer->EntryCount() == 0) continue;
    source = std::make_unique<PdtMergeSource>(std::move(source), layer,
                                              projection, start_pos,
                                              final_morsel);
    start_pos = static_cast<Sid>(static_cast<int64_t>(start_pos) +
                                 layer->SeekSid(start_pos).delta_before());
  }
  return source;
}

}  // namespace pdtstore
