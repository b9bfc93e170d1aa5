#include "vdt/vdt_merge_scan.h"

#include <algorithm>

#include "pdt/merge_scan.h"  // StableScanSource

namespace pdtstore {

VdtMergeScan::VdtMergeScan(const ColumnStore* store, const Vdt* vdt,
                           std::vector<ColumnId> projection,
                           SidRange range, KeyBounds bounds)
    : store_(store),
      vdt_(vdt),
      projection_(std::move(projection)),
      bounds_(std::move(bounds)) {
  // The value-based merge *must* scan the SK columns: build the widened
  // scan projection and remember where the SK / user columns land.
  scan_projection_ = projection_;
  for (ColumnId k : store_->schema().sort_key()) {
    if (std::find(scan_projection_.begin(), scan_projection_.end(), k) ==
        scan_projection_.end()) {
      scan_projection_.push_back(k);
    }
  }
  for (ColumnId k : store_->schema().sort_key()) {
    auto it = std::find(scan_projection_.begin(), scan_projection_.end(), k);
    sk_batch_idx_.push_back(
        static_cast<int>(it - scan_projection_.begin()));
  }
  for (ColumnId c : projection_) {
    auto it = std::find(scan_projection_.begin(), scan_projection_.end(), c);
    out_batch_idx_.push_back(
        static_cast<int>(it - scan_projection_.begin()));
  }
  stable_ =
      std::make_unique<StableScanSource>(store_, scan_projection_, range);
  proto_ = Batch::ForSchema(store_->schema(), projection_);
  ins_it_ = vdt_->inserts().begin();
  del_it_ = vdt_->deletes().begin();
  if (!bounds_.lo.empty()) {
    ins_it_ = vdt_->inserts().lower_bound(bounds_.lo);
    del_it_ = vdt_->deletes().lower_bound(bounds_.lo);
  }
}

int VdtMergeScan::CompareRowToKey(size_t row,
                                  const std::vector<Value>& key) const {
  const auto& sk_cols = store_->schema().sort_key();
  for (size_t k = 0; k < sk_cols.size() && k < key.size(); ++k) {
    const ColumnVector& col = buf_.column(sk_batch_idx_[k]);
    int c;
    switch (col.type()) {
      case TypeId::kInt64: {
        int64_t a = col.ints_data()[row], b = key[k].AsInt64();
        c = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case TypeId::kDouble: {
        double a = col.doubles_data()[row], b = key[k].AsDouble();
        c = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      default: {
        int r = col.StringAt(row).compare(key[k].AsString());
        c = r < 0 ? -1 : (r > 0 ? 1 : 0);
        break;
      }
    }
    if (c != 0) return c;
  }
  return 0;
}

void VdtMergeScan::EmitStableRow(Batch* out, size_t row) {
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->column(i).AppendFrom(buf_.column(out_batch_idx_[i]), row);
  }
}

void VdtMergeScan::EmitInsertTuple(Batch* out, const Tuple& t) {
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->column(i).Append(t[projection_[i]]);
  }
}

bool VdtMergeScan::InsertInBounds(const std::vector<Value>& key) const {
  if (!bounds_.hi.empty()) {
    std::vector<Value> prefix(key.begin(),
                              key.begin() + std::min(key.size(),
                                                     bounds_.hi.size()));
    if (CompareTuples(prefix, bounds_.hi) > 0) return false;
  }
  return true;
}

StatusOr<bool> VdtMergeScan::Next(Batch* out, size_t max_rows) {
  out->ResetLike(proto_);
  out->set_start_rid(out_rid_);

  const auto ins_end = vdt_->inserts().end();
  const auto del_end = vdt_->deletes().end();

  while (out->num_rows() < max_rows) {
    if (!input_done_ && buf_off_ >= buf_.num_rows()) {
      PDT_ASSIGN_OR_RETURN(bool more, stable_->Next(&buf_, max_rows));
      buf_off_ = 0;
      if (!more) {
        buf_ = Batch();
        input_done_ = true;
      }
    }
    const bool have_row = buf_off_ < buf_.num_rows();

    if (have_row) {
      // Fast path: no differential entries remain — bulk-copy the rest of
      // the batch (matches the no-updates scan; with entries present the
      // value-based merge must compare keys row by row, which is the cost
      // under study).
      if (ins_it_ == ins_end && del_it_ == del_end) {
        size_t run = std::min(buf_.num_rows() - buf_off_,
                              max_rows - out->num_rows());
        for (size_t i = 0; i < projection_.size(); ++i) {
          out->column(i).AppendRange(buf_.column(out_batch_idx_[i]),
                                     buf_off_, buf_off_ + run);
        }
        buf_off_ += run;
        out_rid_ += run;
        continue;
      }
      // MergeUnion step: emit pending inserts that precede this row.
      while (ins_it_ != ins_end &&
             CompareRowToKey(buf_off_, ins_it_->first) > 0 &&
             out->num_rows() < max_rows) {
        if (InsertInBounds(ins_it_->first)) {
          EmitInsertTuple(out, ins_it_->second);
          ++out_rid_;
        }
        ++ins_it_;
      }
      if (out->num_rows() >= max_rows) break;
      // Modified tuple: insert-table version replaces the stable row.
      if (ins_it_ != ins_end &&
          CompareRowToKey(buf_off_, ins_it_->first) == 0) {
        EmitInsertTuple(out, ins_it_->second);
        ++out_rid_;
        ++ins_it_;
        ++buf_off_;
        // Its deletion marker (if stable) is consumed alongside.
        while (del_it_ != del_end &&
               CompareTuples(del_it_->first, std::prev(ins_it_)->first) <= 0) {
          ++del_it_;
        }
        continue;
      }
      // MergeDiff step: drop the row if its key is marked deleted.
      while (del_it_ != del_end &&
             CompareRowToKey(buf_off_, del_it_->first) > 0) {
        ++del_it_;
      }
      if (del_it_ != del_end &&
          CompareRowToKey(buf_off_, del_it_->first) == 0) {
        ++del_it_;
        ++buf_off_;
        continue;
      }
      EmitStableRow(out, buf_off_);
      ++out_rid_;
      ++buf_off_;
      continue;
    }

    if (!input_done_) continue;

    // Stable exhausted: drain remaining inserts (within bounds). The map
    // is key-ordered, so the first insert past the upper bound ends the
    // drain.
    if (ins_it_ != ins_end) {
      if (!InsertInBounds(ins_it_->first)) break;
      EmitInsertTuple(out, ins_it_->second);
      ++out_rid_;
      ++ins_it_;
      continue;
    }
    break;
  }
  return out->num_rows() > 0;
}

}  // namespace pdtstore
