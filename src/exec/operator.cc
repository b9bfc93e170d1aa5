#include "exec/operator.h"

namespace pdtstore {

namespace {

// What the rows of `col` hold, as col.ByteSize() counts them minus any
// dictionary, after `added` rows were appended to it; `before` is that
// count before the append and `was_dict` its representation then. It
// only grows: a code that decays to a plain string gets bigger. A column
// that kept its representation is counted from its new rows alone; one
// that just dropped its dictionary (at most once) is counted whole.
size_t RowBytesAfterAppend(const ColumnVector& col, size_t before,
                           bool was_dict, size_t added) {
  if (col.type() != TypeId::kString || col.is_dict() || was_dict) {
    return RowBytesFrom(col, 0);
  }
  return before + RowBytesFrom(col, col.size() - added);
}

}  // namespace

size_t RowBytesFrom(const ColumnVector& col, size_t from) {
  const size_t rows = col.size() - from;
  if (col.type() != TypeId::kString) return rows * 8;
  if (col.is_dict()) return rows * sizeof(uint32_t);
  size_t total = rows * sizeof(std::string);
  const std::string* s = col.strings_data();
  for (size_t i = from; i < col.size(); ++i) total += s[i].capacity();
  return total;
}

size_t AppendPlainRows(Batch* into, const Batch& b, const SelVector* sel) {
  size_t bytes = 0;
  for (size_t c = 0; c < into->num_columns(); ++c) {
    ColumnVector& col = into->column(c);
    const size_t before = col.size();
    if (sel != nullptr) {
      col.AppendGather(b.column(c), *sel);
    } else {
      col.AppendRange(b.column(c), 0, b.num_rows());
    }
    // Only an empty column adopts a dictionary, so decaying it right
    // away keeps every later append plain.
    if (col.is_dict()) col.EnsureOwnedPlain();
    bytes += RowBytesFrom(col, before);
  }
  return bytes;
}

StatusOr<bool> VectorSource::Next(Batch* out, size_t max_rows) {
  if (pos_ >= batch_.num_rows()) return false;
  size_t end = std::min(batch_.num_rows(), pos_ + max_rows);
  out->ResetLike(batch_);
  out->set_start_rid(batch_.start_rid() + pos_);
  for (size_t c = 0; c < batch_.num_columns(); ++c) {
    out->column(c).AppendRange(batch_.column(c), pos_, end);
  }
  pos_ = end;
  return true;
}

StatusOr<Batch> MaterializeAll(BatchSource* source, size_t batch_size,
                               BudgetLease* lease) {
  const bool charge = lease != nullptr && lease->budget() != nullptr;
  Batch all;
  Batch batch;
  std::vector<size_t> row_bytes;  // RowBytesAfterAppend of each column
  bool first = true;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, source->Next(&batch, batch_size));
    if (!more) break;
    if (first) {
      // `all` owns its rows from the first batch on (never a borrowed
      // window), so the charge counts what it holds.
      all.ResetLike(batch);
      all.set_start_rid(batch.start_rid());
      row_bytes.assign(all.num_columns(), 0);
      first = false;
    }
    size_t grown = 0;
    for (size_t c = 0; c < all.num_columns(); ++c) {
      ColumnVector& col = all.column(c);
      const bool was_dict = col.is_dict();
      col.AppendRange(batch.column(c), 0, batch.num_rows());
      if (!charge) continue;
      const size_t now =
          RowBytesAfterAppend(col, row_bytes[c], was_dict, batch.num_rows());
      grown += now - row_bytes[c];
      row_bytes[c] = now;
    }
    if (charge) PDT_RETURN_NOT_OK(lease->Charge(grown));
  }
  if (charge) {
    // The dictionaries `all` kept, charged once at the end: a column
    // that adopts one may still drop it for plain strings, and the
    // charge must never exceed what the result finally holds.
    size_t dicts = 0;
    for (size_t c = 0; c < all.num_columns(); ++c) {
      if (all.column(c).is_dict()) {
        dicts += all.column(c).ByteSize() - row_bytes[c];
      }
    }
    PDT_RETURN_NOT_OK(lease->Charge(dicts));
  }
  return all;
}

}  // namespace pdtstore
