#include "exec/filter.h"

#include <algorithm>

namespace pdtstore {

void EvalConjunction(const std::vector<VecPredicate>& preds, const Batch& b,
                     KeepBitmap* keep, KeepBitmap* tmp) {
  const size_t n = b.num_rows();
  if (preds.empty()) {
    // The identity element of conjunction: an empty AND keeps all rows.
    keep->ResetAllSet(n);
    return;
  }
  keep->Reset(n);
  preds[0](b, keep);
  for (size_t p = 1; p < preds.size(); ++p) {
    if (keep->None()) return;  // conjunction already empty
    tmp->Reset(n);
    preds[p](b, tmp);
    keep->And(*tmp);
  }
}

StatusOr<bool> FilterNode::Next(Batch* out, size_t max_rows) {
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&in_, max_rows));
    if (!more) return false;
    EvalConjunction(predicates_, in_, &keep_, &tmp_);
    if (keep_.None()) continue;  // entirely filtered out: pull again
    if (keep_.All()) {
      // Everything survives: hand the input batch over without the
      // expand + gather pass (the all-ones word fast path's big win).
      std::swap(*out, in_);
      return true;
    }
    // Compact survivors column-wise: one typed kernel per column rather
    // than a type dispatch per surviving value.
    out->ResetLike(in_);
    out->set_start_rid(in_.start_rid());
    out->AppendFiltered(in_, keep_);
    return true;
  }
}

namespace {

// Evaluates `test(value) -> bool` run-at-a-time over a column carrying an
// RLE sidecar: one value test per run, then a word-wise SetRange fill of
// the kept rows (the bitmap arrives all-zero per the predicate contract).
// Run bounds are payload coordinates; the batch column may be a borrowed
// window starting at view_offset().
template <typename T, typename Test>
void EvalOverRuns(const ColumnVector& col, const T* v, size_t n,
                  const RleRuns& runs, KeepBitmap* keep, Test test) {
  const size_t voff = col.view_offset();
  auto it = std::upper_bound(runs.ends.begin(), runs.ends.end(), voff);
  size_t r = static_cast<size_t>(it - runs.ends.begin());
  size_t row = 0;
  while (row < n && r < runs.ends.size()) {
    const size_t run_end = std::min<size_t>(runs.ends[r] - voff, n);
    if (test(v[row])) keep->SetRange(row, run_end);
    row = run_end;
    ++r;
  }
}

}  // namespace

VecPredicate Int64Between(size_t idx, int64_t lo, int64_t hi) {
  return [idx, lo, hi](const Batch& b, KeepBitmap* keep) {
    const ColumnVector& col = b.column(idx);
    const int64_t* v = col.ints_data();
    const size_t n = col.size();
    if (const RleRuns* runs = col.rle_runs()) {
      EvalOverRuns(col, v, n, *runs, keep,
                   [&](int64_t x) { return x >= lo && x <= hi; });
      return;
    }
    keep->FillFrom([&](size_t i) { return (v[i] >= lo) & (v[i] <= hi); });
  };
}

VecPredicate DoubleInRange(size_t idx, double lo, double hi) {
  return [idx, lo, hi](const Batch& b, KeepBitmap* keep) {
    const ColumnVector& col = b.column(idx);
    const double* v = col.doubles_data();
    const size_t n = col.size();
    if (const RleRuns* runs = col.rle_runs()) {
      EvalOverRuns(col, v, n, *runs, keep,
                   [&](double x) { return x >= lo && x < hi; });
      return;
    }
    keep->FillFrom([&](size_t i) { return (v[i] >= lo) & (v[i] < hi); });
  };
}

VecPredicate StringEquals(size_t idx, std::string s) {
  return [idx, s = std::move(s)](const Batch& b, KeepBitmap* keep) {
    const ColumnVector& col = b.column(idx);
    if (col.is_dict()) {
      // Resolve the literal against the chunk dictionary once, then the
      // row loop is an integer compare over the code vector. No match in
      // the dictionary means no match in the batch (bitmap stays zero).
      const StringDict& d = *col.dict();
      uint32_t target = 0;
      bool found = false;
      for (uint32_t c = 0; c < d.values.size(); ++c) {
        if (d.values[c] == s) {
          target = c;
          found = true;
          break;
        }
      }
      if (!found) return;
      const uint32_t* codes = col.codes_data();
      keep->FillFrom([&](size_t i) { return codes[i] == target; });
      return;
    }
    const std::string* v = col.strings_data();
    keep->FillFrom([&](size_t i) { return v[i] == s; });
  };
}

VecPredicate StringMatch(size_t idx,
                         std::function<bool(const std::string&)> fn) {
  return [idx, fn = std::move(fn)](const Batch& b, KeepBitmap* keep) {
    const ColumnVector& col = b.column(idx);
    if (col.is_dict()) {
      // Evaluate the match once per distinct dictionary entry (a chunk
      // dictionary is much smaller than the chunk), then test codes
      // against the verdict table instead of re-running the string
      // predicate per row.
      const StringDict& d = *col.dict();
      std::vector<uint8_t> verdict(d.values.size());
      for (size_t c = 0; c < d.values.size(); ++c) {
        verdict[c] = fn(d.values[c]) ? 1 : 0;
      }
      const uint32_t* codes = col.codes_data();
      keep->FillFrom([&](size_t i) { return verdict[codes[i]] != 0; });
      return;
    }
    const std::string* v = col.strings_data();
    keep->FillFrom([&](size_t i) { return fn(v[i]); });
  };
}

// The combinator closures are shared read-only across pipeline workers
// (one FilterOp, many threads), so the fold scratch must be call-local
// — no mutable captured state.

VecPredicate And(std::vector<VecPredicate> preds) {
  return [preds = std::move(preds)](const Batch& b, KeepBitmap* keep) {
    KeepBitmap tmp;
    EvalConjunction(preds, b, keep, &tmp);
  };
}

VecPredicate Or(std::vector<VecPredicate> preds) {
  return [preds = std::move(preds)](const Batch& b, KeepBitmap* keep) {
    const size_t n = b.num_rows();
    if (preds.empty()) return;
    preds[0](b, keep);
    KeepBitmap tmp;
    for (size_t p = 1; p < preds.size(); ++p) {
      if (keep->All()) return;  // disjunction already saturated
      tmp.Reset(n);
      preds[p](b, &tmp);
      keep->Or(tmp);
    }
  };
}

}  // namespace pdtstore
