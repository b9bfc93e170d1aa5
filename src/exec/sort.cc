#include "exec/sort.h"

#include <algorithm>
#include <numeric>

#include "exec/operator.h"

namespace pdtstore {

int CompareRowsByKeys(const std::vector<SortKey>& keys, const Batch& ab,
                      size_t a, const Batch& bb, size_t b) {
  for (const SortKey& k : keys) {
    int c = ab.column(k.idx).CompareAt(a, bb.column(k.idx), b);
    if (c != 0) return k.descending ? -c : c;
  }
  return 0;
}

// ---------------------------------------------------------------------
// RunMerger.
//
// Tree layout: a heap-like array of 2k nodes — leaves k..2k-1 carry run
// r at node r+k, internal nodes 1..k-1 each store the *loser* of the
// match between their subtrees, winner_ the overall champion. Valid for
// any k (leaves may straddle two depths; the parent relation n/2 still
// forms a tournament). A pop replays only the popped run's leaf-to-root
// path: every other contender's best representative sits on that path.
// ---------------------------------------------------------------------

RunMerger::RunMerger(std::vector<SortedRun> runs, std::vector<SortKey> keys,
                     size_t limit)
    : keys_(std::move(keys)), limit_(limit) {
  for (SortedRun& r : runs) {
    if (r.rows.num_rows() > 0) runs_.push_back(std::move(r));
  }
  const size_t k = runs_.size();
  cursor_.assign(k, 0);
  if (k == 0) return;
  // Bottom-up tournament: win[n] is the winner of node n's subtree;
  // internal nodes keep the loser of their match.
  tree_.assign(k, kSentinel);
  std::vector<size_t> win(2 * k);
  for (size_t r = 0; r < k; ++r) win[r + k] = r;
  for (size_t n = k - 1; n >= 1; --n) {
    const size_t a = win[2 * n], b = win[2 * n + 1];
    const bool b_wins = RunLess(b, a);
    win[n] = b_wins ? b : a;
    tree_[n] = b_wins ? a : b;
  }
  winner_ = k == 1 ? 0 : win[1];
}

bool RunMerger::RunLess(size_t a, size_t b) const {
  const bool ea = a == kSentinel || cursor_[a] >= runs_[a].rows.num_rows();
  const bool eb = b == kSentinel || cursor_[b] >= runs_[b].rows.num_rows();
  if (ea) return false;
  if (eb) return true;
  int c = CompareRowsByKeys(keys_, runs_[a].rows, cursor_[a], runs_[b].rows,
                            cursor_[b]);
  if (c != 0) return c < 0;
  // Key tie: source order decides (tags are unique, so never equal).
  return runs_[a].seq[cursor_[a]] < runs_[b].seq[cursor_[b]];
}

void RunMerger::Adjust(size_t r) {
  const size_t k = runs_.size();
  size_t winner = r;
  for (size_t node = (r + k) / 2; node >= 1; node /= 2) {
    if (RunLess(tree_[node], winner)) std::swap(tree_[node], winner);
  }
  winner_ = winner;
}

bool RunMerger::Next(Batch* out, size_t max_rows) {
  if (runs_.empty()) return false;
  if (limit_ > 0) max_rows = std::min(max_rows, limit_ - emitted_);
  if (max_rows == 0) return false;
  out->ResetLike(runs_[0].rows);
  size_t produced = 0;
  while (produced < max_rows) {
    const size_t w = winner_;
    if (w == kSentinel || cursor_[w] >= runs_[w].rows.num_rows()) break;
    // Pop consecutive winners from run w as one range: each pop is a
    // leaf-to-root replay, the rows append with one TypeId dispatch
    // per column instead of one per row.
    const size_t start = cursor_[w];
    do {
      ++cursor_[w];
      Adjust(w);
      // winner_ can stay w after w exhausts (when every run is done the
      // replay has nothing better), so re-check the cursor too.
    } while (winner_ == w && cursor_[w] < runs_[w].rows.num_rows() &&
             produced + (cursor_[w] - start) < max_rows);
    const size_t end = cursor_[w];
    for (size_t c = 0; c < out->num_columns(); ++c) {
      out->column(c).AppendRange(runs_[w].rows.column(c), start, end);
    }
    produced += end - start;
  }
  emitted_ += produced;
  return produced > 0;
}

// ---------------------------------------------------------------------
// SortNode.
// ---------------------------------------------------------------------

StatusOr<bool> SortNode::Next(Batch* out, size_t max_rows) {
  if (!built_) {
    // The drain charges what each batch adds against the query's
    // budget, so an over-budget sort fails fast with ResourceExhausted
    // at the batch that crosses the cap; the lease destructor releases
    // the charge.
    PDT_ASSIGN_OR_RETURN(
        all_, MaterializeAll(input_.get(), kDefaultBatchSize, &lease_));
    PDT_RETURN_NOT_OK(lease_.Charge(4 * all_.num_rows()));  // order_
    order_.indices().resize(all_.num_rows());
    std::iota(order_.indices().begin(), order_.indices().end(), 0);
    std::stable_sort(order_.indices().begin(), order_.indices().end(),
                     [&](uint32_t a, uint32_t b) {
      return CompareRowsByKeys(keys_, all_, a, all_, b) < 0;
    });
    if (limit_ > 0 && order_.size() > limit_) {
      order_.indices().resize(limit_);
      // Top-k: compact to the surviving rows and drop the full input —
      // a long-lived cursor must not pin the whole materialization for
      // `limit` rows.
      Batch top;
      top.set_column_ids(all_.column_ids());
      for (size_t c = 0; c < all_.num_columns(); ++c) {
        top.columns().emplace_back(all_.column(c).type());
      }
      top.AppendGather(all_, order_);
      all_ = std::move(top);
      std::iota(order_.indices().begin(), order_.indices().end(), 0);
    }
    built_ = true;
  }
  if (pos_ >= order_.size()) return false;
  const size_t end = std::min(order_.size(), pos_ + max_rows);
  // Gather the slice straight out of the materialized input: no second
  // full-size sorted copy, and `out`/`slice_` storage is reused across
  // pulls.
  slice_.indices().assign(order_.indices().begin() + pos_,
                          order_.indices().begin() + end);
  out->ResetLike(all_);
  out->AppendGather(all_, slice_);
  pos_ = end;
  return true;
}

}  // namespace pdtstore
