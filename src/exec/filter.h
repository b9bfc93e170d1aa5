// FilterNode: vectorized selection. The predicate marks surviving rows of
// a whole batch at once in a 1-bit-per-row KeepBitmap; survivors are
// compacted into the output batch through one selection-vector gather.
// Multi-predicate filters fold their bitmaps word-wise (AND/OR) before
// the single expansion — no intermediate selection or compacted batch is
// materialized (see keep_bitmap.h for the bitmap contract).
#ifndef PDTSTORE_EXEC_FILTER_H_
#define PDTSTORE_EXEC_FILTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "columnstore/keep_bitmap.h"

namespace pdtstore {

/// Vector-at-a-time predicate: set the keep bit of surviving rows.
/// `keep` arrives Reset to the batch's row count (all bits zero); the
/// predicate writes each row's verdict at most once — row-at-a-time via
/// KeepBitmap::SetTo, or 64 rows per store via words()/FillFrom.
/// A predicate is shared read-only across pipeline workers and invoked
/// concurrently: it must not carry mutable state (scratch belongs to
/// the caller's per-worker state, or on the callee's stack).
/// Predicates must also be *total* over the batch: fusion (And/Or,
/// fused FilterNode conjunctions, stacked Pipeline::Filter calls) folds
/// bitmaps without compacting between conjuncts, so a predicate may be
/// evaluated on rows another conjunct rejects — it must not crash or
/// invoke UB on them (its verdict there is discarded by the AND).
using VecPredicate = std::function<void(const Batch&, KeepBitmap* keep)>;

/// Evaluates the conjunction of `preds` over `b` into `*keep` (resized
/// here): the first predicate writes `*keep` directly, each later one
/// writes `*tmp` and folds in with a word-wise And. Stops early once
/// the accumulator has no survivors; an empty `preds` keeps every row
/// (the identity of conjunction). `tmp` is caller-owned scratch so the
/// steady state is allocation-free.
void EvalConjunction(const std::vector<VecPredicate>& preds, const Batch& b,
                     KeepBitmap* keep, KeepBitmap* tmp);

/// Selection operator. Accepts one predicate or a fused conjunction;
/// either way the input batch is compacted exactly once.
class FilterNode : public BatchSource {
 public:
  FilterNode(std::unique_ptr<BatchSource> input, VecPredicate predicate)
      : input_(std::move(input)) {
    predicates_.push_back(std::move(predicate));
  }
  FilterNode(std::unique_ptr<BatchSource> input,
             std::vector<VecPredicate> predicates)
      : input_(std::move(input)), predicates_(std::move(predicates)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  std::unique_ptr<BatchSource> input_;
  std::vector<VecPredicate> predicates_;
  Batch in_;          // reused across pulls
  KeepBitmap keep_;   // reused across batches
  KeepBitmap tmp_;    // conjunction scratch
};

// --- predicate helpers (composable building blocks for query kernels) ---
// The typed helpers emit bitmap words through KeepBitmap::FillFrom, one
// word store per 64 rows. Their row bodies combine comparisons with `&`,
// not `&&`: a short-circuit, and under GCC's default -ftrapping-math any
// floating-point `&&`, compiles to a data-dependent branch per row that
// mispredicts on unsorted data. Keep `&&` only where a skipped term saves
// real work, such as a string compare.

// On compressed-execution columns the helpers evaluate directly on the
// encoded form: RLE-sidecar columns test one value per run and word-fill
// the kept ranges; dictionary columns resolve string predicates against
// the (small) dictionary once and test integer codes per row. Plain
// columns take the classic per-row kernels. Results are identical.

/// col(idx) within [lo, hi] (inclusive; int64 columns).
VecPredicate Int64Between(size_t idx, int64_t lo, int64_t hi);
/// col(idx) within [lo, hi) (double columns).
VecPredicate DoubleInRange(size_t idx, double lo, double hi);
/// col(idx) == s (string columns).
VecPredicate StringEquals(size_t idx, std::string s);
/// fn(col(idx)) for an arbitrary string match (contains/prefix/...). On
/// dictionary columns fn runs once per distinct entry, not once per row.
/// fn is shared read-only across workers: it must be pure.
VecPredicate StringMatch(size_t idx,
                         std::function<bool(const std::string&)> fn);
/// Conjunction of predicates (word-wise AND, early-exit on empty).
VecPredicate And(std::vector<VecPredicate> preds);
/// Disjunction of predicates (word-wise OR, early-exit on all-set).
VecPredicate Or(std::vector<VecPredicate> preds);

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_FILTER_H_
