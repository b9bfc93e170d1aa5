// ProjectNode: computes output columns from each input batch (column
// selection, arithmetic such as extendedprice * (1 - discount), etc.).
#ifndef PDTSTORE_EXEC_PROJECT_H_
#define PDTSTORE_EXEC_PROJECT_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "columnstore/batch.h"

namespace pdtstore {

/// Produces one output column from an input batch: either a reference to
/// input column `ref` (ColumnRef), passed through without a copy where
/// possible, or the column `fn` computes. Any callable
/// `ColumnVector(const Batch&)` converts to a computed expression.
struct ColumnExpr {
  static constexpr size_t kComputed = static_cast<size_t>(-1);

  size_t ref = kComputed;
  std::function<ColumnVector(const Batch&)> fn;

  ColumnExpr() = default;
  template <typename Fn,
            typename = std::enable_if_t<
                std::is_invocable_r_v<ColumnVector, Fn&, const Batch&>>>
  ColumnExpr(Fn f) : fn(std::move(f)) {}  // NOLINT
};

/// Evaluates `exprs` over `*in` into `*out` (output column i = exprs[i],
/// column ids 0..n-1, start_rid carried over). Computed columns run first,
/// while every input column is intact; then each referenced input column
/// moves into the output on its last reference and is copied on any
/// earlier one. A move swaps with the output's previous column of the same
/// type, so `*in` keeps its layout and gets that storage back for reuse;
/// `*in`'s referenced columns are left holding arbitrary rows, so the
/// caller must refill it before reading it again.
void ProjectBatch(const std::vector<ColumnExpr>& exprs, Batch* in,
                  Batch* out);

/// Projection / computation operator.
class ProjectNode : public BatchSource {
 public:
  ProjectNode(std::unique_ptr<BatchSource> input,
              std::vector<ColumnExpr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  std::unique_ptr<BatchSource> input_;
  std::vector<ColumnExpr> exprs_;
  Batch in_;  // reused across pulls
};

// --- expression helpers ---

/// Pass input column `idx` through.
ColumnExpr ColumnRef(size_t idx);
/// doubles: col(a) * (1 - col(b))  — the TPC-H revenue expression.
ColumnExpr Revenue(size_t price_idx, size_t discount_idx);
/// doubles: col(a) * (1 - col(b)) * (1 + col(c)).
ColumnExpr Charge(size_t price_idx, size_t discount_idx, size_t tax_idx);

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_PROJECT_H_
