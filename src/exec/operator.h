// Executor basics: materialization helpers and a static batch source.
// All operators are pull-based BatchSources (block-oriented processing in
// the X100 style the paper's engine uses).
#ifndef PDTSTORE_EXEC_OPERATOR_H_
#define PDTSTORE_EXEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "util/mem_budget.h"

namespace pdtstore {

/// Emits one pre-materialized batch in slices.
class VectorSource : public BatchSource {
 public:
  explicit VectorSource(Batch batch) : batch_(std::move(batch)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  Batch batch_;
  size_t pos_ = 0;
};

/// The bytes rows [from, size()) of `col` hold, as ByteSize() counts
/// them less any dictionary: 8 per number, 4 per code, and a std::string
/// plus its capacity per plain string.
size_t RowBytesFrom(const ColumnVector& col, size_t from);

/// Appends the rows of `b` (those in `sel`, if given) to `into`, keeping
/// its string columns plain, and returns the bytes the new rows hold
/// (RowBytesFrom). The parallel breakers collect through it: a worker's
/// rows come from many chunk dictionaries, and plain rows are what its
/// charge can count exactly whichever chunks it saw.
size_t AppendPlainRows(Batch* into, const Batch& b,
                       const SelVector* sel = nullptr);

/// Drains `source` into one big batch. With a `lease`, each append
/// charges what it added to the result's rows and the kept dictionaries
/// are charged at the end, so the lease gains exactly the result's
/// ByteSize(), its running charge never exceeds that, and an over-budget
/// drain stops with ResourceExhausted at the batch that crosses the cap.
StatusOr<Batch> MaterializeAll(BatchSource* source,
                               size_t batch_size = kDefaultBatchSize,
                               BudgetLease* lease = nullptr);

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_OPERATOR_H_
