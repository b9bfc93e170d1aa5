// The 22 TPC-H query kernels of the paper's evaluation (Sec. 4). Each
// kernel reproduces the corresponding query's scan footprint over the
// *updated* tables (lineitem, orders) — the quantity the experiment
// measures — with dimension joins against the generated dimension tables
// and TPC-H's predicates/aggregations expressed through the vectorized
// executor. Queries 2, 11 and 16 touch no updated table (the paper's
// footnote 6: their results do not differ between runs).
#ifndef PDTSTORE_TPCH_QUERIES_H_
#define PDTSTORE_TPCH_QUERIES_H_

#include "tpch/tpch_gen.h"

namespace pdtstore {
namespace tpch {

/// Result digest of one query: row count of the final operator, a
/// numeric checksum (the sum of every numeric cell, order-insensitive up
/// to floating-point rounding) used to verify that PDT / VDT /
/// no-update / parallel runs agree, and `digest`, an exact,
/// order-sensitive hash of every cell of every row (strings by their
/// bytes, doubles by their bit pattern) that pins serial answers.
struct QueryResult {
  size_t rows = 0;
  double checksum = 0.0;
  uint64_t digest = 0;
};

/// Query execution knobs. The default (1 thread) builds the unchanged
/// serial operator tree; more threads run each query's scan fragments
/// (scan -> filter -> project -> join probe -> partial agg / build) as
/// parallel pipelines inside the morsel workers (exec/pipeline.h), with
/// order-insensitive delivery — the result multiset is identical, group
/// order and floating-point summation order are not.
struct QueryOptions {
  int num_threads = 1;
};

/// Runs query `q` (1-22): drains PlanTpchQuery's source into its
/// digest. InvalidArgument for unknown numbers.
StatusOr<QueryResult> RunTpchQuery(int q, const TpchTables& tables,
                                   const QueryOptions& opts = {});

/// Builds query `q`'s plan and returns its final source, whose rows are
/// the answer in output order (an independent evaluator can compare
/// them cell by cell). InvalidArgument for unknown numbers.
StatusOr<std::unique_ptr<BatchSource>> PlanTpchQuery(
    int q, const TpchTables& tables, const QueryOptions& opts = {});

/// True if query `q` scans lineitem or orders.
bool QueryTouchesUpdatedTables(int q);

}  // namespace tpch
}  // namespace pdtstore

#endif  // PDTSTORE_TPCH_QUERIES_H_
