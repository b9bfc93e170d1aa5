// TPC-H refresh streams (RF1/RF2): each stream inserts new orders (with
// their lineitems, using orderkeys from the holes in the key space) and
// deletes existing orders — each touching roughly 0.1% of orders and
// lineitem, scattered across the clustered tables, exactly the update
// load of the paper's Fig. 19 experiments.
#ifndef PDTSTORE_TPCH_UPDATE_STREAM_H_
#define PDTSTORE_TPCH_UPDATE_STREAM_H_

#include <string>
#include <vector>

#include "tpch/tpch_gen.h"
#include "txn/multi_txn.h"
#include "txn/txn_manager.h"

namespace pdtstore {
namespace tpch {

/// One refresh stream: inserts and deletes (deletes carry the regenerated
/// order so both tables' sort keys can be addressed).
struct UpdateStream {
  std::vector<GeneratedOrder> inserts;
  std::vector<GeneratedOrder> deletes;
};

/// Builds `num_streams` refresh streams, each covering `fraction` of the
/// order count (TPC-H uses 2 streams x 0.1%). Insert keys come from the
/// generator's holes; delete keys sample existing orders. Streams are
/// disjoint; when the requested delete load exceeds the order count (so
/// disjointness is impossible) this returns InvalidArgument instead of
/// silently reusing keys.
StatusOr<std::vector<UpdateStream>> MakeUpdateStreams(
    const GenOptions& gen, int num_streams, double fraction);

/// Applies one stream to the tables (inserts into orders+lineitem, then
/// deletes). Works with either delta backend through the Table facade.
Status ApplyUpdateStream(const UpdateStream& stream, TpchTables* tables);

/// Applies one stream through the transactional write path, grouping
/// `orders_per_txn` refresh orders per commit on each table's manager.
/// Several streams on distinct threads then exercise the two-phase
/// publish + FIFO commit path concurrently (the paper's Fig. 19
/// update load as an HTAP writer). Atomicity is per table: the orders
/// and lineitem updates of a group commit as two transactions (for the
/// cross-table refresh the paper's RF1/RF2 demand, use
/// ApplyRefreshGroupMultiTxn). On any error both in-flight transactions
/// are resolved (awaited or aborted) before the error propagates.
Status ApplyUpdateStreamTxn(const UpdateStream& stream, TxnManager* orders,
                            TxnManager* lineitem, size_t orders_per_txn = 8);

/// A slice of one stream that commits as one transaction: orders
/// [begin, end) of either the insert or the delete list.
struct RefreshGroup {
  size_t begin = 0;
  size_t end = 0;
  bool inserts = true;
};

/// Splits a stream into refresh groups of `orders_per_txn` orders each
/// (inserts first, then deletes — the RF1/RF2 order).
std::vector<RefreshGroup> PlanRefreshGroups(const UpdateStream& stream,
                                            size_t orders_per_txn);

struct MultiTxnApplyOptions {
  size_t orders_per_txn = 8;
  /// A refresh group that loses a write-write conflict is retried from a
  /// fresh snapshot up to this many times before the conflict surfaces.
  int max_conflict_retries = 8;
};

struct MultiTxnApplyStats {
  uint64_t groups_committed = 0;
  uint64_t conflict_retries = 0;
  uint64_t rows_inserted = 0;  ///< orders + lineitem rows
  uint64_t rows_deleted = 0;
};

/// Applies one refresh group as ONE transaction touching the tables
/// GenerateInto creates, "orders" *and* "lineitem" — all-or-nothing under conflict, exactly the atomicity the
/// TPC-H refresh functions demand. Deletes whose order is already gone
/// are skipped (their lineitems too). Conflicts are retried from a
/// fresh snapshot per `opts.max_conflict_retries`.
Status ApplyRefreshGroupMultiTxn(const UpdateStream& stream,
                                 const RefreshGroup& group,
                                 MultiTxnManager* mgr,
                                 const MultiTxnApplyOptions& opts = {},
                                 MultiTxnApplyStats* stats = nullptr);

}  // namespace tpch
}  // namespace pdtstore

#endif  // PDTSTORE_TPCH_UPDATE_STREAM_H_
