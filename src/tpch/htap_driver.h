// The HTAP scenario driver (the paper's central claim, run end to end):
// N writer threads apply TPC-H refresh streams as cross-table atomic
// transactions (ApplyRefreshGroupMultiTxn over one MultiTxnManager
// driving orders + lineitem) while M reader threads run the TPC-H
// pipeline kernels against the same tables, with each commit that
// overflows a Write-PDT folding it into the Read-PDT inline and a
// maintenance thread periodically folding + checkpointing at induced
// quiet points. The report carries the HTAP SLO quantities:
// query-latency percentiles (p50/p99/p999) under ingest, ingest
// rows/sec under scans, and the PDT layer dynamics (peaks, Write→Read
// folds, checkpoints).
//
// Concurrency protocol: readers scan the tables directly (no
// transaction) — safe because MultiTxnManager never mutates an
// installed Read-PDT in place (commits touch only manager-owned Write
// layers; propagation installs merged clones via Table::ReplacePdt,
// which scans pin). The only operations that DO mutate shared state in
// place — Table::Checkpoint's stable-store swap and Read-PDT clear —
// run under the driver's exclusive gate, which writers and readers
// hold shared for the duration of each refresh group / query, so a
// checkpoint is a true quiet point (its stall is measured and shows up
// honestly in the latency tail).
//
// Checkpoints here rebuild the in-memory stable image only; the WAL is
// left untouched (not truncated), so recovery still means replaying the
// scenario's WAL into freshly generated tables — which is exactly what
// the deterministic test does. Durable checkpointing (manifest commit +
// log truncation) remains Database::Save's job.
#ifndef PDTSTORE_TPCH_HTAP_DRIVER_H_
#define PDTSTORE_TPCH_HTAP_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/update_stream.h"
#include "txn/multi_txn.h"
#include "txn/wal.h"

namespace pdtstore {
namespace tpch {

struct HtapOptions {
  int writers = 2;
  int readers = 2;
  /// Refresh streams applied by each writer, in sequence.
  int streams_per_writer = 2;
  /// Order-count fraction per stream (TPC-H RF1/RF2 use 0.1%).
  double stream_fraction = 0.002;
  /// Refresh orders per cross-table transaction.
  size_t orders_per_txn = 4;
  int max_conflict_retries = 8;
  /// Query kernels the readers cycle through (must touch the updated
  /// tables for the experiment to mean anything).
  std::vector<int> queries = {1, 6, 12, 14};
  int query_threads = 1;
  /// Each reader runs at least this many queries even if the writers
  /// finish first (so short ingest phases still produce latency data).
  int min_queries_per_reader = 2;
  /// Writer-path tuning: a small Write-PDT cap keeps Write→Read folds
  /// running under the readers.
  size_t write_pdt_max_entries = 1024;
  /// Maintenance cadence; 0 disables the checkpoint thread entirely.
  int maintenance_interval_ms = 50;
  /// Checkpoint a table when its Read-PDT exceeds this many entries at
  /// a maintenance quiet point (0 = checkpoint whenever non-empty).
  size_t checkpoint_read_entries = 4096;
};

struct HtapLatency {
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
  uint64_t count = 0;
};

struct HtapReport {
  // Reader side.
  HtapLatency query_latency;  ///< across all readers and kernels
  uint64_t queries_run = 0;
  // Writer side.
  double ingest_rows_per_sec = 0;  ///< (inserted+deleted) / writer wall
  uint64_t rows_ingested = 0;
  uint64_t groups_committed = 0;
  uint64_t conflict_retries = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  double writer_wall_s = 0;
  double wall_s = 0;
  // Layer dynamics.
  size_t read_pdt_peak = 0;
  size_t write_pdt_peak = 0;
  uint64_t background_merges = 0;  ///< every Write→Read fold, all tables
  uint64_t checkpoints = 0;
  double checkpoint_stall_ms_max = 0;
  uint64_t wal_syncs = 0;
};

/// Runs the scenario against already-generated tables. `wal` may be
/// null (no logging); `writer` may be null (no durability waits).
/// Claims orders + lineitem as their transaction driver for the
/// duration of the call. On success the final state has been verified:
/// equal insert/delete load returns the orders row count to its
/// starting value, and both PDTs pass CheckInvariants().
StatusOr<HtapReport> RunHtapScenario(const GenOptions& gen,
                                     TpchTables* tables, Wal* wal,
                                     WalWriter* writer,
                                     const HtapOptions& opts);

/// Nearest-rank percentile of an unsorted sample (sorts in place).
double LatencyPercentile(std::vector<double>* samples, double p);

}  // namespace tpch
}  // namespace pdtstore

#endif  // PDTSTORE_TPCH_HTAP_DRIVER_H_
