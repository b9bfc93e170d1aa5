#include "tpch/htap_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "util/stopwatch.h"

namespace pdtstore {
namespace tpch {

double LatencyPercentile(std::vector<double>* samples, double p) {
  if (samples == nullptr || samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  // Nearest-rank: the smallest sample >= p of the distribution.
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples->size())));
  if (rank == 0) rank = 1;
  if (rank > samples->size()) rank = samples->size();
  return (*samples)[rank - 1];
}

StatusOr<HtapReport> RunHtapScenario(const GenOptions& gen,
                                     TpchTables* tables, Wal* wal,
                                     WalWriter* writer,
                                     const HtapOptions& opts) {
  if (opts.writers <= 0 || opts.readers < 0 ||
      opts.streams_per_writer <= 0 || opts.queries.empty()) {
    return Status::InvalidArgument("bad HTAP scenario parameters");
  }
  const int num_streams = opts.writers * opts.streams_per_writer;
  PDT_ASSIGN_OR_RETURN(
      auto streams,
      MakeUpdateStreams(gen, num_streams, opts.stream_fraction));

  TxnManagerOptions topts;
  topts.write_pdt_max_entries = opts.write_pdt_max_entries;
  MultiTxnManager mgr({tables->orders, tables->lineitem}, wal, topts);
  if (writer != nullptr) mgr.SetWalWriter(writer);

  const uint64_t orders_before = tables->orders->RowCount();

  // The scenario gate: writers hold it shared per refresh group,
  // readers per query; the maintenance thread takes it exclusively to
  // induce the quiet point a checkpoint requires (see file comment in
  // htap_driver.h).
  std::shared_mutex gate;
  std::atomic<bool> writers_done{false};

  MultiTxnApplyOptions aopts;
  aopts.orders_per_txn = opts.orders_per_txn;
  aopts.max_conflict_retries = opts.max_conflict_retries;
  aopts.orders_table = tables->orders->name();
  aopts.lineitem_table = tables->lineitem->name();

  // --- writer threads: one refresh group per (gated) transaction ---
  std::vector<MultiTxnApplyStats> wstats(opts.writers);
  std::vector<Status> werr(opts.writers, Status::OK());
  Stopwatch total_sw;
  Stopwatch writer_sw;
  std::vector<std::thread> writers;
  writers.reserve(opts.writers);
  for (int w = 0; w < opts.writers; ++w) {
    writers.emplace_back([&, w] {
      for (int s = 0; s < opts.streams_per_writer; ++s) {
        const UpdateStream& stream =
            streams[w * opts.streams_per_writer + s];
        for (const RefreshGroup& g :
             PlanRefreshGroups(stream, opts.orders_per_txn)) {
          std::shared_lock<std::shared_mutex> lock(gate);
          Status st =
              ApplyRefreshGroupMultiTxn(stream, g, &mgr, aopts,
                                        &wstats[w]);
          if (!st.ok()) {
            werr[w] = st;
            return;
          }
        }
      }
    });
  }

  // --- reader threads: cycle the query kernels over direct scans ---
  QueryOptions qopts;
  qopts.num_threads = opts.query_threads;
  std::vector<std::vector<double>> rlat(std::max(opts.readers, 1));
  std::vector<Status> rerr(std::max(opts.readers, 1), Status::OK());
  std::vector<std::thread> readers;
  readers.reserve(opts.readers);
  for (int r = 0; r < opts.readers; ++r) {
    readers.emplace_back([&, r] {
      size_t qi = static_cast<size_t>(r);  // stagger starting kernels
      uint64_t ran = 0;
      while (!writers_done.load(std::memory_order_acquire) ||
             ran < static_cast<uint64_t>(opts.min_queries_per_reader)) {
        const int q = opts.queries[qi++ % opts.queries.size()];
        std::shared_lock<std::shared_mutex> lock(gate);
        const auto t0 = std::chrono::steady_clock::now();
        auto res = RunTpchQuery(q, *tables, qopts);
        if (!res.ok()) {
          rerr[r] = res.status();
          return;
        }
        rlat[r].push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
        ++ran;
      }
    });
  }

  // --- maintenance: sample layer peaks; fold + checkpoint at induced
  // quiet points, measuring the stall each one imposes ---
  HtapReport report;
  std::atomic<bool> maintenance_failed{false};
  Status merr = Status::OK();
  std::thread maintenance;
  std::mutex peak_mu;
  auto sample_peaks = [&] {
    MultiTxnStats s = mgr.GetStats();
    std::lock_guard<std::mutex> lock(peak_mu);
    for (const MultiTxnTableStats& t : s.tables) {
      report.read_pdt_peak =
          std::max(report.read_pdt_peak, t.read_pdt_entries);
      report.write_pdt_peak =
          std::max(report.write_pdt_peak, t.write_pdt_entries);
    }
  };
  if (opts.maintenance_interval_ms > 0) {
    maintenance = std::thread([&] {
      while (!writers_done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.maintenance_interval_ms));
        sample_peaks();
        std::unique_lock<std::shared_mutex> lock(gate);
        // Exclusive gate => no transaction is in flight and no scan is
        // running: a true quiet point. Fold everything first, then
        // rebuild the stable image if the Read-PDT grew past the bar.
        Stopwatch stall;
        Status st = mgr.PropagateAndMaybeCheckpoint();
        if (!st.ok()) {
          merr = st;
          maintenance_failed.store(true);
          return;
        }
        for (Table* t : {tables->orders, tables->lineitem}) {
          if (t->pdt()->EntryCount() <= opts.checkpoint_read_entries ||
              t->pdt()->Empty()) {
            continue;
          }
          st = t->Checkpoint();
          if (!st.ok()) {
            merr = st;
            maintenance_failed.store(true);
            return;
          }
          if (wal != nullptr) wal->LogCheckpoint(t->name());
          ++report.checkpoints;
        }
        report.checkpoint_stall_ms_max =
            std::max(report.checkpoint_stall_ms_max, stall.ElapsedMillis());
      }
    });
  }

  for (auto& t : writers) t.join();
  report.writer_wall_s = writer_sw.ElapsedSeconds();
  writers_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  if (maintenance.joinable()) maintenance.join();
  sample_peaks();
  report.wall_s = total_sw.ElapsedSeconds();

  for (const Status& st : werr) PDT_RETURN_NOT_OK(st);
  for (const Status& st : rerr) PDT_RETURN_NOT_OK(st);
  PDT_RETURN_NOT_OK(merr);

  // Drain: fold every remaining layer, then verify the final state.
  PDT_RETURN_NOT_OK(mgr.PropagateAndMaybeCheckpoint());
  PDT_RETURN_NOT_OK(tables->orders->pdt()->CheckInvariants());
  PDT_RETURN_NOT_OK(tables->lineitem->pdt()->CheckInvariants());
  // Streams are disjoint and carry equal insert/delete order loads, so
  // the scenario must return orders to its starting row count — any
  // drift means a refresh group was torn or lost.
  if (tables->orders->RowCount() != orders_before) {
    return Status::Internal(
        "HTAP scenario lost or tore a refresh group: orders row count " +
        std::to_string(tables->orders->RowCount()) + " != initial " +
        std::to_string(orders_before));
  }

  // --- report ---
  MultiTxnStats fin = mgr.GetStats();
  report.committed = fin.committed;
  report.aborted = fin.aborted;
  report.wal_syncs = fin.wal_syncs;
  for (const MultiTxnTableStats& t : fin.tables) {
    report.background_merges += t.background_merges;
  }
  for (const MultiTxnApplyStats& s : wstats) {
    report.groups_committed += s.groups_committed;
    report.conflict_retries += s.conflict_retries;
    report.rows_ingested += s.rows_inserted + s.rows_deleted;
  }
  if (report.writer_wall_s > 0) {
    report.ingest_rows_per_sec =
        static_cast<double>(report.rows_ingested) / report.writer_wall_s;
  }
  std::vector<double> all;
  for (const auto& v : rlat) {
    all.insert(all.end(), v.begin(), v.end());
    report.queries_run += v.size();
  }
  if (!all.empty()) {
    report.query_latency.count = all.size();
    report.query_latency.p50_ms = LatencyPercentile(&all, 0.50);
    report.query_latency.p99_ms = LatencyPercentile(&all, 0.99);
    report.query_latency.p999_ms = LatencyPercentile(&all, 0.999);
    report.query_latency.max_ms = all.back();
  }
  return report;
}

}  // namespace tpch
}  // namespace pdtstore
