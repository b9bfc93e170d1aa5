// Figure 19 reproduction: TPC-H under an update load — no-updates vs
// VDT-based vs PDT-based query processing.
//
// The paper runs the 22 TPC-H queries on (a) a clean bulk-loaded database
// and (b) a database updated by the two official refresh streams
// (~0.1% of lineitem and orders), with value-based (VDT) and positional
// (PDT) difference merging, on two platforms:
//   plots 1-2: server,      compressed storage, cold: time + I/O volume
//   plots 3-5: workstation, uncompressed,      cold + hot time + I/O.
//
// Substitutions (DESIGN.md): SF is laptop-scale; "cold" I/O is simulated
// by evicting the decoded-chunk cache and counting encoded bytes read,
// charged at a configurable disk bandwidth; "hot" runs reuse the cache.
// The claims that must reproduce: VDT reads more (it must scan the sort
// key columns), VDT adds visible merge CPU, and PDT stays within noise
// of the no-updates runs.
//
// In addition, a parallel-pipeline sweep (--threads) runs the 22 queries
// hot on the updated PDT scenario at several worker-thread counts — the
// query fragments (filter / project / join probe / partial agg) execute
// inside the morsel workers (exec/pipeline.h) — and records per-thread
// total time, approximate scan throughput, the auto-tuned morsel size
// and hardware_threads under `tpch_pipeline` in the JSON output.
//
// Usage: bench_fig19_tpch [--sf=0.05] [--config=both|compressed|uncompressed]
//                         [--fraction=0.001] [--bandwidth-mb=150]
//                         [--threads=1,2,4] [--json=BENCH_fig19.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "exec/parallel_scan.h"
#include "exec/pipeline.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_schema.h"
#include "tpch/update_stream.h"
#include "util/thread_pool.h"

namespace pdtstore {
namespace bench {
namespace {

using tpch::GenOptions;
using tpch::QueryResult;
using tpch::RunTpchQuery;
using tpch::TpchTables;

struct Scenario {
  const char* name;
  std::unique_ptr<Database> db;
  TpchTables tables;
};

struct QueryMeasurement {
  double cold_cpu_ms = 0;
  double cold_total_ms = 0;  // cpu + simulated I/O transfer time
  double hot_ms = 0;
  double io_mb = 0;
  QueryResult result;
};

Scenario BuildScenario(const char* name, const GenOptions& gen,
                       DeltaBackend backend, bool compression,
                       const std::vector<tpch::UpdateStream>* streams) {
  Scenario s;
  s.name = name;
  s.db = std::make_unique<Database>();
  TableOptions opts;
  opts.backend = backend;
  opts.store.compression = compression;
  auto tables = tpch::GenerateInto(s.db.get(), gen, opts);
  if (!tables.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 tables.status().ToString().c_str());
    std::abort();
  }
  s.tables = *tables;
  if (streams != nullptr) {
    for (const auto& stream : *streams) {
      Status st = tpch::ApplyUpdateStream(stream, &s.tables);
      if (!st.ok()) {
        std::fprintf(stderr, "update stream failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
    }
  }
  return s;
}

QueryMeasurement MeasureQuery(Scenario* s, int q, double bandwidth_mb) {
  QueryMeasurement m;
  // Cold: empty decoded cache, count bytes pulled from the chunk store.
  s->db->DropCaches();
  s->db->ResetIoStats();
  Stopwatch sw;
  auto cold = RunTpchQuery(q, s->tables);
  m.cold_cpu_ms = sw.ElapsedMillis();
  if (!cold.ok()) {
    std::fprintf(stderr, "q%d failed: %s\n", q,
                 cold.status().ToString().c_str());
    std::abort();
  }
  m.result = *cold;
  m.io_mb = static_cast<double>(s->db->io_stats().bytes_read) / 1e6;
  m.cold_total_ms = m.cold_cpu_ms + m.io_mb / bandwidth_mb * 1e3;
  // Hot: run again against the warm cache.
  sw.Reset();
  auto hot = RunTpchQuery(q, s->tables);
  m.hot_ms = sw.ElapsedMillis();
  (void)hot;
  return m;
}

void RunConfig(const char* label, bool compression, const GenOptions& gen,
               double fraction, double bandwidth_mb) {
  std::printf("=== Fig. 19 [%s storage] SF=%.3f, %s ===\n", label,
              gen.scale_factor,
              compression ? "plots 1-2 analogue" : "plots 3-5 analogue");
  auto streams_or = tpch::MakeUpdateStreams(gen, 2, fraction);
  if (!streams_or.ok()) {
    std::fprintf(stderr, "streams failed\n");
    std::abort();
  }
  Scenario clean = BuildScenario("no-updates", gen, DeltaBackend::kPdt,
                                 compression, nullptr);
  Scenario vdt = BuildScenario("VDT", gen, DeltaBackend::kVdt, compression,
                               &*streams_or);
  Scenario pdt = BuildScenario("PDT", gen, DeltaBackend::kPdt, compression,
                               &*streams_or);
  std::printf(
      "%-4s | %9s %9s %9s | %8s %8s %8s | %8s %8s %8s | %7s %7s %7s | %s\n",
      "q", "cold_clean", "cold_vdt", "cold_pdt", "hot_cln", "hot_vdt",
      "hot_pdt", "io_clean", "io_vdt", "io_pdt", "nCold", "nHot", "nIO",
      "check");
  std::printf("%-4s | %9s %9s %9s (ms, incl. simulated disk) | (ms) | (MB) "
              "| (normalized to VDT)\n",
              "", "", "", "");
  double sum_ratio_cold = 0, sum_ratio_io = 0;
  int counted = 0;
  for (int q = 1; q <= 22; ++q) {
    QueryMeasurement mc = MeasureQuery(&clean, q, bandwidth_mb);
    QueryMeasurement mv = MeasureQuery(&vdt, q, bandwidth_mb);
    QueryMeasurement mp = MeasureQuery(&pdt, q, bandwidth_mb);
    bool agree =
        mv.result.rows == mp.result.rows &&
        std::abs(mv.result.checksum - mp.result.checksum) <=
            1e-6 * (1.0 + std::abs(mv.result.checksum));
    std::printf(
        "%-4d | %9.2f %9.2f %9.2f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f "
        "| %7.2f %7.2f %7.2f | %s\n",
        q, mc.cold_total_ms, mv.cold_total_ms, mp.cold_total_ms, mc.hot_ms,
        mv.hot_ms, mp.hot_ms, mc.io_mb, mv.io_mb, mp.io_mb,
        mv.cold_total_ms > 0 ? mp.cold_total_ms / mv.cold_total_ms : 0,
        mv.hot_ms > 0 ? mp.hot_ms / mv.hot_ms : 0,
        mv.io_mb > 0 ? mp.io_mb / mv.io_mb : 0,
        agree ? "ok" : "MISMATCH");
    if (tpch::QueryTouchesUpdatedTables(q) && mv.cold_total_ms > 0 &&
        mv.io_mb > 0) {
      sum_ratio_cold += mp.cold_total_ms / mv.cold_total_ms;
      sum_ratio_io += mp.io_mb / mv.io_mb;
      ++counted;
    }
  }
  if (counted > 0) {
    std::printf(
        "mean over updated-table queries: PDT/VDT cold time %.2f, "
        "PDT/VDT I/O %.2f (both expected < 1)\n\n",
        sum_ratio_cold / counted, sum_ratio_io / counted);
  }
}

// Parallel-pipeline sweep: all 22 queries, hot, on the updated PDT
// scenario, at each worker-thread count. Results are checked against the
// single-thread run (relative 1e-6: parallel partial-agg merges change
// floating-point summation order, not the result multiset).
void RunThreadSweep(const GenOptions& gen, double fraction,
                    const std::vector<int>& threads,
                    JsonResultWriter* json) {
  std::printf("=== parallel-pipeline sweep (PDT, uncompressed, hot) ===\n");
  auto streams_or = tpch::MakeUpdateStreams(gen, 2, fraction);
  if (!streams_or.ok()) {
    std::fprintf(stderr, "streams failed\n");
    std::abort();
  }
  Scenario pdt = BuildScenario("PDT", gen, DeltaBackend::kPdt,
                               /*compression=*/false, &*streams_or);
  const double lineitem_rows =
      static_cast<double>(pdt.tables.lineitem->RowCount());
  const double orders_rows =
      static_cast<double>(pdt.tables.orders->RowCount());
  std::printf("%-8s %-12s %-14s %-12s %-8s\n", "threads", "total_ms",
              "approx_mrps", "morsel_rows", "check");
  std::vector<QueryResult> reference(23);
  double base_ms = 0;
  for (int t : threads) {
    tpch::QueryOptions qopts;
    qopts.num_threads = t;
    // Warm the caches once per thread count (results are compared hot).
    for (int q = 1; q <= 22; ++q) (void)RunTpchQuery(q, pdt.tables, qopts);
    Stopwatch sw;
    bool agree = true;
    for (int q = 1; q <= 22; ++q) {
      auto r = RunTpchQuery(q, pdt.tables, qopts);
      if (!r.ok()) {
        std::fprintf(stderr, "q%d (%d threads) failed: %s\n", q, t,
                     r.status().ToString().c_str());
        std::abort();
      }
      if (t == threads.front()) {
        reference[q] = *r;
      } else {
        agree = agree && r->rows == reference[q].rows &&
                std::abs(r->checksum - reference[q].checksum) <=
                    1e-6 * (1.0 + std::abs(reference[q].checksum));
      }
    }
    double total_ms = sw.ElapsedMillis();
    // Approximate scan throughput: nearly every query scans the two
    // updated tables once.
    double mrps = 22.0 * (lineitem_rows + orders_rows) / total_ms / 1e3;
    size_t morsel_rows = AutoMorselRows(
        pdt.tables.lineitem->store().options().chunk_rows,
        pdt.tables.lineitem->store().num_rows(),
        pdt.tables.lineitem->pdt()->EntryCount(), t);
    std::printf("%-8d %-12.1f %-14.2f %-12zu %s\n", t, total_ms, mrps,
                morsel_rows, agree ? "ok" : "MISMATCH");
    if (t == 1) base_ms = total_ms;
    if (json != nullptr) {
      char key[48];
      std::snprintf(key, sizeof(key), "t%d_total_ms", t);
      json->Metric("tpch_pipeline", key, total_ms);
      std::snprintf(key, sizeof(key), "t%d_approx_mrps", t);
      json->Metric("tpch_pipeline", key, mrps);
      std::snprintf(key, sizeof(key), "t%d_morsel_rows", t);
      json->Metric("tpch_pipeline", key, static_cast<double>(morsel_rows));
      std::snprintf(key, sizeof(key), "t%d_agree", t);
      json->Metric("tpch_pipeline", key, agree ? 1.0 : 0.0);
      if (t > 1 && base_ms > 0) {
        std::snprintf(key, sizeof(key), "t%d_speedup", t);
        json->Metric("tpch_pipeline", key, base_ms / total_ms);
      }
    }
  }
  if (json != nullptr) {
    json->Metric("tpch_pipeline", "lineitem_rows", lineitem_rows);
    json->Metric("tpch_pipeline", "orders_rows", orders_rows);
    json->Metric("tpch_pipeline", "hardware_threads",
                 static_cast<double>(ThreadPool::DefaultThreads()));
  }
  std::printf("\n");
}

// Row count + checksum digest of a drained source (the Summarize
// analogue for the micro-sweeps below).
struct DrainDigest {
  size_t rows = 0;
  double checksum = 0;
};

DrainDigest Drain(BatchSource* src) {
  DrainDigest d;
  Batch batch;
  while (true) {
    auto more = src->Next(&batch, kDefaultBatchSize);
    if (!more.ok()) {
      std::fprintf(stderr, "drain failed: %s\n",
                   more.status().ToString().c_str());
      std::abort();
    }
    if (!*more) break;
    d.rows += batch.num_rows();
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const ColumnVector& col = batch.column(c);
      if (col.type() == TypeId::kInt64) {
        for (int64_t v : col.ints()) d.checksum += static_cast<double>(v);
      } else if (col.type() == TypeId::kDouble) {
        for (double v : col.doubles()) d.checksum += v;
      }
    }
  }
  return d;
}

bool DigestsAgree(const DrainDigest& a, const DrainDigest& b) {
  return a.rows == b.rows &&
         std::abs(a.checksum - b.checksum) <=
             1e-6 * (1.0 + std::abs(a.checksum));
}

// Dedicated thread sweep over the two new breakers: a full ORDER BY of
// lineitem through IntoSortBuild (per-worker runs + loser-tree merge)
// and a partitioned orders-build / lineitem-probe join. t == 1 runs the
// serial tree (SortNode / single-partition build) and is the agreement
// reference for every other thread count.
void RunSortJoinSweep(const GenOptions& gen, double fraction,
                      const std::vector<int>& threads,
                      JsonResultWriter* json) {
  std::printf(
      "=== sort / join-build sweep (PDT, uncompressed, hot) ===\n");
  auto streams_or = tpch::MakeUpdateStreams(gen, 2, fraction);
  if (!streams_or.ok()) {
    std::fprintf(stderr, "streams failed\n");
    std::abort();
  }
  Scenario pdt = BuildScenario("PDT", gen, DeltaBackend::kPdt,
                               /*compression=*/false, &*streams_or);
  Table* line = pdt.tables.lineitem;
  Table* ord = pdt.tables.orders;
  const std::vector<ColumnId> sort_cols{tpch::kLOrderkey, tpch::kLShipdate,
                                        tpch::kLExtendedprice};
  const std::vector<ColumnId> probe_cols{tpch::kLOrderkey,
                                         tpch::kLExtendedprice};
  const std::vector<ColumnId> build_cols{tpch::kOOrderkey,
                                         tpch::kOTotalprice};
  auto run_sort = [&](int t) {
    ScanOptions so;
    so.num_threads = t;
    so.ordered = false;
    Pipeline pipe(line->PlanMorsels(sort_cols, nullptr, so));
    auto src = std::move(pipe).IntoSortBuild({{1, false}, {0, false}});
    return Drain(src.get());
  };
  auto run_join = [&](int t) {
    ScanOptions so;
    so.num_threads = t;
    so.ordered = false;
    auto bpipe =
        std::make_unique<Pipeline>(ord->PlanMorsels(build_cols, nullptr,
                                                    so));
    auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0});
    Pipeline probe(line->PlanMorsels(probe_cols, nullptr, so));
    probe.Probe(handle, {0});
    auto src = std::move(probe).Exchange();
    return Drain(src.get());
  };
  // Warm the chunk caches so the sweep measures CPU, not decode — and
  // keep these serial-tree digests as the agreement reference for
  // every thread count (independent of which counts --threads lists).
  const DrainDigest sort_ref = run_sort(1);
  const DrainDigest join_ref = run_join(1);
  std::printf("%-8s %-12s %-12s %-10s %-10s\n", "threads", "sort_ms",
              "join_ms", "sort_rows", "check");
  for (int t : threads) {
    Stopwatch sw;
    DrainDigest s = run_sort(t);
    double sort_ms = sw.ElapsedMillis();
    sw.Reset();
    DrainDigest j = run_join(t);
    double join_ms = sw.ElapsedMillis();
    const bool agree =
        DigestsAgree(s, sort_ref) && DigestsAgree(j, join_ref);
    std::printf("%-8d %-12.1f %-12.1f %-10zu %s\n", t, sort_ms, join_ms,
                s.rows, agree ? "ok" : "MISMATCH");
    if (json != nullptr) {
      char key[48];
      std::snprintf(key, sizeof(key), "t%d_sort_ms", t);
      json->Metric("sort_join_build", key, sort_ms);
      std::snprintf(key, sizeof(key), "t%d_join_build_ms", t);
      json->Metric("sort_join_build", key, join_ms);
      std::snprintf(key, sizeof(key), "t%d_agree", t);
      json->Metric("sort_join_build", key, agree ? 1.0 : 0.0);
    }
  }
  if (json != nullptr) {
    json->Metric("sort_join_build", "sort_rows",
                 static_cast<double>(sort_ref.rows));
    json->Metric("sort_join_build", "join_rows",
                 static_cast<double>(join_ref.rows));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  using namespace pdtstore::bench;
  pdtstore::tpch::GenOptions gen;
  gen.scale_factor = FlagNumber<double>(argc, argv, "sf", "0.05");
  const double fraction =
      FlagNumber<double>(argc, argv, "fraction", "0.001");
  const double bandwidth =
      FlagNumber<double>(argc, argv, "bandwidth-mb", "150");
  std::string config = FlagValue(argc, argv, "config", "both");
  auto threads = FlagList<int>(argc, argv, "threads", "1,2,4,8");
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_fig19.json");
  std::printf(
      "=== Figure 19: TPC-H with updates — no-updates vs VDT vs PDT ===\n"
      "(update streams: 2 x %.2f%% of orders+lineitem; disk model "
      "%.0f MB/s)\n\n",
      fraction * 100, bandwidth);
  JsonResultWriter json;
  if (config == "both" || config == "uncompressed") {
    RunConfig("uncompressed/workstation", false, gen, fraction, bandwidth);
  }
  if (config == "both" || config == "compressed") {
    RunConfig("compressed/server", true, gen, fraction, bandwidth);
  }
  if (!threads.empty()) {
    RunThreadSweep(gen, fraction, threads, &json);
    RunSortJoinSweep(gen, fraction, threads, &json);
  }
  std::printf(
      "Expectation (paper): io_vdt > io_pdt ~= io_clean (VDT must read "
      "sort-key columns; gap larger uncompressed); hot_vdt suffers merge "
      "CPU; PDT within noise of no-updates. Queries 2, 11, 16 touch no "
      "updated table.\n");
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
