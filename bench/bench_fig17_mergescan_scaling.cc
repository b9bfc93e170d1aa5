// Figure 17 reproduction: MergeScan cost vs table size, key type and
// update rate — PDT vs VDT.
//
// The paper scans a table of 4 payload columns plus 1 key column (int or
// string) at 1M / 10M / 100M tuples with 0..2.5 updates per 100 tuples
// applied to the delta structure, and reports the full-projection scan
// time. PDT beats VDT by >= 3x, the VDT gap widens with string keys and
// with update rate, and both scale linearly with table size.
//
// Laptop-scale substitution (DESIGN.md): sizes default to 1M/4M/16M.
//
// In addition, a morsel-driven parallel-scan sweep runs the PDT workload
// at several worker-thread counts and records per-thread-count rows/sec
// plus a `scalability` metric (4-thread / 1-thread throughput) under the
// `parallel_merge_scan` benchmark name in the JSON output. The VDT scan
// is serial at every thread count, so it has no arm there.
//
// Usage: bench_fig17_mergescan_scaling [--sizes=1000000,4000000,16000000]
//                                      [--rates=0,0.5,1,1.5,2,2.5]
//                                      [--threads=1,2,4,8]
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"

namespace pdtstore {
namespace bench {
namespace {

void RunSize(uint64_t rows, bool string_keys,
             const std::vector<double>& rates, JsonResultWriter* json) {
  std::printf("# %zu tuples, %s key\n", static_cast<size_t>(rows),
              string_keys ? "string" : "int");
  std::printf("%-22s %-12s %-12s %-12s %-12s %-8s\n",
              "updates_per_100_tuples", "vdt_ms", "pdt_ms", "vdt_mrps",
              "pdt_mrps", "ratio");
  SyntheticSpec spec;
  spec.rows = rows;
  spec.string_keys = string_keys;
  spec.payload_cols = 4;

  // Build once per (size, key type); update rates are applied
  // cumulatively (each step adds the increment over the previous rate).
  spec.backend = DeltaBackend::kPdt;
  auto pdt_table = BuildSynthetic(spec);
  spec.backend = DeltaBackend::kVdt;
  auto vdt_table = BuildSynthetic(spec);

  double applied_rate = 0.0;
  int step = 0;
  for (double rate : rates) {
    double increment = rate - applied_rate;
    if (increment > 0) {
      uint64_t num_updates = static_cast<uint64_t>(
          static_cast<double>(rows) * increment / 100.0);
      auto updates =
          MakeUpdates(spec, num_updates, /*seed=*/23 + 100 * step);
      ApplyUpdates(pdt_table.get(), updates);
      ApplyUpdates(vdt_table.get(), updates);
      applied_rate = rate;
    }
    ++step;

    // Project the 4 payload columns ("a simple projection of all 4
    // columns"); the key column is *not* projected — the VDT reads it
    // anyway, the PDT does not.
    std::vector<ColumnId> projection;
    for (int c = 0; c < spec.payload_cols; ++c) {
      projection.push_back(static_cast<ColumnId>(spec.key_cols + c));
    }
    // Warm both (hot, memory-resident as in the paper's microbenchmark).
    (void)TimedScan(*pdt_table, projection);
    (void)TimedScan(*vdt_table, projection);
    double pdt_ms = 1e9, vdt_ms = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      pdt_ms = std::min(pdt_ms, TimedScan(*pdt_table, projection));
      vdt_ms = std::min(vdt_ms, TimedScan(*vdt_table, projection));
    }
    double vdt_mrps = static_cast<double>(rows) / vdt_ms / 1e3;
    double pdt_mrps = static_cast<double>(rows) / pdt_ms / 1e3;
    std::printf("%-22.2f %-12.2f %-12.2f %-12.1f %-12.1f %-8.2f\n", rate,
                vdt_ms, pdt_ms, vdt_mrps, pdt_mrps, vdt_ms / pdt_ms);
    if (json != nullptr) {
      char name[64];
      std::snprintf(name, sizeof(name), "mergescan_%zu_%s_rate%.1f",
                    static_cast<size_t>(rows),
                    string_keys ? "str" : "int", rate);
      json->Metric(name, "rows", static_cast<double>(rows));
      json->Metric(name, "vdt_ms", vdt_ms);
      json->Metric(name, "pdt_ms", pdt_ms);
      json->Metric(name, "vdt_mrps", vdt_mrps);
      json->Metric(name, "pdt_mrps", pdt_mrps);
      json->Metric(name, "ratio", vdt_ms / pdt_ms);
    }
  }
  std::printf("\n");
}

// Morsel-driven parallel PDT MergeScan sweep: the first configured size
// at 1 update per 100 tuples (the paper's mid rate), scanned with 1..N
// worker threads. Records per-thread-count Mrows/s and the 4-thread
// scalability ratio under `parallel_merge_scan`.
void RunParallelSweep(uint64_t rows, const std::vector<int>& threads,
                      JsonResultWriter* json) {
  std::printf("# parallel MergeScan sweep, %zu tuples, int key, "
              "1 update/100 tuples\n",
              static_cast<size_t>(rows));
  std::printf("%-8s %-14s\n", "threads", "pdt_mrps");
  SyntheticSpec spec;
  spec.rows = rows;
  spec.payload_cols = 4;
  spec.backend = DeltaBackend::kPdt;
  auto pdt_table = BuildSynthetic(spec);
  ApplyUpdates(pdt_table.get(), MakeUpdates(spec, rows / 100, /*seed=*/71));

  std::vector<ColumnId> projection;
  for (int c = 0; c < spec.payload_cols; ++c) {
    projection.push_back(static_cast<ColumnId>(spec.key_cols + c));
  }

  double pdt_base = 0.0, pdt_at4 = 0.0;
  for (int t : threads) {
    ScanOptions opts;
    opts.num_threads = t;
    (void)TimedScan(*pdt_table, projection, opts);  // warm
    double ms = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      ms = std::min(ms, TimedScan(*pdt_table, projection, opts));
    }
    const double mrps = static_cast<double>(rows) / ms / 1e3;
    std::printf("%-8d %-14.1f\n", t, mrps);
    if (t == 1) pdt_base = mrps;
    if (t == 4) pdt_at4 = mrps;
    if (json != nullptr) {
      char key[32];
      std::snprintf(key, sizeof(key), "pdt_t%d_mrps", t);
      json->Metric("parallel_merge_scan", key, mrps);
    }
  }
  if (json != nullptr) {
    json->Metric("parallel_merge_scan", "rows",
                 static_cast<double>(rows));
    if (pdt_base > 0 && pdt_at4 > 0) {
      json->Metric("parallel_merge_scan", "scalability",
                   pdt_at4 / pdt_base);
    }
    json->Metric("parallel_merge_scan", "hardware_threads",
                 static_cast<double>(ThreadPool::DefaultThreads()));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  using namespace pdtstore::bench;
  auto sizes =
      FlagList<double>(argc, argv, "sizes", "1000000,4000000,16000000");
  auto rates = FlagList<double>(argc, argv, "rates", "0,0.5,1,1.5,2,2.5");
  auto threads = FlagList<int>(argc, argv, "threads", "1,2,4,8");
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_fig17.json");
  std::printf(
      "=== Figure 17: MergeScan scaling and key type (PDT vs VDT) ===\n"
      "(paper sizes 1M/10M/100M substituted by laptop-scale sizes; "
      "shape, not absolute numbers, is the claim)\n\n");
  JsonResultWriter json;
  for (double size : sizes) {
    RunSize(static_cast<uint64_t>(size), /*string_keys=*/false, rates,
            &json);
    RunSize(static_cast<uint64_t>(size), /*string_keys=*/true, rates,
            &json);
  }
  if (!sizes.empty() && !threads.empty()) {
    RunParallelSweep(static_cast<uint64_t>(sizes.front()), threads, &json);
  }
  std::printf(
      "Expectation (paper): PDT >= 3x faster than VDT at nonzero update "
      "rates; VDT degrades with rate (esp. string keys); PDT flat; both "
      "linear in table size.\n");
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
