// Figure 18 reproduction: single- vs multi-column sort keys.
//
// The paper fixes a 6-column table of 1M tuples and sweeps the number of
// sort-key columns from 1 to 4 (int and string variants) at update rates
// 0..2.5 per 100 tuples; the query projects the non-key columns. VDT
// query time grows with the number of key columns (more columns scanned
// and compared in the value-based merge); PDT time *decreases* (fewer
// projected columns) and its merge cost is key-oblivious.
//
// Usage: bench_fig18_multicolumn_keys [--rows=1000000]
//                                     [--rates=0,0.5,1,1.5,2,2.5]
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"

namespace pdtstore {
namespace bench {
namespace {

void Run(bool string_keys, uint64_t rows, const std::vector<double>& rates) {
  constexpr int kTotalCols = 6;
  std::printf("# 1M tuples, 6 columns, %s keys\n",
              string_keys ? "string" : "int");
  std::printf("%-8s %-10s %-12s %-12s %-8s\n", "rate", "key_cols",
              "vdt_ms", "pdt_ms", "ratio");
  // One table pair per key-column count; update rates accumulate.
  for (int key_cols = 1; key_cols <= 4; ++key_cols) {
    SyntheticSpec spec;
    spec.rows = rows;
    spec.key_cols = key_cols;
    spec.string_keys = string_keys;
    spec.payload_cols = kTotalCols - key_cols;

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
            MakeUpdates(spec, num_updates, /*seed=*/29 + 100 * step);
        ApplyUpdates(pdt_table.get(), updates);
        ApplyUpdates(vdt_table.get(), updates);
        applied_rate = rate;
      }
      ++step;

      // "The query projects the remaining non-key columns."
      std::vector<ColumnId> projection;
      for (int c = key_cols; c < kTotalCols; ++c) {
        projection.push_back(static_cast<ColumnId>(c));
      }
      (void)TimedScan(*pdt_table, projection);
      (void)TimedScan(*vdt_table, projection);
      double pdt_ms = 1e9, vdt_ms = 1e9;
      for (int rep = 0; rep < 3; ++rep) {
        pdt_ms = std::min(pdt_ms, TimedScan(*pdt_table, projection));
        vdt_ms = std::min(vdt_ms, TimedScan(*vdt_table, projection));
      }
      std::printf("%-8.2f %-10d %-12.2f %-12.2f %-8.2f\n", rate, key_cols,
                  vdt_ms, pdt_ms, vdt_ms / pdt_ms);
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  using namespace pdtstore::bench;
  uint64_t rows = std::strtoull(
      FlagValue(argc, argv, "rows", "1000000").c_str(), nullptr, 10);
  auto rates = FlagList<double>(argc, argv, "rates", "0,0.5,1,1.5,2,2.5");
  std::printf(
      "=== Figure 18: MergeScan with single- vs multi-column keys ===\n\n");
  Run(/*string_keys=*/false, rows, rates);
  Run(/*string_keys=*/true, rows, rates);
  std::printf(
      "Expectation (paper): VDT time grows with #key columns at nonzero "
      "update rates; PDT time decreases (fewer projected columns) and is "
      "unaffected by key complexity.\n");
  return 0;
}
