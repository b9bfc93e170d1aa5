// Figure 16 reproduction: PDT maintenance cost as the PDT grows.
//
// The paper grows a PDT to 1M update entries and plots the per-operation
// cost of insert / modify / delete over time: all three stay in the
// microsecond range and grow logarithmically; inserts are the most
// expensive because positioning must compare sort keys (merged binary
// search + SKRidToSid).
//
// Usage: bench_fig16_pdt_maintenance [--ops=1000000] [--base-rows=1000000]
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"

namespace pdtstore {
namespace bench {
namespace {

void RunSeries(const char* label, uint64_t base_rows, uint64_t ops,
               BenchUpdate::Kind kind) {
  SyntheticSpec spec;
  spec.rows = base_rows;
  spec.key_gap = 8;  // room for many inserts between existing keys
  auto table = BuildSynthetic(spec);
  Random rng(17);

  std::printf("# %s\n", label);
  std::printf("%-12s %-18s %-14s\n", "pdt_entries", "cost_per_op_us",
              "pdt_mem_mb");
  const uint64_t window = std::max<uint64_t>(1, ops / 20);
  Stopwatch sw;
  uint64_t done = 0;
  while (done < ops) {
    sw.Reset();
    for (uint64_t i = 0; i < window; ++i) {
      switch (kind) {
        case BenchUpdate::kInsert: {
          int64_t raw =
              static_cast<int64_t>(rng.Uniform(spec.rows)) * spec.key_gap +
              1 + static_cast<int64_t>(rng.Uniform(spec.key_gap - 1));
          std::vector<Value> key = MakeKey(spec, raw);
          Tuple t(key.begin(), key.end());
          for (int c = 0; c < spec.payload_cols; ++c) t.emplace_back(int64_t{1});
          (void)table->Insert(t);
          break;
        }
        case BenchUpdate::kModify: {
          Rid rid = rng.Uniform(table->RowCount());
          (void)table->ModifyAt(
              rid, static_cast<ColumnId>(spec.key_cols),
              Value(static_cast<int64_t>(rng.Next() & 0xffff)));
          break;
        }
        case BenchUpdate::kDelete: {
          Rid rid = rng.Uniform(table->RowCount());
          (void)table->DeleteAt(rid);
          break;
        }
      }
    }
    done += window;
    double us_per_op = sw.ElapsedMicros() / static_cast<double>(window);
    std::printf("%-12zu %-18.3f %-14.2f\n", table->pdt()->EntryCount(),
                us_per_op,
                static_cast<double>(table->pdt()->MemoryBytes()) / 1e6);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  using namespace pdtstore::bench;
  const uint64_t ops = static_cast<uint64_t>(
      FlagNumber<int64_t>(argc, argv, "ops", "1000000", 1));
  const uint64_t base = static_cast<uint64_t>(
      FlagNumber<int64_t>(argc, argv, "base-rows", "1000000", 1));
  std::printf(
      "=== Figure 16: PDT update performance over time "
      "(base=%zu rows, %zu ops per series) ===\n\n",
      static_cast<size_t>(base), static_cast<size_t>(ops));
  RunSeries("insert", base, ops, pdtstore::bench::BenchUpdate::kInsert);
  RunSeries("modify", base, ops, pdtstore::bench::BenchUpdate::kModify);
  RunSeries("delete", base, ops, pdtstore::bench::BenchUpdate::kDelete);
  std::printf(
      "Expectation (paper): logarithmic growth, sub-3us costs, inserts "
      "costlier than modifies/deletes (SK comparisons).\n");
  return 0;
}
