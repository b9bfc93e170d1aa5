// Shared helpers for the figure-reproduction benchmarks: synthetic table
// builders (integer / string / multi-column sort keys), update-load
// application mirrored across PDT and VDT tables, and timing/printing.
#ifndef PDTSTORE_BENCH_BENCH_UTIL_H_
#define PDTSTORE_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "db/table.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pdtstore {
namespace bench {

/// Zero-padded decimal rendering, so string keys sort like their numeric
/// counterparts.
inline std::string PaddedKey(int64_t v, int width = 12) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%0*lld", width,
                static_cast<long long>(v));
  return buf;
}

/// Builds a table of `payload_cols` int64 payload columns plus `key_cols`
/// leading sort-key columns (int64 or string). Key values are i*gap per
/// row (gap > 1 leaves room for inserts); multi-column keys split the
/// value into digits so prefix columns carry few distinct values and the
/// value-based merge must compare several columns.
struct SyntheticSpec {
  uint64_t rows = 1'000'000;
  int key_cols = 1;
  bool string_keys = false;
  int payload_cols = 4;
  int64_t key_gap = 4;
  DeltaBackend backend = DeltaBackend::kPdt;
  bool compression = false;
  size_t chunk_rows = 65536;
};

inline std::vector<Value> MakeKey(const SyntheticSpec& spec, int64_t raw) {
  std::vector<Value> key;
  key.reserve(spec.key_cols);
  // Split `raw` into key_cols digits, most significant first, so that
  // multi-column comparisons are exercised on ties.
  int64_t divisor = 1;
  for (int c = 1; c < spec.key_cols; ++c) divisor *= 1000;
  int64_t rest = raw;
  for (int c = 0; c < spec.key_cols; ++c) {
    int64_t part = rest / divisor;
    rest %= divisor;
    divisor = divisor >= 1000 ? divisor / 1000 : 1;
    if (spec.string_keys) {
      key.emplace_back(PaddedKey(part, c == 0 ? 12 : 4));
    } else {
      key.emplace_back(part);
    }
  }
  return key;
}

inline std::unique_ptr<Table> BuildSynthetic(const SyntheticSpec& spec,
                                             std::shared_ptr<BufferPool> pool
                                             = nullptr) {
  std::vector<ColumnDef> cols;
  std::vector<ColumnId> sk;
  for (int c = 0; c < spec.key_cols; ++c) {
    cols.push_back({"k" + std::to_string(c),
                    spec.string_keys ? TypeId::kString : TypeId::kInt64});
    sk.push_back(static_cast<ColumnId>(c));
  }
  for (int c = 0; c < spec.payload_cols; ++c) {
    cols.push_back({"v" + std::to_string(c), TypeId::kInt64});
  }
  auto schema_or = Schema::Make(std::move(cols), std::move(sk));
  auto schema = std::make_shared<const Schema>(std::move(*schema_or));

  TableOptions opts;
  opts.backend = spec.backend;
  opts.store.compression = spec.compression;
  opts.store.chunk_rows = spec.chunk_rows;
  auto table = std::make_unique<Table>("bench", schema, opts, pool);

  Random rng(7);
  std::vector<ColumnVector> data;
  for (ColumnId c = 0; c < schema->num_columns(); ++c) {
    data.emplace_back(schema->column(c).type);
    data.back().Reserve(spec.rows);
  }
  for (uint64_t i = 0; i < spec.rows; ++i) {
    std::vector<Value> key =
        MakeKey(spec, static_cast<int64_t>(i) * spec.key_gap);
    for (int c = 0; c < spec.key_cols; ++c) data[c].Append(key[c]);
    for (int c = 0; c < spec.payload_cols; ++c) {
      data[spec.key_cols + c].ints().push_back(
          static_cast<int64_t>(rng.Next() & 0xffffff));
    }
  }
  Status st = table->LoadColumns(std::move(data));
  if (!st.ok()) {
    std::fprintf(stderr, "bench load failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return table;
}

/// One logical update for mirrored application to several tables.
struct BenchUpdate {
  enum Kind { kInsert, kDelete, kModify } kind;
  Tuple tuple;             // kInsert
  std::vector<Value> key;  // kDelete / kModify
  ColumnId col = 0;        // kModify
  Value value;             // kModify
};

/// Generates `count` updates (1/3 insert, 1/3 delete, 1/3 modify of a
/// payload column) against the synthetic key space.
inline std::vector<BenchUpdate> MakeUpdates(const SyntheticSpec& spec,
                                            uint64_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<BenchUpdate> updates;
  updates.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    double dice = rng.NextDouble();
    if (dice < 1.0 / 3.0) {
      // Insert at an off-grid key (gap slots are never in the base data).
      int64_t raw =
          static_cast<int64_t>(rng.Uniform(spec.rows)) * spec.key_gap + 1 +
          static_cast<int64_t>(rng.Uniform(spec.key_gap - 1));
      BenchUpdate u;
      u.kind = BenchUpdate::kInsert;
      std::vector<Value> key = MakeKey(spec, raw);
      u.tuple.assign(key.begin(), key.end());
      for (int c = 0; c < spec.payload_cols; ++c) {
        u.tuple.emplace_back(static_cast<int64_t>(rng.Next() & 0xffffff));
      }
      updates.push_back(std::move(u));
    } else if (dice < 2.0 / 3.0) {
      BenchUpdate u;
      u.kind = BenchUpdate::kDelete;
      u.key = MakeKey(spec, static_cast<int64_t>(rng.Uniform(spec.rows)) *
                                spec.key_gap);
      updates.push_back(std::move(u));
    } else {
      BenchUpdate u;
      u.kind = BenchUpdate::kModify;
      u.key = MakeKey(spec, static_cast<int64_t>(rng.Uniform(spec.rows)) *
                                spec.key_gap);
      u.col = static_cast<ColumnId>(spec.key_cols +
                                    rng.Uniform(spec.payload_cols));
      u.value = Value(static_cast<int64_t>(rng.Next() & 0xffffff));
      updates.push_back(std::move(u));
    }
  }
  return updates;
}

/// Applies updates, ignoring duplicate-insert / missing-key rejections
/// (which affect both backends identically).
inline void ApplyUpdates(Table* table,
                         const std::vector<BenchUpdate>& updates) {
  for (const BenchUpdate& u : updates) {
    switch (u.kind) {
      case BenchUpdate::kInsert:
        (void)table->Insert(u.tuple);
        break;
      case BenchUpdate::kDelete:
        (void)table->DeleteByKey(u.key);
        break;
      case BenchUpdate::kModify:
        (void)table->ModifyByKey(u.key, u.col, u.value);
        break;
    }
  }
}

/// Scans `projection` to completion; returns elapsed milliseconds.
/// `scan_opts` selects serial vs morsel-parallel execution.
inline double TimedScan(const Table& table,
                        std::vector<ColumnId> projection,
                        const ScanOptions& scan_opts = {}) {
  Stopwatch sw;
  auto src = table.Scan(std::move(projection), nullptr, scan_opts);
  Batch batch;
  uint64_t rows = 0;
  while (true) {
    auto more = src->Next(&batch, kDefaultBatchSize);
    if (!more.ok() || !*more) break;
    rows += batch.num_rows();
  }
  (void)rows;
  return sw.ElapsedMillis();
}

/// Accumulates named benchmark metrics and renders them as a
/// machine-readable JSON file, e.g.
///   {"benches": [{"name": "filter_compact_1M",
///                 "metrics": {"baseline_mrps": 85.1, ...}}]}
/// Used by bench_exec_kernels (BENCH_exec.json) and bench_fig17.
class JsonResultWriter {
 public:
  /// Records `key` = `value` under benchmark `bench` (created on first
  /// use, insertion-ordered).
  void Metric(const std::string& bench, const std::string& key,
              double value) {
    for (auto& [name, metrics] : benches_) {
      if (name == bench) {
        metrics.emplace_back(key, value);
        return;
      }
    }
    benches_.emplace_back(bench,
                          std::vector<std::pair<std::string, double>>{
                              {key, value}});
  }

  std::string ToJson() const {
    std::string out = "{\"benches\": [";
    for (size_t b = 0; b < benches_.size(); ++b) {
      if (b) out += ", ";
      out += "{\"name\": \"" + benches_[b].first + "\", \"metrics\": {";
      const auto& metrics = benches_[b].second;
      for (size_t m = 0; m < metrics.size(); ++m) {
        if (m) out += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", metrics[m].second);
        out += "\"" + metrics[m].first + "\": " + buf;
      }
      out += "}}";
    }
    out += "]}\n";
    return out;
  }

  /// Fails (naming the metric on stderr) if any value is not finite —
  /// a NaN or infinity is a broken run, not a result — or if the file
  /// cannot be written.
  bool WriteFile(const std::string& path) const {
    for (const auto& [bench, metrics] : benches_) {
      for (const auto& [key, value] : metrics) {
        if (!std::isfinite(value)) {
          std::fprintf(stderr, "non-finite metric %s.%s\n", bench.c_str(),
                       key.c_str());
          return false;
        }
      }
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string json = ToJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return written == json.size();
  }

 private:
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      benches_;
};

/// Simple command-line flag lookup: --name=value.
inline std::string FlagValue(int argc, char** argv, const std::string& name,
                             const std::string& def) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return def;
}

/// Parses one value of flag --name: `item` must parse whole as a T (an
/// in-range integer when T is integral, a finite number otherwise) and
/// be at least `min`. Anything else prints a usage line naming `what`
/// and fails the run (exit 1).
template <typename T>
T ParseFlagItem(const std::string& name, const std::string& item, T min,
                const char* what) {
  static_assert(std::is_signed_v<T>, "flags parse as signed numbers");
  errno = 0;
  char* end = nullptr;
  bool ok = !item.empty();
  T v;
  if constexpr (std::is_integral_v<T>) {
    const long long x = std::strtoll(item.c_str(), &end, 10);
    ok = ok && x >= static_cast<long long>(std::numeric_limits<T>::min()) &&
         x <= static_cast<long long>(std::numeric_limits<T>::max());
    v = static_cast<T>(x);
  } else {
    v = static_cast<T>(std::strtod(item.c_str(), &end));
    ok = ok && std::isfinite(v);
  }
  if (!ok || errno != 0 || *end != '\0' || v < min) {
    const std::string bound =
        min > std::numeric_limits<T>::lowest()
            ? " >= " + std::to_string(min)
            : std::string();
    std::fprintf(stderr, "usage: --%s=<%s%s>: bad value '%s'\n",
                 name.c_str(), what, bound.c_str(), item.c_str());
    std::exit(1);
  }
  return v;
}

/// Numeric flag: --name=value, validated by ParseFlagItem.
template <typename T>
T FlagNumber(int argc, char** argv, const std::string& name,
             const std::string& def,
             T min = std::numeric_limits<T>::lowest()) {
  return ParseFlagItem<T>(name, FlagValue(argc, argv, name, def), min,
                          std::is_integral_v<T> ? "integer" : "number");
}

/// Comma-separated list flag: --name=1,2,4. Every item is validated by
/// ParseFlagItem (an empty item fails too).
template <typename T>
std::vector<T> FlagList(int argc, char** argv, const std::string& name,
                        const std::string& def,
                        T min = std::numeric_limits<T>::lowest()) {
  const std::string csv = FlagValue(argc, argv, name, def);
  const char* what = std::is_integral_v<T> ? "comma-separated integers"
                                           : "comma-separated numbers";
  std::vector<T> out;
  for (size_t pos = 0;;) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(
        ParseFlagItem<T>(name, csv.substr(pos, comma - pos), min, what));
    if (comma == csv.size()) return out;
    pos = comma + 1;
  }
}

}  // namespace bench
}  // namespace pdtstore

#endif  // PDTSTORE_BENCH_BENCH_UTIL_H_
