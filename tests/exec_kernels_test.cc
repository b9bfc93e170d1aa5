// Property tests for the selection-vector kernels (AppendGather /
// AppendFiltered / HashColumn / SetFrom / AppendRun) against naive
// GetValue-based references, plus equivalence tests asserting that the
// kernelized FilterNode / HashJoinNode / HashAggNode produce row-for-row
// the same results as straightforward row-at-a-time reference
// implementations, and the typed range predicates at their boundaries
// (plain and RLE-sidecar paths must agree).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "columnstore/batch.h"
#include "columnstore/sel_vector.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/parallel_scan.h"
#include "exec/pipeline.h"
#include "util/random.h"

namespace pdtstore {
namespace {

const TypeId kAllTypes[] = {TypeId::kInt64, TypeId::kDouble,
                            TypeId::kString};

ColumnVector RandomColumn(TypeId type, size_t n, Random* rng) {
  ColumnVector col(type);
  for (size_t i = 0; i < n; ++i) {
    // Small cardinality so hash tests see duplicates.
    int64_t v = static_cast<int64_t>(rng->Uniform(16));
    switch (type) {
      case TypeId::kInt64:
        col.Append(Value(v));
        break;
      case TypeId::kDouble:
        col.Append(Value(static_cast<double>(v) * 1.5));
        break;
      case TypeId::kString:
        col.Append(Value("s" + std::to_string(v)));
        break;
    }
  }
  return col;
}

void ExpectColumnsEqual(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.GetValue(i), b.GetValue(i)) << "at index " << i;
  }
}

TEST(KernelTest, AppendGatherMatchesNaive) {
  Random rng(1);
  for (TypeId type : kAllTypes) {
    ColumnVector src = RandomColumn(type, 100, &rng);
    for (size_t sel_size : {size_t{0}, size_t{1}, size_t{37}, size_t{100}}) {
      SelVector sel;
      for (size_t i = 0; i < sel_size; ++i) {
        sel.push_back(static_cast<uint32_t>(rng.Uniform(src.size())));
      }
      ColumnVector fast(type);
      fast.Append(src.GetValue(0));  // non-empty destination: appends
      fast.AppendGather(src, sel);
      ColumnVector ref(type);
      ref.Append(src.GetValue(0));
      for (size_t i = 0; i < sel.size(); ++i) ref.AppendFrom(src, sel[i]);
      ExpectColumnsEqual(fast, ref);
    }
  }
}

TEST(KernelTest, AppendFilteredMatchesNaive) {
  Random rng(2);
  for (TypeId type : kAllTypes) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{129}}) {
      ColumnVector src = RandomColumn(type, n, &rng);
      // Random, none-kept and all-kept bitmaps.
      std::vector<std::vector<uint8_t>> keeps;
      keeps.emplace_back(n, 0);
      keeps.emplace_back(n, 1);
      std::vector<uint8_t> random_keep(n);
      for (size_t i = 0; i < n; ++i) random_keep[i] = rng.Uniform(2);
      keeps.push_back(std::move(random_keep));
      for (const auto& keep : keeps) {
        ColumnVector fast(type);
        fast.AppendFiltered(src, keep.data(), n);
        ColumnVector ref(type);
        for (size_t i = 0; i < n; ++i) {
          if (keep[i]) ref.AppendFrom(src, i);
        }
        ExpectColumnsEqual(fast, ref);
      }
    }
  }
}

TEST(KernelTest, HashColumnBulkMatchesPerRowAndRespectsEquality) {
  Random rng(3);
  for (TypeId type : kAllTypes) {
    ColumnVector col = RandomColumn(type, 200, &rng);
    std::vector<uint64_t> bulk(col.size(), kHashSeed);
    col.HashColumn(bulk.data());
    for (size_t i = 0; i < col.size(); ++i) {
      // Hashing a single-row column must agree with the bulk pass.
      ColumnVector one(type);
      one.AppendFrom(col, i);
      uint64_t h = kHashSeed;
      one.HashColumn(&h);
      EXPECT_EQ(h, bulk[i]) << "row " << i;
    }
    // Equal values hash equal; hashes are well-distributed enough that
    // 16 distinct values never all collide.
    std::map<std::string, uint64_t> by_value;
    size_t distinct_hashes = 0;
    std::vector<uint64_t> seen;
    for (size_t i = 0; i < col.size(); ++i) {
      std::string key = col.GetValue(i).ToString();
      auto [it, inserted] = by_value.try_emplace(key, bulk[i]);
      if (inserted) {
        if (std::find(seen.begin(), seen.end(), bulk[i]) == seen.end()) {
          seen.push_back(bulk[i]);
          ++distinct_hashes;
        }
      } else {
        EXPECT_EQ(it->second, bulk[i]) << "value " << key;
      }
    }
    EXPECT_GT(distinct_hashes, by_value.size() / 2);
  }
}

TEST(KernelTest, HashColumnEmptyAndMultiColumnCombine) {
  ColumnVector empty(TypeId::kInt64);
  empty.HashColumn(nullptr);  // zero rows: must not touch the output

  // Combining across columns distinguishes (a,b) from (b,a).
  ColumnVector a(TypeId::kInt64), b(TypeId::kInt64);
  a.Append(Value(1));
  b.Append(Value(2));
  uint64_t ab = kHashSeed, ba = kHashSeed;
  a.HashColumn(&ab);
  b.HashColumn(&ab);
  b.HashColumn(&ba);
  a.HashColumn(&ba);
  EXPECT_NE(ab, ba);
}

TEST(KernelTest, SetFromMatchesSetValue) {
  Random rng(4);
  for (TypeId type : kAllTypes) {
    ColumnVector src = RandomColumn(type, 20, &rng);
    ColumnVector a = RandomColumn(type, 20, &rng);
    ColumnVector b(type);
    b.AppendRange(a, 0, a.size());
    for (int trial = 0; trial < 50; ++trial) {
      size_t i = rng.Uniform(20), j = rng.Uniform(20);
      a.SetFrom(i, src, j);
      b.SetValue(i, src.GetValue(j));
    }
    ExpectColumnsEqual(a, b);
  }
}

TEST(KernelTest, AppendRunMatchesRepeatedAppend) {
  for (TypeId type : kAllTypes) {
    Value v = type == TypeId::kInt64
                  ? Value(42)
                  : (type == TypeId::kDouble ? Value(4.2) : Value("run"));
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}}) {
      ColumnVector fast(type);
      fast.Append(v);
      fast.AppendRun(v, count);
      ColumnVector ref(type);
      ref.Append(v);
      for (size_t i = 0; i < count; ++i) ref.Append(v);
      ExpectColumnsEqual(fast, ref);
    }
  }
}

// ---------------------------------------------------------------------
// Typed range predicates at their boundaries, on the plain per-row path
// and on the RLE-sidecar run path over the same rows.
// ---------------------------------------------------------------------

// Each value repeated kRun times: one RLE run per distinct value.
constexpr size_t kRun = 3;

template <typename T>
ColumnVector RunColumn(TypeId type, const std::vector<T>& values,
                       bool with_runs) {
  ColumnVector col(type);
  auto runs = std::make_shared<RleRuns>();
  for (T v : values) {
    for (size_t r = 0; r < kRun; ++r) {
      if constexpr (std::is_same_v<T, double>) {
        col.doubles().push_back(v);
      } else {
        col.ints().push_back(v);
      }
    }
    runs->ends.push_back(static_cast<uint32_t>(col.size()));
  }
  if (with_runs) col.SetRleRuns(std::move(runs));
  return col;
}

std::vector<bool> Verdicts(const VecPredicate& pred, ColumnVector col) {
  Batch b;
  b.columns().push_back(std::move(col));
  b.set_column_ids({0});
  KeepBitmap keep;
  keep.Reset(b.num_rows());
  pred(b, &keep);
  std::vector<bool> out(b.num_rows());
  for (size_t i = 0; i < out.size(); ++i) out[i] = keep.Test(i);
  return out;
}

// Checks `pred` against `want` (one verdict per distinct value) on the
// plain column, on the RLE-sidecar column, and on a borrowed window of
// the sidecar column that starts and ends mid-run.
template <typename T>
void ExpectRangeVerdicts(TypeId type, const VecPredicate& pred,
                         const std::vector<T>& values,
                         const std::vector<bool>& want) {
  ASSERT_EQ(values.size(), want.size());
  std::vector<bool> want_rows;
  for (bool w : want) want_rows.insert(want_rows.end(), kRun, w);
  ColumnVector plain = RunColumn(type, values, /*with_runs=*/false);
  ColumnVector runs = RunColumn(type, values, /*with_runs=*/true);
  ASSERT_NE(runs.rle_runs(), nullptr);
  EXPECT_EQ(Verdicts(pred, plain), want_rows) << "plain path";
  EXPECT_EQ(Verdicts(pred, runs), want_rows) << "RLE run path";
  if (want_rows.size() > 2) {
    auto owner = std::make_shared<const ColumnVector>(std::move(runs));
    ColumnVector view(type);
    view.BorrowFrom(owner, 1, want_rows.size() - 2);
    ASSERT_NE(view.rle_runs(), nullptr);
    std::vector<bool> want_view(want_rows.begin() + 1, want_rows.end() - 1);
    EXPECT_EQ(Verdicts(pred, std::move(view)), want_view)
        << "borrowed RLE window";
  }
}

TEST(PredicateBoundaryTest, DoubleInRangeKeepsLoDropsHiAndNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // [0.0, 1.0): lo is kept, hi is dropped, -0.0 equals 0.0, NaN and the
  // infinities fall outside.
  ExpectRangeVerdicts<double>(
      TypeId::kDouble, DoubleInRange(0, 0.0, 1.0),
      {0.0, -0.0, 1.0, std::nextafter(1.0, 0.0), 0.5, nan, inf, -inf,
       -std::numeric_limits<double>::denorm_min()},
      {true, true, false, true, true, false, false, false, false});
  // A -0.0 lower bound admits +0.0 too.
  ExpectRangeVerdicts<double>(TypeId::kDouble, DoubleInRange(0, -0.0, 1.0),
                              {0.0, -0.0}, {true, true});
  // Infinite bounds: -inf is kept (lo inclusive), +inf dropped (hi
  // exclusive), NaN still dropped.
  ExpectRangeVerdicts<double>(
      TypeId::kDouble, DoubleInRange(0, -inf, inf),
      {-inf, inf, nan, 0.0, std::numeric_limits<double>::max()},
      {true, false, false, true, true});
}

TEST(PredicateBoundaryTest, Int64BetweenAtTheTypeLimits) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> values{lo, lo + 1, -1, 0, 1, hi - 1, hi};
  ExpectRangeVerdicts<int64_t>(TypeId::kInt64, Int64Between(0, lo, hi),
                               values,
                               {true, true, true, true, true, true, true});
  ExpectRangeVerdicts<int64_t>(TypeId::kInt64, Int64Between(0, lo, lo),
                               values,
                               {true, false, false, false, false, false,
                                false});
  ExpectRangeVerdicts<int64_t>(TypeId::kInt64, Int64Between(0, hi, hi),
                               values,
                               {false, false, false, false, false, false,
                                true});
  ExpectRangeVerdicts<int64_t>(TypeId::kInt64, Int64Between(0, 0, hi),
                               values,
                               {false, false, false, true, true, true, true});
  // An empty range (lo > hi) keeps nothing.
  ExpectRangeVerdicts<int64_t>(TypeId::kInt64, Int64Between(0, hi, lo),
                               values,
                               {false, false, false, false, false, false,
                                false});
}

// ---------------------------------------------------------------------
// Operator equivalence against row-at-a-time references.
// ---------------------------------------------------------------------

Batch RandomBatch(size_t rows, Random* rng) {
  Batch b;
  std::vector<ColumnId> ids;
  TypeId layout[] = {TypeId::kInt64, TypeId::kDouble, TypeId::kString,
                     TypeId::kInt64};
  for (TypeId t : layout) {
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(RandomColumn(t, rows, rng));
  }
  b.set_column_ids(std::move(ids));
  return b;
}

std::vector<Tuple> BatchRows(const Batch& b) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < b.num_rows(); ++i) rows.push_back(b.RowAsTuple(i));
  return rows;
}

std::vector<Tuple> Drain(BatchSource* src, size_t batch = 7) {
  auto rows = CollectRows(src, batch);
  EXPECT_TRUE(rows.ok());
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

void ExpectRowsEqual(const std::vector<Tuple>& got,
                     const std::vector<Tuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t c = 0; c < got[i].size(); ++c) {
      EXPECT_EQ(got[i][c], want[i][c]) << "row " << i << " col " << c;
    }
  }
}

TEST(OperatorEquivalenceTest, FilterMatchesRowAtATime) {
  Random rng(5);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{200}}) {
    Batch input = RandomBatch(rows, &rng);
    auto predicate = Int64Between(0, 4, 11);

    FilterNode node(std::make_unique<VectorSource>(input), predicate);
    auto got = Drain(&node);

    KeepBitmap keep;
    keep.Reset(rows);
    if (rows > 0) predicate(input, &keep);
    std::vector<Tuple> want;
    for (size_t i = 0; i < rows; ++i) {
      if (keep.Test(i)) want.push_back(input.RowAsTuple(i));
    }
    ExpectRowsEqual(got, want);
  }
}

TEST(OperatorEquivalenceTest, HashJoinMatchesNestedLoop) {
  Random rng(6);
  Batch probe = RandomBatch(120, &rng);
  Batch build = RandomBatch(40, &rng);
  // Keys: (int64 col 0, string col 2) — exercises multi-column verify.
  std::vector<size_t> keys = {0, 2};

  auto run = [&](JoinKind kind) {
    HashJoinNode node(std::make_unique<VectorSource>(probe),
                      std::make_unique<VectorSource>(build), keys, keys,
                      kind);
    return Drain(&node);
  };
  auto match = [&](size_t p, size_t b) {
    for (size_t k : keys) {
      if (probe.column(k).CompareAt(p, build.column(k), b) != 0)
        return false;
    }
    return true;
  };

  std::vector<Tuple> inner, semi, anti;
  for (size_t p = 0; p < probe.num_rows(); ++p) {
    bool any = false;
    for (size_t b = 0; b < build.num_rows(); ++b) {
      if (!match(p, b)) continue;
      any = true;
      Tuple t = probe.RowAsTuple(p);
      Tuple bt = build.RowAsTuple(b);
      t.insert(t.end(), bt.begin(), bt.end());
      inner.push_back(std::move(t));
    }
    (any ? semi : anti).push_back(probe.RowAsTuple(p));
  }
  ASSERT_FALSE(inner.empty());  // keys overlap by construction
  ExpectRowsEqual(run(JoinKind::kInner), inner);
  ExpectRowsEqual(run(JoinKind::kLeftSemi), semi);
  ExpectRowsEqual(run(JoinKind::kLeftAnti), anti);
}

TEST(OperatorEquivalenceTest, HashAggMatchesRowAtATime) {
  Random rng(7);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{500}}) {
    Batch input = RandomBatch(rows, &rng);
    // Group by (string col 2, int64 col 3); aggregate over cols 0 and 1.
    std::vector<size_t> group_by = {2, 3};
    std::vector<AggSpec> aggs = {{AggKind::kSum, 1},
                                 {AggKind::kCount, 0},
                                 {AggKind::kMin, 0},
                                 {AggKind::kMax, 1},
                                 {AggKind::kAvg, 0}};

    HashAggNode node(std::make_unique<VectorSource>(input), group_by, aggs);
    auto got = Drain(&node);

    // Reference: first-appearance-ordered groups over row tuples.
    struct Ref {
      Tuple key;
      double sum1 = 0, min0 = 1e300, max1 = -1e300, sum0 = 0;
      int64_t count = 0;
    };
    std::vector<Ref> refs;
    auto numeric = [&](size_t col, size_t row) {
      const ColumnVector& c = input.column(col);
      return c.type() == TypeId::kInt64
                 ? static_cast<double>(c.ints()[row])
                 : c.doubles()[row];
    };
    for (size_t i = 0; i < rows; ++i) {
      Tuple key = {input.column(2).GetValue(i), input.column(3).GetValue(i)};
      Ref* r = nullptr;
      for (auto& cand : refs) {
        if (CompareTuples(cand.key, key) == 0) {
          r = &cand;
          break;
        }
      }
      if (!r) {
        refs.emplace_back();
        r = &refs.back();
        r->key = key;
      }
      ++r->count;
      r->sum1 += numeric(1, i);
      r->sum0 += numeric(0, i);
      r->min0 = std::min(r->min0, numeric(0, i));
      r->max1 = std::max(r->max1, numeric(1, i));
    }
    std::vector<Tuple> want;
    for (const Ref& r : refs) {
      Tuple t = r.key;
      t.emplace_back(r.sum1);
      t.emplace_back(r.count);
      t.emplace_back(r.min0);
      t.emplace_back(r.max1);
      t.emplace_back(r.sum0 / static_cast<double>(r.count));
      want.push_back(std::move(t));
    }
    ExpectRowsEqual(got, want);
  }
}

// ---------------------------------------------------------------------
// Hash aggregation across key representations: the column-at-a-time
// group assign and the fused accumulate pass against a row-at-a-time
// reference, bit for bit.
// ---------------------------------------------------------------------

// One input row: string key, double key, int and double values.
struct AggRow {
  std::string s;
  double d;
  int64_t v;
  double x;
};

std::shared_ptr<const StringDict> MakeDict(std::vector<std::string> values) {
  auto dict = std::make_shared<StringDict>();
  for (const auto& v : values) {
    dict->hashes.push_back(HashBytes(v.data(), v.size()));
  }
  dict->values = std::move(values);
  return dict;
}

// How a batch carries its string key column.
enum class KeyRep { kPlain, kDict, kBorrowedDict, kBorrowedPlain };

// Rows as a batch (columns s, d, v, x). Dictionary columns code each
// value by its entry in `dict`; borrowed ones are windows 3 rows into a
// larger owner.
Batch AggBatch(const std::vector<AggRow>& rows, KeyRep rep,
               const std::shared_ptr<const StringDict>& dict = nullptr) {
  Batch b;
  b.columns().emplace_back(TypeId::kString);
  b.columns().emplace_back(TypeId::kDouble);
  b.columns().emplace_back(TypeId::kInt64);
  b.columns().emplace_back(TypeId::kDouble);
  b.set_column_ids({0, 1, 2, 3});
  ColumnVector keys(TypeId::kString);
  const size_t pad = rep == KeyRep::kBorrowedDict ||
                             rep == KeyRep::kBorrowedPlain
                         ? 3
                         : 0;
  const bool coded = rep == KeyRep::kDict || rep == KeyRep::kBorrowedDict;
  if (coded) keys.AdoptDict(dict);
  for (size_t i = 0; i < rows.size() + 2 * pad; ++i) {
    const std::string& s =
        rows[std::min(rows.size() - 1, i >= pad ? i - pad : 0)].s;
    if (coded) {
      const auto it = std::find(dict->values.begin(), dict->values.end(), s);
      EXPECT_NE(it, dict->values.end()) << s;
      keys.codes().push_back(
          static_cast<uint32_t>(it - dict->values.begin()));
    } else {
      keys.strings().push_back(s);
    }
  }
  if (pad > 0) {
    b.column(0).BorrowFrom(
        std::make_shared<const ColumnVector>(std::move(keys)), pad,
        rows.size());
  } else {
    b.column(0) = std::move(keys);
  }
  for (const AggRow& r : rows) {
    b.column(1).doubles().push_back(r.d);
    b.column(2).ints().push_back(r.v);
    b.column(3).doubles().push_back(r.x);
  }
  return b;
}

// Hands out a list of batches as they are (borrows and dictionaries
// included).
class BatchListSource : public BatchSource {
 public:
  explicit BatchListSource(std::vector<Batch> batches)
      : batches_(std::move(batches)) {}
  StatusOr<bool> Next(Batch* out, size_t) override {
    if (pos_ == batches_.size()) return false;
    *out = batches_[pos_++];
    return true;
  }

 private:
  std::vector<Batch> batches_;
  size_t pos_ = 0;
};

const std::vector<size_t> kAggGroupBy = {0, 1};
const std::vector<AggSpec> kAggSpecs = {
    {AggKind::kSum, 2}, {AggKind::kSum, 3}, {AggKind::kAvg, 3},
    {AggKind::kMin, 3}, {AggKind::kMax, 2}, {AggKind::kCount, 0},
    {AggKind::kAvg, 2}, {AggKind::kMax, 3}, {AggKind::kMin, 2}};

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// The expected result rows, one string per row: the key and every
// aggregate, doubles as their bits. Groups form as the engine forms them
// (equal hash and equal key): -0.0 joins 0.0, NaN joins NaN, and a group
// keeps the key it first appeared with — or, with `unsigned_zero`, shows
// a zero key as 0.0. Every sum runs in row order.
std::vector<std::string> ReferenceAgg(const std::vector<AggRow>& rows,
                                      bool unsigned_zero) {
  struct Group {
    AggRow key;
    double sum_v = 0, sum_x = 0;
    double min_x = std::numeric_limits<double>::infinity();
    double max_x = -std::numeric_limits<double>::infinity();
    double min_v = std::numeric_limits<double>::infinity();
    double max_v = -std::numeric_limits<double>::infinity();
    int64_t count = 0;
  };
  std::map<std::pair<std::string, uint64_t>, size_t> index;
  std::vector<Group> groups;
  for (const AggRow& r : rows) {
    const double d = r.d == 0.0 ? 0.0 : r.d;
    auto [it, added] = index.try_emplace({r.s, Bits(d)}, groups.size());
    if (added) {
      groups.emplace_back();
      groups.back().key = r;
    }
    Group& g = groups[it->second];
    const double v = static_cast<double>(r.v);
    g.sum_v += v;
    g.sum_x += r.x;
    if (r.x < g.min_x) g.min_x = r.x;
    if (r.x > g.max_x) g.max_x = r.x;
    if (v < g.min_v) g.min_v = v;
    if (v > g.max_v) g.max_v = v;
    ++g.count;
  }
  std::vector<std::string> out;
  for (const Group& g : groups) {
    const double n = static_cast<double>(g.count);
    const double d = unsigned_zero && g.key.d == 0.0 ? 0.0 : g.key.d;
    out.push_back(g.key.s + "|" + std::to_string(Bits(d)));
    for (double a : {g.sum_v, g.sum_x, g.sum_x / n, g.min_x, g.max_v}) {
      out.back() += "|" + std::to_string(Bits(a));
    }
    out.back() += "|" + std::to_string(g.count);
    for (double a : {g.sum_v / n, g.max_x, g.min_v}) {
      out.back() += "|" + std::to_string(Bits(a));
    }
  }
  return out;
}

// The rows of an aggregation result over AggRow batches, as ReferenceAgg
// writes them.
std::vector<std::string> ResultRows(BatchSource* agg, bool unsigned_zero) {
  std::vector<std::string> out;
  Batch b;
  while (true) {
    auto more = agg->Next(&b, kDefaultBatchSize);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    for (size_t i = 0; i < b.num_rows(); ++i) {
      std::string row = b.column(0).StringAt(i);
      for (size_t c = 1; c < b.num_columns(); ++c) {
        const ColumnVector& col = b.column(c);
        if (col.type() == TypeId::kInt64) {
          row += "|" + std::to_string(col.ints_data()[i]);
          continue;
        }
        double v = col.doubles_data()[i];
        if (c == 1 && unsigned_zero && v == 0.0) v = 0.0;
        row += "|" + std::to_string(Bits(v));
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

// Serial: exactly the reference, in first-appearance order. Four
// threads, one morsel per batch: the same rows as a multiset (the values
// are small multiples of 0.25, so partial sums are exact in any order).
// A worker's group may first see -0.0 where the serial order saw 0.0, so
// there zero keys compare unsigned.
void ExpectAggMatchesReference(const std::vector<Batch>& batches,
                               const std::vector<AggRow>& rows) {
  const std::vector<std::string> want = ReferenceAgg(rows, false);
  HashAggNode serial(std::make_unique<BatchListSource>(batches), kAggGroupBy,
                     kAggSpecs);
  const std::vector<std::string> got = ResultRows(&serial, false);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "group " << i;
  }

  MorselPlan plan;
  for (size_t i = 0; i < batches.size(); ++i) {
    plan.morsels.push_back({static_cast<Sid>(i), static_cast<Sid>(i + 1)});
  }
  plan.factory = [&batches](size_t idx, const SidRange&, bool) {
    return std::make_unique<BatchListSource>(
        std::vector<Batch>{batches[idx]});
  };
  plan.options.num_threads = 4;
  plan.options.morsel_rows = 1;
  auto parallel = Pipeline(std::move(plan)).Aggregate(kAggGroupBy, kAggSpecs);
  std::vector<std::string> par = ResultRows(parallel.get(), true);
  std::vector<std::string> sorted_want = ReferenceAgg(rows, true);
  std::sort(par.begin(), par.end());
  std::sort(sorted_want.begin(), sorted_want.end());
  EXPECT_EQ(par, sorted_want);
}

TEST(OperatorEquivalenceTest, HashAggAcrossKeyRepresentations) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kDoubles[] = {-0.0, 0.0, 1.5, kNaN};
  Random rng(31);
  auto rows_over = [&](const std::vector<std::string>& domain, size_t n) {
    std::vector<AggRow> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({domain[rng.Uniform(domain.size())],
                      kDoubles[rng.Uniform(4)],
                      static_cast<int64_t>(rng.Uniform(100)) - 50,
                      static_cast<double>(rng.Uniform(64)) * 0.25});
    }
    return rows;
  };
  const auto d1 = MakeDict({"a", "b", "c"});
  const auto d2 = MakeDict({"c", "b", "e", "a"});
  // Lacks "a", "c" and "e", which earlier batches stored.
  const auto d3 = MakeDict({"zz", "b"});
  struct Part {
    KeyRep rep;
    std::shared_ptr<const StringDict> dict;
    std::vector<std::string> domain;
  };
  const Part parts[] = {
      {KeyRep::kDict, d1, {"a", "b", "c"}},
      {KeyRep::kDict, d2, {"c", "b", "e", "a"}},
      {KeyRep::kPlain, nullptr, {"a", "b", "c", "e", "f"}},
      {KeyRep::kBorrowedDict, d2, {"e", "a"}},
      {KeyRep::kDict, d3, {"zz", "b"}},
      {KeyRep::kBorrowedPlain, nullptr, {"zz", "f", "g"}},
      {KeyRep::kDict, d1, {"a", "b", "c"}},
  };
  std::vector<Batch> batches;
  std::vector<AggRow> all;
  for (const Part& p : parts) {
    std::vector<AggRow> rows = rows_over(p.domain, 300);
    if (batches.empty()) {
      // A group first seen as -0.0 that 0.0 then joins, and NaN twice.
      rows[0].d = -0.0;
      rows[1] = {rows[0].s, 0.0, 7, 0.5};
      rows[2].d = kNaN;
      rows[3] = {rows[2].s, kNaN, 9, 1.25};
    }
    batches.push_back(AggBatch(rows, p.rep, p.dict));
    all.insert(all.end(), rows.begin(), rows.end());
  }
  ExpectAggMatchesReference(batches, all);
}

TEST(OperatorEquivalenceTest, HashAggPastSixtyFourThousandGroups) {
  // 70,000 distinct string keys: a small first batch, so the table's
  // per-batch estimate under-predicts and it grows inside the second
  // (all-new, plain) batch; then the same keys as codes of one large
  // shuffled dictionary, a borrowed window of it, and plain again.
  constexpr size_t kKeys = 70000;
  Random rng(37);
  std::vector<std::string> names;
  for (size_t i = 0; i < kKeys; ++i) names.push_back("k" + std::to_string(i));
  auto row = [&](size_t key) {
    return AggRow{names[key], key % 3 == 0 ? -0.0 : 0.0,
                  static_cast<int64_t>(rng.Uniform(1000)),
                  static_cast<double>(rng.Uniform(64)) * 0.25};
  };
  std::vector<AggRow> first, fresh, coded, window, again;
  for (size_t i = 0; i < 10; ++i) first.push_back(row(i));
  for (size_t i = 0; i < kKeys; ++i) fresh.push_back(row(i));
  std::vector<std::string> shuffled = names;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  const auto big = MakeDict(shuffled);
  for (size_t i = 0; i < 20000; ++i) coded.push_back(row(rng.Uniform(kKeys)));
  for (size_t i = 0; i < 5000; ++i) window.push_back(row(rng.Uniform(kKeys)));
  for (size_t i = 0; i < 5000; ++i) again.push_back(row(rng.Uniform(kKeys)));
  // Dictionary lookups by value are slow for 70k entries: code through a
  // map instead of AggBatch's linear search.
  std::map<std::string, uint32_t> code_of;
  for (uint32_t c = 0; c < big->values.size(); ++c) {
    code_of[big->values[c]] = c;
  }
  auto coded_batch = [&](const std::vector<AggRow>& rows, bool borrowed) {
    Batch b = AggBatch(rows, KeyRep::kPlain);
    ColumnVector keys(TypeId::kString);
    keys.AdoptDict(big);
    if (borrowed) keys.codes().push_back(0);
    for (const AggRow& r : rows) keys.codes().push_back(code_of.at(r.s));
    if (borrowed) {
      b.column(0).BorrowFrom(
          std::make_shared<const ColumnVector>(std::move(keys)), 1,
          rows.size());
    } else {
      b.column(0) = std::move(keys);
    }
    return b;
  };
  std::vector<Batch> batches = {
      AggBatch(first, KeyRep::kPlain), AggBatch(fresh, KeyRep::kPlain),
      coded_batch(coded, false), coded_batch(window, true),
      AggBatch(again, KeyRep::kPlain)};
  std::vector<AggRow> all;
  for (const auto* part : {&first, &fresh, &coded, &window, &again}) {
    all.insert(all.end(), part->begin(), part->end());
  }
  ExpectAggMatchesReference(batches, all);
}

TEST(OperatorEquivalenceTest, BatchGatherAndFilterHelpers) {
  Random rng(8);
  Batch input = RandomBatch(60, &rng);
  std::vector<uint8_t> keep(60);
  KeepBitmap bitmap;
  bitmap.Reset(60);
  for (size_t i = 0; i < keep.size(); ++i) {
    keep[i] = static_cast<uint8_t>(rng.Uniform(2));
    bitmap.SetTo(i, keep[i] != 0);
  }

  // The byte-keep reference path and the bitmap path must agree.
  Batch filtered;
  filtered.set_column_ids(input.column_ids());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    filtered.columns().emplace_back(input.column(c).type());
  }
  filtered.AppendFiltered(input, keep.data());

  Batch bit_filtered;
  bit_filtered.set_column_ids(input.column_ids());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    bit_filtered.columns().emplace_back(input.column(c).type());
  }
  bit_filtered.AppendFiltered(input, bitmap);

  Batch gathered;
  gathered.set_column_ids(input.column_ids());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    gathered.columns().emplace_back(input.column(c).type());
  }
  gathered.AppendGather(input, SelVector::FromKeep(bitmap));

  std::vector<Tuple> want;
  for (size_t i = 0; i < 60; ++i) {
    if (keep[i]) want.push_back(input.RowAsTuple(i));
  }
  ExpectRowsEqual(BatchRows(filtered), want);
  ExpectRowsEqual(BatchRows(bit_filtered), want);
  ExpectRowsEqual(BatchRows(gathered), want);
}

}  // namespace
}  // namespace pdtstore
