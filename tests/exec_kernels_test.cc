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
