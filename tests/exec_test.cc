// Executor operator tests: filter, project, hash aggregation, hash join
// (inner/semi/anti, plus the bucket-chained JoinTable against a
// nested-loop reference: hash-equal key mismatches, signed-zero and NaN
// double keys, matches at every chain depth and probe slice, and empty
// partitions), sort/top-k, and pipeline composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/sort.h"

namespace pdtstore {
namespace {

Batch WithColumns(std::vector<ColumnVector> cols) {
  Batch b;
  std::vector<ColumnId> ids;
  for (auto& c : cols) {
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(std::move(c));
  }
  b.set_column_ids(std::move(ids));
  return b;
}

Batch MakeBatch(std::vector<std::vector<int64_t>> int_cols,
                std::vector<std::vector<double>> dbl_cols = {},
                std::vector<std::vector<std::string>> str_cols = {}) {
  std::vector<ColumnVector> cols;
  for (auto& c : int_cols) {
    cols.emplace_back(TypeId::kInt64);
    cols.back().ints() = std::move(c);
  }
  for (auto& c : dbl_cols) {
    cols.emplace_back(TypeId::kDouble);
    cols.back().doubles() = std::move(c);
  }
  for (auto& c : str_cols) {
    cols.emplace_back(TypeId::kString);
    cols.back().strings() = std::move(c);
  }
  return WithColumns(std::move(cols));
}

std::vector<Tuple> Drain(BatchSource* src, size_t batch = 3) {
  auto rows = CollectRows(src, batch);
  EXPECT_TRUE(rows.ok());
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

TEST(VectorSourceTest, EmitsInSlices) {
  VectorSource src(MakeBatch({{1, 2, 3, 4, 5}}));
  Batch out;
  auto r1 = src.Next(&out, 2);
  ASSERT_TRUE(r1.ok() && *r1);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.start_rid(), 0u);
  auto r2 = src.Next(&out, 10);
  ASSERT_TRUE(r2.ok() && *r2);
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.start_rid(), 2u);
  auto r3 = src.Next(&out, 10);
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(*r3);
}

TEST(FilterTest, Int64BetweenAndCompaction) {
  auto src = std::make_unique<VectorSource>(
      MakeBatch({{1, 5, 10, 15, 20}, {100, 101, 102, 103, 104}}));
  FilterNode filter(std::move(src), Int64Between(0, 5, 15));
  auto rows = Drain(&filter);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], Value(101));
  EXPECT_EQ(rows[2][1], Value(103));
}

TEST(FilterTest, AndComposition) {
  auto src = std::make_unique<VectorSource>(MakeBatch(
      {{1, 2, 3, 4}}, {}, {{"a", "b", "a", "b"}}));
  FilterNode filter(std::move(src),
                    And({Int64Between(0, 2, 4), StringEquals(1, "b")}));
  auto rows = Drain(&filter);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(2));
  EXPECT_EQ(rows[1][0], Value(4));
}

TEST(ProjectTest, RevenueExpression) {
  auto src = std::make_unique<VectorSource>(
      MakeBatch({}, {{100.0, 200.0}, {0.1, 0.25}}));
  ProjectNode proj(std::move(src), {Revenue(0, 1), ColumnRef(0)});
  auto rows = Drain(&proj);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 90.0);
  EXPECT_DOUBLE_EQ(rows[1][0].AsDouble(), 150.0);
}

TEST(ProjectTest, SameColumnReferencedTwice) {
  // Moving a column out on its first reference would leave the second
  // one empty; every batch (size 3 over 10 rows) must see both copies.
  std::vector<int64_t> keys;
  std::vector<std::string> names;
  for (int64_t i = 0; i < 10; ++i) {
    keys.push_back(i * 10);
    names.push_back("s" + std::to_string(i));
  }
  auto src = std::make_unique<VectorSource>(MakeBatch({keys}, {}, {names}));
  ProjectNode proj(std::move(src),
                   {ColumnRef(1), ColumnRef(0), ColumnRef(1), ColumnRef(0)});
  auto rows = Drain(&proj);
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 4u);
    EXPECT_EQ(rows[i][0], Value(names[i]));
    EXPECT_EQ(rows[i][1], Value(keys[i]));
    EXPECT_EQ(rows[i][2], Value(names[i]));
    EXPECT_EQ(rows[i][3], Value(keys[i]));
  }
}

TEST(ProjectTest, ComputedColumnAndRefReadTheSameInputColumn) {
  // The refs come first in expression order, but the computed columns
  // must still read the input columns before they are moved out.
  auto src = std::make_unique<VectorSource>(MakeBatch(
      {}, {{100.0, 200.0, 300.0, 400.0}, {0.1, 0.25, 0.5, 0.0}}));
  ProjectNode proj(std::move(src),
                   {ColumnRef(0), ColumnRef(1), Revenue(0, 1),
                    [](const Batch& b) {
                      ColumnVector out(TypeId::kDouble);
                      const double* price = b.column(0).doubles_data();
                      for (size_t i = 0; i < b.num_rows(); ++i) {
                        out.doubles().push_back(price[i] * 2);
                      }
                      return out;
                    }});
  auto rows = Drain(&proj);
  const double price[] = {100.0, 200.0, 300.0, 400.0};
  const double disc[] = {0.1, 0.25, 0.5, 0.0};
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i][0].AsDouble(), price[i]);
    EXPECT_DOUBLE_EQ(rows[i][1].AsDouble(), disc[i]);
    EXPECT_DOUBLE_EQ(rows[i][2].AsDouble(), price[i] * (1 - disc[i]));
    EXPECT_DOUBLE_EQ(rows[i][3].AsDouble(), price[i] * 2);
  }
}

TEST(HashAggTest, GroupedSumCountMinMaxAvg) {
  auto src = std::make_unique<VectorSource>(MakeBatch(
      {{1, 2, 1, 2, 1}}, {{10.0, 20.0, 30.0, 40.0, 50.0}}));
  HashAggNode agg(std::move(src), {0},
                  {{AggKind::kSum, 1},
                   {AggKind::kCount, 0},
                   {AggKind::kMin, 1},
                   {AggKind::kMax, 1},
                   {AggKind::kAvg, 1}});
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 2u);
  // Groups in first-appearance order: 1 then 2.
  EXPECT_EQ(rows[0][0], Value(1));
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 90.0);
  EXPECT_EQ(rows[0][2], Value(3));
  EXPECT_DOUBLE_EQ(rows[0][3].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 50.0);
  EXPECT_DOUBLE_EQ(rows[0][5].AsDouble(), 30.0);
  EXPECT_EQ(rows[1][0], Value(2));
  EXPECT_DOUBLE_EQ(rows[1][1].AsDouble(), 60.0);
}

TEST(HashAggTest, GlobalAggregateOverEmptyInput) {
  auto src = std::make_unique<VectorSource>(MakeBatch({{}}));
  HashAggNode agg(std::move(src), {}, {{AggKind::kSum, 0},
                                       {AggKind::kCount, 0}});
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 0.0);
  EXPECT_EQ(rows[0][1], Value(0));
}

TEST(HashJoinTest, InnerJoinProducesMatches) {
  auto probe = std::make_unique<VectorSource>(
      MakeBatch({{1, 2, 3, 2}}, {{10.0, 20.0, 30.0, 40.0}}));
  auto build = std::make_unique<VectorSource>(
      MakeBatch({{2, 3, 4}}, {}, {{"two", "three", "four"}}));
  HashJoinNode join(std::move(probe), std::move(build), {0}, {0});
  auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);  // keys 2, 3, 2 match
  EXPECT_EQ(rows[0][3], Value("two"));
  EXPECT_EQ(rows[1][3], Value("three"));
  EXPECT_EQ(rows[2][3], Value("two"));
}

TEST(HashJoinTest, SemiAndAnti) {
  auto make_probe = [] {
    return std::make_unique<VectorSource>(MakeBatch({{1, 2, 3, 4}}));
  };
  auto make_build = [] {
    return std::make_unique<VectorSource>(MakeBatch({{2, 4, 2}}));
  };
  HashJoinNode semi(make_probe(), make_build(), {0}, {0},
                    JoinKind::kLeftSemi);
  auto semi_rows = Drain(&semi);
  ASSERT_EQ(semi_rows.size(), 2u);  // 2 and 4, once each
  EXPECT_EQ(semi_rows[0][0], Value(2));
  EXPECT_EQ(semi_rows[1][0], Value(4));

  HashJoinNode anti(make_probe(), make_build(), {0}, {0},
                    JoinKind::kLeftAnti);
  auto anti_rows = Drain(&anti);
  ASSERT_EQ(anti_rows.size(), 2u);  // 1 and 3
  EXPECT_EQ(anti_rows[0][0], Value(1));
  EXPECT_EQ(anti_rows[1][0], Value(3));
}

// ---------------------------------------------------------------------
// JoinTable + ProbeJoinBatch against a nested-loop reference.
// ---------------------------------------------------------------------

// The combined key hash of a one-column int64 key, as HashColumn makes it.
uint64_t Int64KeyHash(int64_t v) {
  uint64_t h = kHashSeed;
  ColumnVector one(TypeId::kInt64);
  one.ints() = {v};
  one.HashColumn(&h);
  return h;
}

std::shared_ptr<const StringDict> MakeDict(std::vector<std::string> values) {
  auto dict = std::make_shared<StringDict>();
  for (const std::string& v : values) {
    dict->hashes.push_back(HashBytes(v.data(), v.size()));
  }
  dict->values = std::move(values);
  return dict;
}

ColumnVector DictColumn(std::shared_ptr<const StringDict> dict,
                        std::vector<uint32_t> codes) {
  ColumnVector col(TypeId::kString);
  col.AdoptDict(std::move(dict));
  col.codes() = std::move(codes);
  return col;
}

// Inner: one row per (probe row, matching build row), probe order first,
// then build order. Semi/anti: each surviving probe row once.
std::vector<Tuple> NestedLoopJoin(const Batch& probe,
                                  const std::vector<size_t>& probe_keys,
                                  const Batch& build,
                                  const std::vector<size_t>& build_keys,
                                  JoinKind kind) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < probe.num_rows(); ++i) {
    bool matched = false;
    for (size_t j = 0; j < build.num_rows(); ++j) {
      bool equal = true;
      for (size_t k = 0; k < probe_keys.size(); ++k) {
        equal = equal && probe.column(probe_keys[k])
                                 .CompareAt(i, build.column(build_keys[k]),
                                            j) == 0;
      }
      if (!equal) continue;
      matched = true;
      if (kind == JoinKind::kInner) {
        Tuple row = probe.RowAsTuple(i);
        Tuple b = build.RowAsTuple(j);
        row.insert(row.end(), b.begin(), b.end());
        rows.push_back(std::move(row));
      }
    }
    if (kind != JoinKind::kInner &&
        matched == (kind == JoinKind::kLeftSemi)) {
      rows.push_back(probe.RowAsTuple(i));
    }
  }
  return rows;
}

// P == 1 is the serial JoinTable::Build; P > 1 routes build rows by
// JoinPartitionOf and builds each partition from the routed hashes, as
// the parallel pipeline's Finalize does.
PartitionedJoinTable BuildTable(const Batch& build,
                                const std::vector<size_t>& keys,
                                size_t num_partitions = 1) {
  PartitionedJoinTable t;
  if (num_partitions == 1) {
    t.parts.push_back(JoinTable::Build(build, keys));
    return t;
  }
  std::vector<uint64_t> hashes(build.num_rows(), kHashSeed);
  for (size_t k : keys) build.column(k).HashColumn(hashes.data());
  std::vector<SelVector> sel(num_partitions);
  std::vector<std::vector<uint64_t>> part_hashes(num_partitions);
  for (size_t row = 0; row < build.num_rows(); ++row) {
    const size_t p = JoinPartitionOf(hashes[row], num_partitions);
    sel[p].push_back(static_cast<uint32_t>(row));
    part_hashes[p].push_back(hashes[row]);
  }
  for (size_t p = 0; p < num_partitions; ++p) {
    Batch part;
    part.ResetLike(build);
    part.AppendGather(build, sel[p]);
    t.parts.push_back(
        JoinTable::BuildWithHashes(std::move(part), keys,
                                   std::move(part_hashes[p])));
  }
  return t;
}

// Probes `probe` in slices of `slice` rows through one reused scratch.
std::vector<Tuple> ProbeAll(const PartitionedJoinTable& table,
                            const Batch& probe,
                            const std::vector<size_t>& probe_keys,
                            JoinKind kind, size_t slice = 7) {
  VectorSource src(probe);
  JoinProbeScratch scratch;
  Batch in;
  Batch out;
  std::vector<Tuple> rows;
  while (true) {
    auto more = src.Next(&in, slice);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    ProbeJoinBatch(table, probe_keys, kind, in, &out, &scratch);
    for (size_t i = 0; i < out.num_rows(); ++i) {
      rows.push_back(out.RowAsTuple(i));
    }
  }
  return rows;
}

TEST(JoinTableTest, DuplicateBuildKeysMatchInProbeThenBuildOrder) {
  // 300 build rows over 10 keys (30 duplicates each), payload = row.
  std::vector<int64_t> build_keys, payload;
  for (int64_t r = 0; r < 300; ++r) {
    build_keys.push_back((r * 7) % 10);
    payload.push_back(r);
  }
  Batch build = MakeBatch({build_keys, payload});
  std::vector<int64_t> probe_keys;
  for (int64_t r = 0; r < 50; ++r) probe_keys.push_back((r * 3) % 15);
  Batch probe = MakeBatch({probe_keys});

  PartitionedJoinTable table = BuildTable(build, {0});
  auto got = ProbeAll(table, probe, {0}, JoinKind::kInner);
  auto want = NestedLoopJoin(probe, {0}, build, {0}, JoinKind::kInner);
  ASSERT_EQ(got.size(), 40u * 30);  // 40 probe rows hit, 30 dups each
  EXPECT_EQ(got, want);
}

TEST(JoinTableTest, MultiColumnKeysAcrossTwoDictionaries) {
  // Two dictionaries with the same strings under different codes (plus
  // one string only B has): equality must be by value, never by code.
  auto dict_a = MakeDict({"x", "y", "z"});
  auto dict_b = MakeDict({"z", "w", "x", "y"});
  // Build side: dict-A rows then dict-B rows appended into one column —
  // MaterializeAll's shape for a build side crossing a chunk boundary.
  ColumnVector build_str(TypeId::kString);
  ColumnVector from_a = DictColumn(dict_a, {0, 1, 2, 0, 1});
  ColumnVector from_b = DictColumn(dict_b, {1, 2, 0, 3, 2});
  build_str.AppendRange(from_a, 0, from_a.size());
  build_str.AppendRange(from_b, 0, from_b.size());
  ColumnVector build_int(TypeId::kInt64);
  build_int.ints() = {1, 1, 2, 2, 1, 1, 1, 2, 1, 2};
  ColumnVector build_pay(TypeId::kDouble);
  build_pay.doubles() = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Batch build = WithColumns(
      {std::move(build_int), std::move(build_str), std::move(build_pay)});

  // Probe side: one dict-B batch and one dict-A batch; keys are
  // (string, int) in the opposite column order of the build side.
  for (auto& [dict, codes] :
       std::vector<std::pair<std::shared_ptr<const StringDict>,
                             std::vector<uint32_t>>>{
           {dict_b, {0, 1, 2, 3, 2, 0, 3}}, {dict_a, {2, 1, 0, 0, 1}}}) {
    ColumnVector probe_int(TypeId::kInt64);
    for (size_t i = 0; i < codes.size(); ++i) {
      probe_int.ints().push_back(1 + static_cast<int64_t>(i % 2));
    }
    Batch probe =
        WithColumns({DictColumn(dict, codes), std::move(probe_int)});
    for (size_t p : {size_t{1}, size_t{4}}) {
      PartitionedJoinTable table = BuildTable(build, {0, 1}, p);
      for (JoinKind kind :
           {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
        auto got = ProbeAll(table, probe, {1, 0}, kind, 3);
        auto want = NestedLoopJoin(probe, {1, 0}, build, {0, 1}, kind);
        if (p > 1) {
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
        }
        EXPECT_EQ(got, want) << "partitions " << p << " kind "
                             << static_cast<int>(kind);
      }
    }
  }
}

TEST(JoinTableTest, DistinctKeysSharingABucketStayApart) {
  // Eight keys whose hashes agree in the low 3 bits (the bucket index of
  // an 8-row build) but differ in the full hash: one chain holds them
  // all, and each probe key must still match only its own row.
  constexpr size_t kRows = 8;
  std::vector<int64_t> keys, misses;
  for (int64_t v = 0; keys.size() < kRows || misses.size() < kRows; ++v) {
    if ((Int64KeyHash(v) & (kRows - 1)) != 0) continue;
    (keys.size() < kRows ? keys : misses).push_back(v);
  }
  std::vector<int64_t> payload(kRows);
  for (size_t i = 0; i < kRows; ++i) payload[i] = static_cast<int64_t>(i);
  Batch build = MakeBatch({keys, payload});
  PartitionedJoinTable table = BuildTable(build, {0});
  const JoinTable& part = table.parts[0];
  ASSERT_EQ(part.heads.size(), kRows);
  EXPECT_EQ(std::count(part.heads.begin(), part.heads.end(), 0u),
            static_cast<long>(kRows - 1));
  std::vector<uint64_t> sorted_hashes = part.hashes;
  std::sort(sorted_hashes.begin(), sorted_hashes.end());
  EXPECT_EQ(std::adjacent_find(sorted_hashes.begin(), sorted_hashes.end()),
            sorted_hashes.end());

  std::vector<int64_t> probe_keys = misses;
  probe_keys.insert(probe_keys.end(), keys.rbegin(), keys.rend());
  Batch probe = MakeBatch({probe_keys});
  for (JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    auto got = ProbeAll(table, probe, {0}, kind);
    EXPECT_EQ(got, NestedLoopJoin(probe, {0}, build, {0}, kind));
    EXPECT_EQ(got.size(), kRows);
  }
}

TEST(JoinTableTest, EmptyBuildSide) {
  Batch probe = MakeBatch({{1, 2, 3}});
  // Column-less (an exhausted build source) and zero-row-with-columns.
  for (Batch build : {Batch{}, MakeBatch({{}, {}})}) {
    for (size_t p : {size_t{1}, size_t{4}}) {
      if (build.num_columns() == 0 && p > 1) continue;
      PartitionedJoinTable table = BuildTable(build, {0}, p);
      EXPECT_EQ(table.TotalRows(), 0u);
      EXPECT_TRUE(ProbeAll(table, probe, {0}, JoinKind::kInner).empty());
      EXPECT_TRUE(ProbeAll(table, probe, {0}, JoinKind::kLeftSemi).empty());
      EXPECT_EQ(ProbeAll(table, probe, {0}, JoinKind::kLeftAnti).size(), 3u);
    }
  }
}

TEST(JoinTableTest, SemiAndAntiEmitEachProbeRowAtMostOnce) {
  std::vector<int64_t> build_keys;
  for (int64_t r = 0; r < 200; ++r) build_keys.push_back(r % 5 * 2);
  Batch build = MakeBatch({build_keys});
  std::vector<int64_t> probe_keys;
  for (int64_t r = 0; r < 40; ++r) probe_keys.push_back(r % 12);
  Batch probe = MakeBatch({probe_keys});
  for (size_t p : {size_t{1}, size_t{4}}) {
    PartitionedJoinTable table = BuildTable(build, {0}, p);
    auto semi = ProbeAll(table, probe, {0}, JoinKind::kLeftSemi);
    auto anti = ProbeAll(table, probe, {0}, JoinKind::kLeftAnti);
    // Semi/anti keep probe order at any partition count.
    EXPECT_EQ(semi,
              NestedLoopJoin(probe, {0}, build, {0}, JoinKind::kLeftSemi));
    EXPECT_EQ(anti,
              NestedLoopJoin(probe, {0}, build, {0}, JoinKind::kLeftAnti));
    EXPECT_EQ(semi.size() + anti.size(), probe.num_rows());
  }
}

TEST(JoinTableTest, FourPartitionsMatchOnePartitionAsMultiset) {
  std::vector<int64_t> build_keys, payload;
  for (int64_t r = 0; r < 1000; ++r) {
    build_keys.push_back((r * 37) % 400);
    payload.push_back(r);
  }
  Batch build = MakeBatch({build_keys, payload});
  std::vector<int64_t> probe_keys;
  for (int64_t r = 0; r < 600; ++r) probe_keys.push_back((r * 11) % 500);
  Batch probe = MakeBatch({probe_keys});

  auto serial = ProbeAll(BuildTable(build, {0}, 1), probe, {0},
                         JoinKind::kInner, 64);
  EXPECT_EQ(serial, NestedLoopJoin(probe, {0}, build, {0}, JoinKind::kInner));
  PartitionedJoinTable four = BuildTable(build, {0}, 4);
  size_t nonempty = 0;
  for (const JoinTable& part : four.parts) nonempty += part.rows.num_rows() > 0;
  EXPECT_GT(nonempty, 1u);
  auto partitioned = ProbeAll(four, probe, {0}, JoinKind::kInner, 64);
  std::sort(serial.begin(), serial.end());
  std::sort(partitioned.begin(), partitioned.end());
  EXPECT_EQ(partitioned, serial);
}

TEST(JoinTableTest, VerifyRejectsAnEqualHashWithAnUnequalKey) {
  // Build row 1 (key 2) carries key 1's full hash, so it sits in key 1's
  // chain between two true matches and only the key verify keeps it out.
  // Key 2 itself is never probed: its own hash reaches no build row.
  Batch build = MakeBatch({{1, 2, 1, 3}, {10, 20, 30, 40}});
  const std::vector<uint64_t> hashes = {Int64KeyHash(1), Int64KeyHash(1),
                                        Int64KeyHash(1), Int64KeyHash(3)};
  PartitionedJoinTable table;
  table.parts.push_back(JoinTable::BuildWithHashes(build, {0}, hashes));
  Batch probe = MakeBatch({{1, 3, 5, 1}});
  for (size_t slice : {size_t{1}, size_t{7}}) {
    for (JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      EXPECT_EQ(ProbeAll(table, probe, {0}, kind, slice),
                NestedLoopJoin(probe, {0}, build, {0}, kind))
          << "slice " << slice << " kind " << static_cast<int>(kind);
    }
  }
  EXPECT_EQ(ProbeAll(table, probe, {0}, JoinKind::kInner).size(), 5u);
}

TEST(JoinTableTest, DoubleKeysMatchAsCompareAtSeesThem) {
  // -0.0 and 0.0 are one key (they hash alike and compare equal).
  Batch build = MakeBatch({{0, 1, 2, 3, 4}}, {{0.0, -0.0, 1.5, 2.0, -0.0}});
  Batch probe = MakeBatch({{0, 1, 2, 3, 4, 5}},
                          {{-0.0, 0.0, 1.5, 3.0, 2.0, -1.5}});
  PartitionedJoinTable table = BuildTable(build, {1});
  for (size_t slice : {size_t{1}, size_t{7}}) {
    for (JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      EXPECT_EQ(ProbeAll(table, probe, {1}, kind, slice),
                NestedLoopJoin(probe, {1}, build, {1}, kind));
    }
  }
  EXPECT_EQ(ProbeAll(table, probe, {1}, JoinKind::kInner).size(), 8u);

  // CompareAt finds a NaN equal to every double. Every build row here
  // carries the NaN's hash, so each probe NaN reaches every build row,
  // and the verify must accept all of them, as the nested loop does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Batch nan_build = MakeBatch({{0, 1, 2, 3}}, {{nan, 1.0, -0.0, nan}});
  uint64_t nan_hash = kHashSeed;
  ColumnVector one_nan(TypeId::kDouble);
  one_nan.doubles() = {nan};
  one_nan.HashColumn(&nan_hash);
  PartitionedJoinTable nan_table;
  nan_table.parts.push_back(JoinTable::BuildWithHashes(
      nan_build, {1}, std::vector<uint64_t>(4, nan_hash)));
  Batch nan_probe = MakeBatch({{7, 8}}, {{nan, nan}});
  for (JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    EXPECT_EQ(ProbeAll(nan_table, nan_probe, {1}, kind),
              NestedLoopJoin(nan_probe, {1}, nan_build, {1}, kind));
  }
  EXPECT_EQ(ProbeAll(nan_table, nan_probe, {1}, JoinKind::kInner).size(), 8u);
}

TEST(JoinTableTest, MatchesAtChainDepthsOneToFourAtEverySlice) {
  // Key k has k % 4 + 1 build rows, added round by round, so a key's
  // duplicates are spread over the build and its matches sit at chain
  // depths 1 to 4. Probe keys 100..159 miss; hits of every depth are
  // interleaved with rows whose chains end earlier.
  std::vector<int64_t> build_keys, payload;
  for (int64_t depth = 0; depth < 4; ++depth) {
    for (int64_t k = 0; k < 100; ++k) {
      if (k % 4 < depth) continue;
      build_keys.push_back(k);
      payload.push_back(static_cast<int64_t>(payload.size()));
    }
  }
  Batch build = MakeBatch({build_keys, payload});
  std::vector<int64_t> probe_keys;
  for (int64_t r = 0; r < 3000; ++r) probe_keys.push_back((r * 37) % 160);
  Batch probe = MakeBatch({probe_keys});
  PartitionedJoinTable table = BuildTable(build, {0});
  for (size_t slice : {size_t{1}, size_t{7}, kDefaultBatchSize}) {
    for (JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      EXPECT_EQ(ProbeAll(table, probe, {0}, kind, slice),
                NestedLoopJoin(probe, {0}, build, {0}, kind))
          << "slice " << slice << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(JoinTableTest, SemiAndAntiFindAMatchBehindSameBucketMisses) {
  // Nine keys whose hashes share the low 3 bits: an 8-row build puts
  // every row in one chain, in build order. Probed keys v2, v4 and v5
  // have one build row each, behind 3, 6 and 7 rows of other keys.
  std::vector<int64_t> v;
  for (int64_t x = 0; v.size() < 9; ++x) {
    if ((Int64KeyHash(x) & 7) == 0) v.push_back(x);
  }
  Batch build =
      MakeBatch({{v[0], v[1], v[0], v[2], v[3], v[1], v[4], v[5]}});
  PartitionedJoinTable table = BuildTable(build, {0});
  ASSERT_EQ(table.parts[0].heads.size(), 8u);
  EXPECT_EQ(std::count(table.parts[0].heads.begin(),
                       table.parts[0].heads.end(), 0u),
            7);
  Batch probe = MakeBatch({{v[2], v[6], v[4], v[7], v[5], v[8], v[1]}});
  for (size_t slice : {size_t{1}, size_t{7}}) {
    for (JoinKind kind :
         {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      EXPECT_EQ(ProbeAll(table, probe, {0}, kind, slice),
                NestedLoopJoin(probe, {0}, build, {0}, kind))
          << "slice " << slice << " kind " << static_cast<int>(kind);
    }
  }
  EXPECT_EQ(ProbeAll(table, probe, {0}, JoinKind::kLeftSemi).size(), 4u);
}

TEST(JoinTableTest, FourPartitionsWithEmptyPartitions) {
  // Build keys route to partitions 0 and 2 only (with duplicates);
  // probe keys route to all four, so half the probe rows meet an empty
  // partition.
  constexpr size_t kParts = 4;
  std::vector<int64_t> build_keys, payload, probe_keys;
  for (int64_t x = 0; probe_keys.size() < 400; ++x) {
    const size_t p = JoinPartitionOf(Int64KeyHash(x), kParts);
    probe_keys.push_back(x);
    if ((p == 0 || p == 2) && x % 3 != 0) {
      for (int64_t d = 0; d <= x % 3; ++d) {
        build_keys.push_back(x);
        payload.push_back(static_cast<int64_t>(payload.size()));
      }
    }
  }
  std::reverse(probe_keys.begin(), probe_keys.end());
  Batch build = MakeBatch({build_keys, payload});
  Batch probe = MakeBatch({probe_keys});
  PartitionedJoinTable table = BuildTable(build, {0}, kParts);
  ASSERT_EQ(table.num_partitions(), kParts);
  EXPECT_EQ(table.parts[1].rows.num_rows(), 0u);
  EXPECT_EQ(table.parts[3].rows.num_rows(), 0u);
  EXPECT_GT(table.parts[0].rows.num_rows(), 0u);
  EXPECT_GT(table.parts[2].rows.num_rows(), 0u);
  for (size_t slice : {size_t{1}, size_t{7}, kDefaultBatchSize}) {
    // Each probe batch's inner output is grouped by partition, and in
    // (probe row, build row) order within a group.
    std::vector<Tuple> want;
    for (size_t off = 0; off < probe_keys.size(); off += slice) {
      const size_t end = std::min(probe_keys.size(), off + slice);
      const Batch batch = MakeBatch(
          {{probe_keys.begin() + static_cast<ptrdiff_t>(off),
            probe_keys.begin() + static_cast<ptrdiff_t>(end)}});
      const std::vector<Tuple> matches =
          NestedLoopJoin(batch, {0}, build, {0}, JoinKind::kInner);
      for (size_t p = 0; p < kParts; ++p) {
        for (const Tuple& t : matches) {
          if (JoinPartitionOf(Int64KeyHash(t[0].AsInt64()), kParts) == p) {
            want.push_back(t);
          }
        }
      }
    }
    EXPECT_EQ(ProbeAll(table, probe, {0}, JoinKind::kInner, slice), want)
        << "slice " << slice;
    for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
      EXPECT_EQ(ProbeAll(table, probe, {0}, kind, slice),
                NestedLoopJoin(probe, {0}, build, {0}, kind))
          << "slice " << slice << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(SortTest, MultiKeyAndLimit) {
  auto src = std::make_unique<VectorSource>(MakeBatch(
      {{2, 1, 2, 1}}, {{5.0, 6.0, 7.0, 8.0}}));
  SortNode sorter(std::move(src), {{0, false}, {1, true}});
  auto rows = Drain(&sorter);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], Value(1));
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 8.0);
  EXPECT_EQ(rows[3][0], Value(2));
  EXPECT_DOUBLE_EQ(rows[3][1].AsDouble(), 5.0);

  auto src2 = std::make_unique<VectorSource>(MakeBatch({{3, 1, 2}}));
  SortNode topk(std::move(src2), {{0, false}}, 2);
  auto top_rows = Drain(&topk);
  ASSERT_EQ(top_rows.size(), 2u);
  EXPECT_EQ(top_rows[0][0], Value(1));
  EXPECT_EQ(top_rows[1][0], Value(2));
}

TEST(PipelineTest, FilterAggSortCompose) {
  auto src = std::make_unique<VectorSource>(MakeBatch(
      {{1, 1, 2, 2, 3, 3}}, {{1.0, 2.0, 3.0, 4.0, 5.0, 100.0}}));
  auto filter = std::make_unique<FilterNode>(
      std::move(src), DoubleInRange(1, 0.0, 50.0));
  auto agg = std::make_unique<HashAggNode>(
      std::move(filter), std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kSum, 1}});
  SortNode sorter(std::move(agg), {{1, true}});
  auto rows = Drain(&sorter);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value(2));  // sum 7
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 7.0);
  EXPECT_EQ(rows[2][0], Value(1));  // sum 3
}

TEST(MaterializeAllTest, ConcatenatesBatches) {
  VectorSource src(MakeBatch({{1, 2, 3, 4, 5}}));
  auto all = MaterializeAll(&src, 2);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 5u);
}

}  // namespace
}  // namespace pdtstore
