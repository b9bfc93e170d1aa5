// Parallel pipeline equivalence: operator fragments (filter, project,
// join probe) and breaker sinks (partial aggregation, join build)
// running inside the morsel workers must produce the same results as the
// serial operator tree — identical multisets at any thread count —
// across hostile PDT delta states, 3-layer transaction snapshots, and
// concurrent queries sharing the process-wide pool.
//
// Aggregates here run over integer values, so double accumulators are
// exact and order-independent: comparisons are exact, not tolerance-based.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "db/table.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/pipeline.h"
#include "test_util.h"
#include "txn/txn_manager.h"
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

// Builds a PDT-backed table with `n` rows in small chunks (many morsel
// boundaries) and applies `ops` random mixed updates.
std::unique_ptr<Table> BuildUpdatedTable(int n, int ops, uint64_t seed) {
  TableOptions opts;
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

void SortRows(std::vector<Tuple>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
}

std::vector<Tuple> Collect(std::unique_ptr<BatchSource> src) {
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

ScanOptions PipeOpts(int threads, size_t morsel_rows = 64) {
  ScanOptions so;
  so.num_threads = threads;
  so.morsel_rows = morsel_rows;
  return so;
}

// Keeps every row whose payload (column 1) is even.
VecPredicate EvenPayload() {
  return [](const Batch& b, KeepBitmap* keep) {
    const int64_t* v = b.column(1).ints_data();
    keep->FillFrom([&](size_t i) { return v[i] % 2 == 0; });
  };
}

// key mod 7 as the group column, payload passthrough.
std::vector<ColumnExpr> GroupExprs() {
  return {[](const Batch& b) {
            ColumnVector out(TypeId::kInt64);
            const int64_t* k = b.column(0).ints_data();
            out.ints().resize(b.num_rows());
            for (size_t i = 0; i < b.num_rows(); ++i) {
              out.ints()[i] = k[i] % 7;
            }
            return out;
          },
          ColumnRef(1)};
}

std::vector<AggSpec> AllAggKinds() {
  return {{AggKind::kSum, 1},
          {AggKind::kCount, 0},
          {AggKind::kMin, 1},
          {AggKind::kMax, 1},
          {AggKind::kAvg, 1}};
}

TEST(AutoMorselRowsTest, ClampsAlignsAndShrinksWithDensity) {
  // No delta, huge table: the 64K default, a chunk multiple.
  size_t base = AutoMorselRows(16384, 100'000'000, 0, 4);
  EXPECT_EQ(base, kDefaultMorselRows);
  EXPECT_EQ(base % 16384, 0u);
  // Small table: fine enough for ~4 morsels per worker.
  size_t balanced = AutoMorselRows(64, 100'000, 0, 4);
  EXPECT_LE(balanced, 100'000u / 16 + 64);
  EXPECT_GE(balanced, 64u);
  // Dense delta shrinks morsels; never below one chunk.
  size_t dense = AutoMorselRows(64, 100'000'000, 50'000'000, 4);
  EXPECT_LT(dense, base);
  EXPECT_GE(dense, 64u);
  size_t degenerate = AutoMorselRows(4096, 1000, 1'000'000, 4);
  EXPECT_EQ(degenerate, 4096u);  // floor: one chunk
  // Zero chunk size falls back to the default granularity.
  EXPECT_EQ(AutoMorselRows(0, 10'000'000'000ull, 0, 1), kDefaultMorselRows);
}

TEST(PipelineTest, FilterProjectAggMatchesSerialAcrossThreadCounts) {
  auto table = BuildUpdatedTable(2000, 800, 17);
  auto cols = AllColumns(table->schema());
  // Serial reference: FilterNode -> ProjectNode -> HashAggNode.
  auto serial = Collect(std::make_unique<HashAggNode>(
      std::make_unique<ProjectNode>(
          std::make_unique<FilterNode>(table->Scan(cols), EvenPayload()),
          GroupExprs()),
      std::vector<size_t>{0}, AllAggKinds()));
  SortRows(&serial);
  ASSERT_FALSE(serial.empty());
  for (int threads : {1, 2, 4, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Filter(EvenPayload()).Project(GroupExprs());
    auto rows = Collect(
        std::move(pipe).Aggregate({0}, AllAggKinds()));
    SortRows(&rows);
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

// Emits stored batches unchanged, one per pull (copies keep borrows).
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

std::vector<Batch> ScanBatches(Table* table) {
  std::vector<Batch> batches;
  auto scan = table->Scan(AllColumns(table->schema()));
  Batch b;
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    batches.push_back(b);
  }
  return batches;
}

// Two refs of column 1, one of column 0, and a computed column over
// column 0 placed after the refs that move it.
std::vector<ColumnExpr> RefHeavyExprs() {
  return {ColumnRef(1), ColumnRef(0), GroupExprs()[0], ColumnRef(1)};
}

TEST(PipelineTest, ProjectRefKeepsBorrowedScanColumns) {
  // A clean table scans as zero-copy borrows of the chunk storage; a
  // projection that passes the column through must not copy it.
  auto table = BuildUpdatedTable(500, 0, 23);
  std::vector<Batch> raw = ScanBatches(table.get());
  ASSERT_FALSE(raw.empty());
  ASSERT_TRUE(raw[0].column(0).is_borrowed());
  ProjectNode proj(table->Scan(AllColumns(table->schema())),
                   RefHeavyExprs());
  Batch out;
  size_t pulled = 0;
  while (true) {
    auto more = proj.Next(&out, kDefaultBatchSize);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_LT(pulled, raw.size());
    const Batch& in = raw[pulled++];
    ASSERT_EQ(out.num_rows(), in.num_rows());
    // Column 1's last reference (output 3) moves the borrow through; its
    // earlier one (output 0) copies the view, which still borrows.
    EXPECT_TRUE(out.column(0).is_borrowed());
    EXPECT_TRUE(out.column(1).is_borrowed());
    EXPECT_TRUE(out.column(3).is_borrowed());
    for (size_t i = 0; i < in.num_rows(); ++i) {
      EXPECT_EQ(out.column(0).ints_data()[i], in.column(1).ints_data()[i]);
      EXPECT_EQ(out.column(1).ints_data()[i], in.column(0).ints_data()[i]);
      EXPECT_EQ(out.column(2).ints_data()[i],
                in.column(0).ints_data()[i] % 7);
      EXPECT_EQ(out.column(3).ints_data()[i], in.column(1).ints_data()[i]);
    }
  }
  EXPECT_EQ(pulled, raw.size());
}

TEST(PipelineTest, ProjectNodeAndPipelineProjectGiveIdenticalBatches) {
  // Updated tables scan as a mix of borrowed and owned columns. The
  // serial node and the pipeline op share ProjectBatch; fed the same
  // batches in the same order, they must emit the same batches: layout,
  // ids, start rid, borrowedness and values.
  auto table = BuildUpdatedTable(2000, 300, 29);
  std::vector<Batch> raw = ScanBatches(table.get());
  ASSERT_GT(raw.size(), 1u);
  ProjectNode node(std::make_unique<BatchListSource>(raw), RefHeavyExprs());
  auto op = MakeProjectOp(RefHeavyExprs());
  ASSERT_TRUE(op->Prepare().ok());
  auto state = op->MakeState();
  Batch serial;
  for (size_t n = 0; n < raw.size(); ++n) {
    auto more = node.Next(&serial, kDefaultBatchSize);
    ASSERT_TRUE(more.ok() && *more);
    Batch piped = raw[n];
    ASSERT_TRUE(op->Execute(&piped, state.get()).ok());
    ASSERT_EQ(piped.num_columns(), serial.num_columns());
    ASSERT_EQ(piped.num_rows(), serial.num_rows());
    EXPECT_EQ(piped.column_ids(), serial.column_ids());
    EXPECT_EQ(piped.start_rid(), serial.start_rid());
    for (size_t c = 0; c < piped.num_columns(); ++c) {
      EXPECT_EQ(piped.column(c).type(), serial.column(c).type());
      EXPECT_EQ(piped.column(c).is_borrowed(),
                serial.column(c).is_borrowed());
    }
    for (size_t i = 0; i < piped.num_rows(); ++i) {
      EXPECT_EQ(piped.RowAsTuple(i), serial.RowAsTuple(i)) << "row " << i;
    }
  }
  auto more = node.Next(&serial, kDefaultBatchSize);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(PipelineTest, GlobalAggregationIncludingEmptyInput) {
  auto table = BuildUpdatedTable(500, 200, 19);
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<HashAggNode>(
      std::make_unique<FilterNode>(table->Scan(cols), EvenPayload()),
      std::vector<size_t>{},
      std::vector<AggSpec>{{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
  ASSERT_EQ(serial.size(), 1u);
  for (int threads : {2, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Filter(EvenPayload());
    auto rows = Collect(std::move(pipe).Aggregate(
        {}, {{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
    EXPECT_EQ(rows, serial) << threads << " threads";

    // A predicate nothing survives: the parallel global aggregation must
    // still emit the single all-zero row the serial engine emits.
    Pipeline empty(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    empty.Filter([](const Batch& b, KeepBitmap* keep) {
      (void)b;
      (void)keep;  // arrives all-zero: keep nothing
    });
    auto zero = Collect(std::move(empty).Aggregate(
        {}, {{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
    ASSERT_EQ(zero.size(), 1u);
    EXPECT_EQ(zero[0], (Tuple{Value(0.0), Value(int64_t{0})}));
  }
}

TEST(PipelineTest, ExchangeFragmentMatchesMultiset) {
  auto table = BuildUpdatedTable(1500, 600, 27);
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<FilterNode>(table->Scan(cols),
                                                     EvenPayload()));
  SortRows(&serial);
  for (int threads : {2, 4, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Filter(EvenPayload());
    auto rows = Collect(std::move(pipe).Exchange());
    SortRows(&rows);
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

TEST(PipelineTest, BuildProbeJoinMatchesSerialAllKinds) {
  auto probe_table = BuildUpdatedTable(2000, 700, 31);
  auto build_table = BuildUpdatedTable(400, 300, 37);
  auto pcols = AllColumns(probe_table->schema());
  auto bcols = AllColumns(build_table->schema());
  // Join probe payload-mod against build payload-mod (plenty of matches
  // and duplicate build keys).
  auto mod_exprs = [] {
    return std::vector<ColumnExpr>{[](const Batch& b) {
                                     ColumnVector out(TypeId::kInt64);
                                     const int64_t* v = b.column(1).ints_data();
                                     out.ints().resize(b.num_rows());
                                     for (size_t i = 0; i < b.num_rows(); ++i) {
                                       out.ints()[i] = v[i] % 97;
                                     }
                                     return out;
                                   },
                                   ColumnRef(0)};
  };
  for (JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    auto serial = Collect(std::make_unique<HashJoinNode>(
        std::make_unique<ProjectNode>(probe_table->Scan(pcols), mod_exprs()),
        std::make_unique<ProjectNode>(
            std::make_unique<FilterNode>(build_table->Scan(bcols),
                                         EvenPayload()),
            mod_exprs()),
        std::vector<size_t>{0}, std::vector<size_t>{0}, kind));
    SortRows(&serial);
    for (int threads : {2, 4, 8}) {
      auto build_pipe = std::make_unique<Pipeline>(
          build_table->PlanMorsels(bcols, nullptr, PipeOpts(threads)));
      build_pipe->Filter(EvenPayload()).Project(mod_exprs());
      auto handle =
          Pipeline::IntoJoinBuild(std::move(build_pipe), {0});
      Pipeline probe_pipe(
          probe_table->PlanMorsels(pcols, nullptr, PipeOpts(threads)));
      probe_pipe.Project(mod_exprs()).Probe(handle, {0}, kind);
      auto rows = Collect(std::move(probe_pipe).Exchange());
      SortRows(&rows);
      EXPECT_EQ(rows, serial)
          << threads << " threads, kind " << static_cast<int>(kind);
    }
  }
}

TEST(PipelineTest, HostilePdtStatesFromStressPatterns) {
  // The pdt_stress patterns, through the Table API: ghost chains
  // spanning whole morsels, inserts into ghosts, modify churn.
  TableOptions topts;
  topts.store.chunk_rows = 64;
  auto table = std::make_unique<Table>("t", IntSchema(), topts);
  ASSERT_TRUE(table->Load(IntRows(600, 10)).ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(table->DeleteAt(100).ok());
  }
  for (int64_t k : {1005, 2501, 3999, 1001, 4995}) {
    ASSERT_TRUE(table->Insert({k, k}).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table->Insert({int64_t{6001 + i}, int64_t{i}}).ok());
    ASSERT_TRUE(table->ModifyAt(i % 100, 1, Value(int64_t{i})).ok());
  }
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<HashAggNode>(
      std::make_unique<FilterNode>(table->Scan(cols), EvenPayload()),
      std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
  SortRows(&serial);
  for (int threads : {2, 4, 8}) {
    Pipeline pipe(table->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Filter(EvenPayload());
    auto rows = Collect(std::move(pipe).Aggregate(
        {0}, {{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
    SortRows(&rows);
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
}

TEST(PipelineTest, TxnSnapshotStackFragmentsMatchSerial) {
  // Three-layer stack: Read-PDT (propagated commits), Write-PDT
  // snapshot and an uncommitted Trans-PDT, with fragments running on
  // worker threads over the immutable snapshot.
  TableOptions topts;
  topts.store.chunk_rows = 64;
  auto table = std::make_unique<Table>("t", IntSchema(), topts);
  ASSERT_TRUE(table->Load(IntRows(1000)).ok());
  TxnManager mgr(table.get());
  {
    auto setup = mgr.Begin();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(setup->Insert({int64_t{i * 100 + 7}, int64_t{i}}).ok());
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          setup->DeleteByKey({Value(static_cast<int64_t>(i) * 300)}).ok());
    }
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto txn = mgr.Begin();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(txn->Insert({int64_t{i * 100 + 13}, int64_t{i}}).ok());
    ASSERT_TRUE(
        txn->ModifyByKey({Value(static_cast<int64_t>(i + 200) * 100)}, 1,
                         Value(int64_t{-i}))
            .ok());
  }
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<HashAggNode>(
      std::make_unique<FilterNode>(txn->Scan(cols), EvenPayload()),
      std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
  SortRows(&serial);
  for (int threads : {2, 4, 8}) {
    Pipeline pipe(txn->PlanMorsels(cols, nullptr, PipeOpts(threads)));
    pipe.Filter(EvenPayload());
    auto rows = Collect(std::move(pipe).Aggregate(
        {0}, {{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
    SortRows(&rows);
    EXPECT_EQ(rows, serial) << threads << " threads";
  }
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(PipelineTest, ConcurrentQueriesShareProcessPool) {
  // Several queries run in parallel from distinct consumer threads, all
  // drawing workers from the shared pool; each must match the serial
  // reference regardless of pool contention (the consumer-help path
  // guarantees progress even when all pool workers are taken).
  auto table = BuildUpdatedTable(3000, 900, 43);
  auto cols = AllColumns(table->schema());
  auto serial = Collect(std::make_unique<HashAggNode>(
      std::make_unique<FilterNode>(table->Scan(cols), EvenPayload()),
      std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kSum, 1}, {AggKind::kCount, 0}}));
  SortRows(&serial);
  constexpr int kThreads = 4;
  constexpr int kIters = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> runners;
  for (int r = 0; r < kThreads; ++r) {
    runners.emplace_back([&, r] {
      for (int it = 0; it < kIters; ++it) {
        Pipeline pipe(table->PlanMorsels(
            cols, nullptr, PipeOpts(2 + (r + it) % 3)));
        pipe.Filter(EvenPayload());
        auto src = std::move(pipe).Aggregate(
            {0}, {{AggKind::kSum, 1}, {AggKind::kCount, 0}});
        auto rows = CollectRows(src.get());
        if (!rows.ok()) {
          ++mismatches;
          continue;
        }
        SortRows(&*rows);
        if (*rows != serial) ++mismatches;
      }
    });
  }
  for (auto& th : runners) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PipelineTest, AbandonedPipelineExchangeShutsDownCleanly) {
  auto table = BuildUpdatedTable(2000, 400, 53);
  Pipeline pipe(table->PlanMorsels(AllColumns(table->schema()), nullptr,
                                   PipeOpts(4)));
  pipe.Filter(EvenPayload());
  auto src = std::move(pipe).Exchange();
  Batch batch;
  auto more = src->Next(&batch, 128);  // start workers, pull one batch
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  src.reset();  // must abort + detach without deadlock or use-after-free
}

TEST(PipelineTest, SerialSingleThreadPlanIsServedSerially) {
  // num_threads == 1 must not build an exchange at all: the plan carries
  // the serial source and the fragment chain runs on the caller.
  auto table = BuildUpdatedTable(500, 200, 59);
  auto cols = AllColumns(table->schema());
  MorselPlan plan = table->PlanMorsels(cols, nullptr, PipeOpts(1));
  EXPECT_NE(plan.serial, nullptr);
  EXPECT_TRUE(plan.morsels.empty());
  Pipeline pipe(std::move(plan));
  pipe.Filter(EvenPayload());
  auto rows = Collect(std::move(pipe).Exchange());
  auto serial = Collect(std::make_unique<FilterNode>(table->Scan(cols),
                                                     EvenPayload()));
  EXPECT_EQ(rows, serial);  // exact sequence: same code path
}

}  // namespace
}  // namespace pdtstore
