// Tests of the updatable-table facade: SK-addressed updates, positional
// updates, range scans through the sparse index, checkpointing, and a
// randomized equivalence property between the PDT and VDT backends and
// the transactional update path (same logical updates => identical
// merged images).
#include "db/table.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "txn/txn_manager.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::AllColumns;
using testutil::InventoryRows;
using testutil::InventorySchema;

std::vector<Tuple> ScanAll(const Table& table,
                           std::vector<ColumnId> projection = {},
                           const KeyBounds* bounds = nullptr) {
  if (projection.empty()) projection = AllColumns(table.schema());
  auto src = table.Scan(projection, bounds);
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

class TableBackendTest : public ::testing::TestWithParam<DeltaBackend> {
 protected:
  void SetUp() override {
    schema_ = InventorySchema();
    TableOptions opts;
    opts.backend = GetParam();
    table_ = std::make_unique<Table>("inventory", schema_, opts);
    ASSERT_TRUE(table_->Load(InventoryRows()).ok());
  }
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<Table> table_;
};

TEST_P(TableBackendTest, InsertDeleteModifyByKey) {
  ASSERT_TRUE(table_->Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(table_->Insert({"Berlin", "cloth", "Y", 5}).ok());
  EXPECT_EQ(table_->RowCount(), 7u);
  // Duplicate key rejected.
  EXPECT_EQ(table_->Insert({"Berlin", "cloth", "Y", 9}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(
      table_->DeleteByKey({Value("Paris"), Value("rug")}).ok());
  ASSERT_TRUE(
      table_->ModifyByKey({Value("London"), Value("stool")}, 3, Value(9))
          .ok());
  EXPECT_EQ(table_->RowCount(), 6u);

  std::vector<Tuple> expected = {
      {"Berlin", "cloth", "Y", 5},  {"Berlin", "table", "Y", 10},
      {"London", "chair", "N", 30}, {"London", "stool", "N", 9},
      {"London", "table", "N", 20}, {"Paris", "stool", "N", 5},
  };
  EXPECT_EQ(ScanAll(*table_), expected);
}

TEST_P(TableBackendTest, DeleteNonexistentKeyFails) {
  EXPECT_EQ(table_->DeleteByKey({Value("Oslo"), Value("bench")}).code(),
            StatusCode::kNotFound);
}

TEST_P(TableBackendTest, ModifyOfMissingColumnFails) {
  EXPECT_EQ(table_->ModifyByKey({Value("Paris"), Value("rug")}, 99, Value(1))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScanAll(*table_), InventoryRows());
}

TEST_P(TableBackendTest, SortKeyModifyMovesTuple) {
  // Changing a key column is delete + insert: the tuple moves.
  ASSERT_TRUE(
      table_->ModifyByKey({Value("Paris"), Value("rug")}, 0, Value("Aix"))
          .ok());
  auto rows = ScanAll(*table_);
  EXPECT_EQ(rows.front()[0], Value("Aix"));
  EXPECT_EQ(rows.front()[1], Value("rug"));
  EXPECT_EQ(table_->RowCount(), 5u);
}

TEST_P(TableBackendTest, SortKeyModifyOntoTakenKeyChangesNothing) {
  // (London, chair) -> (London, stool) collides with a stable row, and
  // (London, chair) -> (Berlin, ...) with an inserted one: both fail
  // before the delete half of the delete + insert runs.
  ASSERT_TRUE(table_->Insert({"Berlin", "chair", "Y", 1}).ok());
  auto before = ScanAll(*table_);
  std::vector<Value> chair = {Value("London"), Value("chair")};
  EXPECT_EQ(table_->ModifyByKey(chair, 1, Value("stool")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table_->ModifyByKey(chair, 0, Value("Berlin")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table_->RowCount(), 6u);
  EXPECT_EQ(ScanAll(*table_), before);
  // Re-setting a key column to its own value is legal and a no-op.
  ASSERT_TRUE(table_->ModifyByKey(chair, 1, Value("chair")).ok());
  EXPECT_EQ(table_->RowCount(), 6u);
  EXPECT_EQ(ScanAll(*table_), before);
}

TEST_P(TableBackendTest, RangeScanThroughSparseIndex) {
  ASSERT_TRUE(table_->Insert({"London", "rack", "Y", 4}).ok());
  KeyBounds bounds;
  bounds.lo = {Value("London")};
  bounds.hi = {Value("London")};
  auto rows = ScanAll(*table_, {}, &bounds);
  // Superset semantics allowed; every London tuple must be present.
  int london = 0;
  for (const auto& t : rows) {
    if (t[0].AsString() == "London") ++london;
  }
  EXPECT_EQ(london, 4);
}

TEST_P(TableBackendTest, CheckpointPreservesImageAndResetsDelta) {
  ASSERT_TRUE(table_->Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(table_->DeleteByKey({Value("Paris"), Value("rug")}).ok());
  ASSERT_TRUE(
      table_->ModifyByKey({Value("London"), Value("stool")}, 3, Value(9))
          .ok());
  auto before = ScanAll(*table_);
  ASSERT_TRUE(table_->Checkpoint().ok());
  EXPECT_EQ(ScanAll(*table_), before);
  EXPECT_EQ(table_->DeltaMemoryBytes() == 0 || table_->pdt() != nullptr,
            true);
  if (table_->pdt()) EXPECT_TRUE(table_->pdt()->Empty());
  if (table_->vdt()) EXPECT_TRUE(table_->vdt()->Empty());
  EXPECT_EQ(table_->store().num_rows(), before.size());
  // Updates continue to work on the fresh image.
  ASSERT_TRUE(table_->Insert({"Aix", "mat", "Y", 7}).ok());
  EXPECT_EQ(ScanAll(*table_).front()[0], Value("Aix"));
}

INSTANTIATE_TEST_SUITE_P(Backends, TableBackendTest,
                         ::testing::Values(DeltaBackend::kPdt,
                                           DeltaBackend::kVdt),
                         [](const auto& info) {
                           return info.param == DeltaBackend::kPdt ? "Pdt"
                                                                   : "Vdt";
                         });

TEST(TableBoundedScanTest, BoundsMissingEveryChunkReadOnlyTheirInserts) {
  // Bounds above the max, or in the key gap between two chunks, qualify
  // no chunk: the scan reads none of them, yet still returns the insert
  // whose key lies in the bounds.
  auto schema = std::make_shared<const Schema>(
      std::move(*Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}},
                              {0})));
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i * 10, i});
  for (DeltaBackend backend : {DeltaBackend::kPdt, DeltaBackend::kVdt}) {
    TableOptions opts;
    opts.backend = backend;
    opts.store.chunk_rows = 10;  // chunk c holds keys 100c..100c+90
    Table table("t", schema, opts);
    ASSERT_TRUE(table.Load(rows).ok());
    const Tuple gap = {int64_t{95}, int64_t{-1}};     // chunks 0 and 1
    const Tuple above = {int64_t{5000}, int64_t{-2}};  // past key 990
    ASSERT_TRUE(table.Insert(gap).ok());
    ASSERT_TRUE(table.Insert(above).ok());
    const std::vector<ColumnId> projection = {0, 1};
    BufferPool* pool = table.buffer_pool();
    for (const Tuple& want : {gap, above}) {
      const int64_t k = want[0].AsInt64();
      const KeyBounds bounds{{Value(k - 3)}, {Value(k + 3)}};
      for (int threads : {1, 2}) {
        pool->EvictAll();
        pool->ResetStats();
        ScanOptions so;
        so.num_threads = threads;
        auto got = CollectRows(table.Scan(projection, &bounds, so).get());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, std::vector<Tuple>{want})
            << "key " << k << ", " << threads << " thread(s)";
        const IoStats st = pool->stats();
        EXPECT_EQ(st.chunks_skipped,
                  table.store().num_chunks() * projection.size())
            << "key " << k << ", " << threads << " thread(s)";
        EXPECT_EQ(st.chunks_read, 0u)
            << "key " << k << ", " << threads << " thread(s)";
      }
    }
  }
}

TEST(TxnDriverClaimTest, ExclusiveClaimAndRelease) {
  auto schema = InventorySchema();
  Table table("inv", schema, {});
  ASSERT_TRUE(table.Load(InventoryRows()).ok());
  EXPECT_TRUE(table.AcquireTxnDriver());
  EXPECT_FALSE(table.AcquireTxnDriver());  // second driver refused
  table.ReleaseTxnDriver();
  EXPECT_TRUE(table.AcquireTxnDriver());  // claimable again after release
  table.ReleaseTxnDriver();
}

TEST(PdtReplacementTest, OpenScanKeepsItsPinnedSnapshot) {
  auto schema = InventorySchema();
  Table table("inv", schema, {});
  ASSERT_TRUE(table.Load(InventoryRows()).ok());
  ASSERT_TRUE(table.Insert({"Berlin", "table", "Y", 10}).ok());
  // Open a scan, then swap in a fresh empty Read-PDT underneath it —
  // what a Write->Read fold does via ReplacePdt. The
  // open scan pinned the pre-replacement layer and must keep seeing it.
  auto src = table.Scan(AllColumns(table.schema()));
  table.ReplacePdt(std::make_shared<Pdt>(schema));
  auto rows = CollectRows(src.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 6u);  // 5 stable + the pinned layer's insert
  // A new scan resolves against the replaced (empty) delta.
  EXPECT_EQ(ScanAll(table).size(), 5u);
}

TEST(TablePositionalTest, DeleteAtAndModifyAt) {
  auto schema = InventorySchema();
  Table table("inv", schema, {});
  ASSERT_TRUE(table.Load(InventoryRows()).ok());
  ASSERT_TRUE(table.ModifyAt(0, 3, Value(31)).ok());
  ASSERT_TRUE(table.DeleteAt(3).ok());  // (Paris,rug)
  std::vector<Tuple> expected = {
      {"London", "chair", "N", 31},
      {"London", "stool", "N", 10},
      {"London", "table", "N", 20},
      {"Paris", "stool", "N", 5},
  };
  EXPECT_EQ(ScanAll(table), expected);
  EXPECT_EQ(table.DeleteAt(99).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.ModifyAt(99, 3, Value(1)).code(), StatusCode::kOutOfRange);
}

TEST(TableMergedAccessTest, GetMergedTupleAndFind) {
  auto schema = InventorySchema();
  Table table("inv", schema, {});
  ASSERT_TRUE(table.Load(InventoryRows()).ok());
  ASSERT_TRUE(table.Insert({"Berlin", "table", "Y", 10}).ok());
  auto t0 = table.GetMergedTuple(0);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ((*t0)[0], Value("Berlin"));
  auto rid = table.FindRidByKey({Value("Paris"), Value("stool")});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*rid, 5u);
  EXPECT_EQ(
      table.FindRidByKey({Value("Oslo"), Value("x")}).status().code(),
      StatusCode::kNotFound);
}

// The central cross-check: both backends, and the transactional update
// path, must produce identical merged images and identical statuses
// under any stream of logical updates — SK-column modifies (which run as
// delete + insert, and may collide) included.
class BackendEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<Tuple> TxnScanAll(TxnManager* mgr, const Schema& schema) {
  auto txn = mgr->Begin();
  auto rows = CollectRows(txn->Scan(AllColumns(schema)).get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

TEST_P(BackendEquivalenceTest, AllUpdatePathsAgree) {
  auto schema = InventorySchema();
  Random rng(GetParam());
  std::vector<Tuple> base;
  for (int i = 0; i < 300; ++i) {
    base.push_back({"S" + std::to_string(1000 + i),
                    "p" + std::to_string(rng.UniformRange(100, 999)) +
                        std::to_string(i),
                    rng.Bernoulli(0.5) ? "Y" : "N",
                    rng.UniformRange(0, 999)});
  }
  std::sort(base.begin(), base.end(), [&](const Tuple& a, const Tuple& b) {
    return schema->CompareSortKey(a, b) < 0;
  });
  TableOptions pdt_opts, vdt_opts;
  pdt_opts.backend = DeltaBackend::kPdt;
  pdt_opts.store.chunk_rows = 128;
  vdt_opts.backend = DeltaBackend::kVdt;
  vdt_opts.store.chunk_rows = 128;
  Table pdt_table("t", schema, pdt_opts);
  Table vdt_table("t", schema, vdt_opts);
  Table txn_table("t", schema, pdt_opts);
  ASSERT_TRUE(pdt_table.Load(base).ok());
  ASSERT_TRUE(vdt_table.Load(base).ok());
  ASSERT_TRUE(txn_table.Load(base).ok());
  TxnManager mgr(&txn_table);

  // Runs one op on all three paths — the transactional one as its own
  // autocommit, committed even when the op failed (a failed statement
  // must leave nothing behind) — and returns the common status code.
  auto apply = [&](const auto& op) {
    Status s1 = op(&pdt_table);
    Status s2 = op(&vdt_table);
    auto txn = mgr.Begin();
    Status s3 = op(txn.get());
    EXPECT_TRUE(txn->Commit().ok());
    EXPECT_EQ(s1.code(), s2.code()) << s1.ToString() << " / " << s2.ToString();
    EXPECT_EQ(s1.code(), s3.code()) << s1.ToString() << " / " << s3.ToString();
    return s1.code();
  };

  // Track live keys for update targeting. Half the inserts reuse a live
  // col-0 value with a col-1 value from a small domain, so live keys
  // often share one key column.
  std::vector<std::vector<Value>> keys;
  for (const auto& t : base) keys.push_back(schema->ExtractSortKey(t));
  auto small_name = [&] { return Value("q" + std::to_string(rng.Uniform(8))); };

  for (int op = 0; op < 400; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.35 || keys.empty()) {
      Value city = keys.empty() || rng.Bernoulli(0.5)
                       ? Value("S" + std::to_string(rng.UniformRange(0, 2999)))
                       : keys[rng.Uniform(keys.size())][0];
      Tuple t = {city, small_name(), "Y", rng.UniformRange(0, 999)};
      StatusCode c = apply([&](auto* target) { return target->Insert(t); });
      if (c == StatusCode::kOk) keys.push_back(schema->ExtractSortKey(t));
    } else if (dice < 0.55) {
      size_t k = rng.Uniform(keys.size());
      apply([&](auto* target) { return target->DeleteByKey(keys[k]); });
      keys.erase(keys.begin() + k);
    } else {
      size_t k = rng.Uniform(keys.size());
      ColumnId col = static_cast<ColumnId>(rng.Uniform(4));
      Value v;
      if (col < 2 && rng.Bernoulli(0.5)) {
        // Copy the column from a live key sharing the other key column:
        // a collision, or a same-value modify when that key is keys[k].
        std::vector<size_t> peers;
        for (size_t i = 0; i < keys.size(); ++i) {
          if (keys[i][1 - col] == keys[k][1 - col]) peers.push_back(i);
        }
        v = keys[peers[rng.Uniform(peers.size())]][col];
      } else {
        v = col == 0   ? Value("S" + std::to_string(rng.UniformRange(0, 2999)))
            : col == 1 ? small_name()
            : col == 2 ? Value(rng.NextString(1))
                       : Value(rng.UniformRange(0, 999));
      }
      StatusCode c = apply([&](auto* target) {
        return target->ModifyByKey(keys[k], col, v);
      });
      if (c == StatusCode::kOk && col < 2) keys[k][col] = v;
    }
    if (op % 100 == 99) {
      ASSERT_EQ(ScanAll(pdt_table), ScanAll(vdt_table)) << "op " << op;
      ASSERT_EQ(ScanAll(pdt_table), TxnScanAll(&mgr, *schema)) << "op " << op;
    }
  }
  EXPECT_EQ(ScanAll(pdt_table), ScanAll(vdt_table));
  EXPECT_EQ(ScanAll(pdt_table), TxnScanAll(&mgr, *schema));
  EXPECT_EQ(pdt_table.RowCount(), vdt_table.RowCount());
  EXPECT_EQ(pdt_table.RowCount(), mgr.Begin()->RowCount());
  EXPECT_EQ(pdt_table.RowCount(), ScanAll(pdt_table).size());
  EXPECT_EQ(vdt_table.RowCount(), ScanAll(vdt_table).size());
  // Projections without key columns agree too.
  EXPECT_EQ(ScanAll(pdt_table, {2, 3}), ScanAll(vdt_table, {2, 3}));
  // And both survive a checkpoint.
  ASSERT_TRUE(pdt_table.Checkpoint().ok());
  ASSERT_TRUE(vdt_table.Checkpoint().ok());
  EXPECT_EQ(ScanAll(pdt_table), ScanAll(vdt_table));
  EXPECT_EQ(ScanAll(pdt_table), TxnScanAll(&mgr, *schema));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace pdtstore
