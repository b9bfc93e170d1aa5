// Multi-table transaction tests: atomic visibility across tables,
// cross-table conflict aborts rolling back everything, TPC-H-style
// refresh (orders + lineitem together), and multi-table WAL recovery.
#include "txn/multi_txn.h"

#include <gtest/gtest.h>

#include "tpch/tpch_gen.h"
#include "tpch/update_stream.h"

namespace pdtstore {
namespace {

std::shared_ptr<const Schema> OrdersMiniSchema() {
  auto s = Schema::Make(
      {{"okey", TypeId::kInt64}, {"total", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::shared_ptr<const Schema> LinesMiniSchema() {
  auto s = Schema::Make({{"okey", TypeId::kInt64},
                         {"line", TypeId::kInt64},
                         {"qty", TypeId::kInt64}},
                        {0, 1});
  return std::make_shared<const Schema>(std::move(*s));
}

class MultiTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_ = std::make_unique<Table>("orders", OrdersMiniSchema(),
                                      TableOptions{});
    lines_ = std::make_unique<Table>("lines", LinesMiniSchema(),
                                     TableOptions{});
    ASSERT_TRUE(orders_->Load({{1, 10}, {2, 20}, {3, 30}}).ok());
    ASSERT_TRUE(lines_
                    ->Load({{1, 1, 5},
                            {1, 2, 5},
                            {2, 1, 20},
                            {3, 1, 15},
                            {3, 2, 15}})
                    .ok());
    mgr_ = std::make_unique<MultiTxnManager>(
        std::vector<Table*>{orders_.get(), lines_.get()}, &wal_);
  }

  uint64_t Rows(MultiTransaction& txn, const std::string& t) {
    auto n = txn.RowCount(t);
    EXPECT_TRUE(n.ok());
    return n.ok() ? *n : 0;
  }

  std::unique_ptr<Table> orders_, lines_;
  Wal wal_;
  std::unique_ptr<MultiTxnManager> mgr_;
};

TEST_F(MultiTxnTest, AtomicCrossTableVisibility) {
  auto writer = mgr_->Begin();
  auto reader = mgr_->Begin();
  // Insert an order with two lineitems in one transaction.
  ASSERT_TRUE(writer->Insert("orders", {4, 40}).ok());
  ASSERT_TRUE(writer->Insert("lines", {4, 1, 20}).ok());
  ASSERT_TRUE(writer->Insert("lines", {4, 2, 20}).ok());
  // Before commit: visible to writer, invisible to the concurrent reader.
  EXPECT_EQ(Rows(*writer, "orders"), 4u);
  EXPECT_EQ(Rows(*writer, "lines"), 7u);
  EXPECT_EQ(Rows(*reader, "orders"), 3u);
  EXPECT_EQ(Rows(*reader, "lines"), 5u);
  ASSERT_TRUE(writer->Commit().ok());
  // The overlapping reader still sees its snapshot.
  EXPECT_EQ(Rows(*reader, "orders"), 3u);
  ASSERT_TRUE(reader->Commit().ok());
  // Both tables become visible together to a new transaction.
  auto later = mgr_->Begin();
  EXPECT_EQ(Rows(*later, "orders"), 4u);
  EXPECT_EQ(Rows(*later, "lines"), 7u);
}

TEST_F(MultiTxnTest, ConflictOnOneTableAbortsBoth) {
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  // Both modify the same order; b also inserts a lineitem.
  ASSERT_TRUE(a->ModifyByKey("orders", {Value(2)}, 1, Value(21)).ok());
  ASSERT_TRUE(b->ModifyByKey("orders", {Value(2)}, 1, Value(22)).ok());
  ASSERT_TRUE(b->Insert("lines", {2, 2, 9}).ok());
  ASSERT_TRUE(a->Commit().ok());
  Status st = b->Commit();
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  // b's lineitem insert must NOT have become visible (atomic abort).
  auto check = mgr_->Begin();
  EXPECT_EQ(Rows(*check, "lines"), 5u);
  auto order = check->GetByKey("orders", {Value(2)});
  ASSERT_TRUE(order.ok());
  EXPECT_EQ((*order)[1], Value(21));
}

TEST_F(MultiTxnTest, DisjointTablesCommitConcurrently) {
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(a->ModifyByKey("orders", {Value(1)}, 1, Value(11)).ok());
  ASSERT_TRUE(b->ModifyByKey("lines", {Value(1), Value(1)}, 2,
                             Value(6)).ok());
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());  // different tables: no conflict
  auto check = mgr_->Begin();
  auto o = check->GetByKey("orders", {Value(1)});
  auto l = check->GetByKey("lines", {Value(1), Value(1)});
  ASSERT_TRUE(o.ok() && l.ok());
  EXPECT_EQ((*o)[1], Value(11));
  EXPECT_EQ((*l)[2], Value(6));
}

TEST_F(MultiTxnTest, CascadingDeleteAcrossTables) {
  auto txn = mgr_->Begin();
  // Delete order 3 and its lineitems atomically.
  ASSERT_TRUE(txn->DeleteByKey("orders", {Value(3)}).ok());
  ASSERT_TRUE(txn->DeleteByKey("lines", {Value(3), Value(1)}).ok());
  ASSERT_TRUE(txn->DeleteByKey("lines", {Value(3), Value(2)}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto check = mgr_->Begin();
  EXPECT_EQ(Rows(*check, "orders"), 2u);
  EXPECT_EQ(Rows(*check, "lines"), 3u);
  EXPECT_FALSE(check->GetByKey("orders", {Value(3)}).ok());
}

TEST_F(MultiTxnTest, RecoveryReplaysMultiTableCommits) {
  {
    auto t1 = mgr_->Begin();
    ASSERT_TRUE(t1->Insert("orders", {4, 40}).ok());
    ASSERT_TRUE(t1->Insert("lines", {4, 1, 40}).ok());
    ASSERT_TRUE(t1->Commit().ok());
    auto t2 = mgr_->Begin();
    ASSERT_TRUE(t2->DeleteByKey("orders", {Value(1)}).ok());
    ASSERT_TRUE(t2->DeleteByKey("lines", {Value(1), Value(1)}).ok());
    ASSERT_TRUE(t2->DeleteByKey("lines", {Value(1), Value(2)}).ok());
    ASSERT_TRUE(t2->Commit().ok());
    auto t3 = mgr_->Begin();
    ASSERT_TRUE(t3->Insert("orders", {5, 50}).ok());
    t3->Abort();
  }
  // Fresh replicas + recovery.
  Table orders2("orders", OrdersMiniSchema(), TableOptions{});
  Table lines2("lines", LinesMiniSchema(), TableOptions{});
  ASSERT_TRUE(orders2.Load({{1, 10}, {2, 20}, {3, 30}}).ok());
  ASSERT_TRUE(
      lines2.Load({{1, 1, 5}, {1, 2, 5}, {2, 1, 20}, {3, 1, 15}, {3, 2, 15}})
          .ok());
  MultiTxnManager mgr2({&orders2, &lines2}, nullptr);
  ASSERT_TRUE(mgr2.Recover(wal_).ok());
  auto check = mgr2.Begin();
  EXPECT_EQ(Rows(*check, "orders"), 3u);  // +1 insert, -1 delete
  EXPECT_EQ(Rows(*check, "lines"), 4u);   // +1, -2
  EXPECT_TRUE(check->GetByKey("orders", {Value(4)}).ok());
  EXPECT_FALSE(check->GetByKey("orders", {Value(1)}).ok());
  EXPECT_FALSE(check->GetByKey("orders", {Value(5)}).ok());  // aborted
}

TEST_F(MultiTxnTest, RecoverRunsOnceIntoAPristineManager) {
  {
    auto t = mgr_->Begin();
    ASSERT_TRUE(t->Insert("orders", {4, 40}).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  Table orders2("orders", OrdersMiniSchema(), TableOptions{});
  Table lines2("lines", LinesMiniSchema(), TableOptions{});
  ASSERT_TRUE(orders2.Load({{1, 10}, {2, 20}, {3, 30}}).ok());
  ASSERT_TRUE(lines2.Load({{1, 1, 5}}).ok());
  MultiTxnManager mgr2({&orders2, &lines2}, nullptr);
  ASSERT_TRUE(mgr2.Recover(wal_).ok());
  // A second run would apply every committed update twice.
  Status again = mgr2.Recover(wal_);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument) << again.ToString();
  auto check = mgr2.Begin();
  EXPECT_EQ(Rows(*check, "orders"), 4u);  // applied exactly once
  // A manager with history is not pristine; its own WAL is never a
  // recovery source.
  Wal other;
  EXPECT_EQ(mgr_->Recover(other).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr_->Recover(wal_).code(), StatusCode::kInvalidArgument);
}

TEST_F(MultiTxnTest, RecoverAppliesOnlyManagedTables) {
  // A two-table log replayed into a manager of one of the tables: only
  // that table's records apply, and a transaction that touched only the
  // other table is skipped.
  {
    auto both = mgr_->Begin();
    ASSERT_TRUE(both->Insert("orders", {4, 40}).ok());
    ASSERT_TRUE(both->Insert("lines", {4, 1, 40}).ok());
    ASSERT_TRUE(both->Commit().ok());
    auto lines_only = mgr_->Begin();
    ASSERT_TRUE(lines_only->DeleteByKey("lines", {Value(1), Value(1)}).ok());
    ASSERT_TRUE(lines_only->Commit().ok());
  }
  Table orders2("orders", OrdersMiniSchema(), TableOptions{});
  ASSERT_TRUE(orders2.Load({{1, 10}, {2, 20}, {3, 30}}).ok());
  MultiTxnManager mgr2({&orders2}, nullptr);
  ASSERT_TRUE(mgr2.Recover(wal_).ok());
  EXPECT_EQ(mgr2.committed_count(), 1u);
  auto check = mgr2.Begin();
  EXPECT_EQ(Rows(*check, "orders"), 4u);
  EXPECT_TRUE(check->GetByKey("orders", {Value(4)}).ok());
}

TEST_F(MultiTxnTest, ScanOfUnmanagedTableFailsLoudly) {
  auto txn = mgr_->Begin();
  auto src = txn->Scan("nope", {0});
  ASSERT_NE(src, nullptr);
  Batch batch;
  auto next = src->Next(&batch, 1024);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
  // The managed tables still scan.
  auto rows = CollectRows(txn->Scan("orders", {0, 1}).get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(MultiTxnTest, WritePdtMigrationAtQuietPoints) {
  mgr_.reset();  // a table has exactly one driver at a time
  TxnManagerOptions opts;
  opts.write_pdt_max_entries = 1;
  MultiTxnManager mgr({orders_.get(), lines_.get()}, nullptr, opts);
  for (int i = 10; i < 20; ++i) {
    auto txn = mgr.Begin();
    ASSERT_TRUE(txn->Insert("orders", {i, i}).ok());
    ASSERT_TRUE(txn->Insert("lines", {i, 1, i}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_GT(orders_->pdt()->EntryCount(), 0u);  // migrated into Read-PDT
  auto txn = mgr.Begin();
  EXPECT_EQ(Rows(*txn, "orders"), 13u);
  EXPECT_EQ(Rows(*txn, "lines"), 15u);
}

// TPC-H refresh streams as atomic transactions: the workload the paper
// runs, with the atomicity the spec actually demands.
TEST(MultiTxnTpchTest, RefreshStreamsAsTransactions) {
  Database db;
  tpch::GenOptions gen;
  gen.scale_factor = 0.002;
  auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());
  auto streams = tpch::MakeUpdateStreams(gen, 2, 0.01);
  ASSERT_TRUE(streams.ok());

  MultiTxnManager mgr({tables->orders, tables->lineitem}, nullptr);
  uint64_t orders_before = tables->orders->RowCount();
  for (const auto& stream : *streams) {
    // Each inserted/deleted order is one transaction over both tables.
    for (const auto& o : stream.inserts) {
      auto txn = mgr.Begin();
      ASSERT_TRUE(txn->Insert("orders", o.order).ok());
      for (const auto& l : o.lineitems) {
        ASSERT_TRUE(txn->Insert("lineitem", l).ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    for (const auto& o : stream.deletes) {
      auto txn = mgr.Begin();
      Status st = txn->DeleteByKey(
          "orders", {o.order[tpch::kOOrderdate], o.order[tpch::kOOrderkey]});
      if (st.code() == StatusCode::kNotFound) {
        txn->Abort();
        continue;
      }
      ASSERT_TRUE(st.ok());
      for (const auto& l : o.lineitems) {
        ASSERT_TRUE(txn->DeleteByKey("lineitem",
                                     {l[tpch::kLOrderkey],
                                      l[tpch::kLLinenumber]})
                        .ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  ASSERT_TRUE(mgr.PropagateAndMaybeCheckpoint().ok());
  auto txn = mgr.Begin();
  auto n = txn->RowCount("orders");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, orders_before);  // equal inserts and deletes
  EXPECT_TRUE(tables->orders->pdt()->CheckInvariants().ok());
  EXPECT_TRUE(tables->lineitem->pdt()->CheckInvariants().ok());
}

}  // namespace
}  // namespace pdtstore
