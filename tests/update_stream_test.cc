// Update-stream commit-path tests: the disjointness contract of
// MakeUpdateStreams (including the overrun case that used to alias
// delete keys by clamping), NotFound-delete idempotence through the
// multi-table refresh API, and the two-table ApplyUpdateStreamTxn
// failure path — a commit failing on one table of the pair must leave
// no abandoned published record in either manager's commit FIFO.
#include "tpch/update_stream.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "db/database.h"
#include "txn/txn_manager.h"
#include "util/file.h"

namespace pdtstore {
namespace {

tpch::GenOptions SmallGen() {
  tpch::GenOptions gen;
  gen.scale_factor = 0.002;  // 3000 orders
  return gen;
}

std::string FreshDir(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

TEST(UpdateStreamDisjointnessTest, OverrunReturnsInvalidArgument) {
  // 3 streams x 40% of 3000 orders = 3600 delete keys from a 3000-key
  // space: disjointness is impossible. The old code clamped the stride
  // walk at the last key, silently aliasing the tail across streams.
  auto streams = tpch::MakeUpdateStreams(SmallGen(), 3, 0.4);
  ASSERT_FALSE(streams.ok());
  EXPECT_EQ(streams.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(streams.status().ToString().find("disjoint"),
            std::string::npos)
      << streams.status().ToString();
}

TEST(UpdateStreamDisjointnessTest, DeleteKeysStayDisjointNearCapacity) {
  // 4 streams x 24% fills 96% of the key space (stride 1): every delete
  // key must still be distinct, across streams as well as within them.
  auto streams = tpch::MakeUpdateStreams(SmallGen(), 4, 0.24);
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  std::set<int64_t> delete_keys;
  std::set<int64_t> insert_keys;
  size_t total = 0;
  for (const auto& s : *streams) {
    for (const auto& o : s.deletes) {
      delete_keys.insert(o.order[tpch::kOOrderkey].AsInt64());
      ++total;
    }
    for (const auto& o : s.inserts) {
      insert_keys.insert(o.order[tpch::kOOrderkey].AsInt64());
    }
  }
  EXPECT_EQ(delete_keys.size(), total) << "delete keys collide";
  EXPECT_EQ(insert_keys.size(), total) << "insert keys collide";
  // Inserts fill holes, deletes sample used keys: never the same key.
  for (int64_t k : insert_keys) {
    EXPECT_EQ(delete_keys.count(k), 0u) << "key " << k << " on both sides";
  }
}

TEST(UpdateStreamMultiTxnTest, DeletesAreIdempotentAcrossReapplies) {
  Database db;
  auto gen = SmallGen();
  auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());
  auto streams = tpch::MakeUpdateStreams(gen, 1, 0.01);
  ASSERT_TRUE(streams.ok());
  MultiTxnManager mgr({tables->orders, tables->lineitem}, nullptr);

  tpch::MultiTxnApplyOptions opts;
  opts.orders_per_txn = 4;
  auto delete_groups = [&] {
    std::vector<tpch::RefreshGroup> out;
    for (const auto& g :
         tpch::PlanRefreshGroups((*streams)[0], opts.orders_per_txn)) {
      if (!g.inserts) out.push_back(g);
    }
    return out;
  }();
  ASSERT_FALSE(delete_groups.empty());

  tpch::MultiTxnApplyStats first;
  for (const auto& g : delete_groups) {
    ASSERT_TRUE(
        tpch::ApplyRefreshGroupMultiTxn((*streams)[0], g, &mgr, opts,
                                        &first)
            .ok());
  }
  EXPECT_EQ(first.groups_committed, delete_groups.size());
  EXPECT_GT(first.rows_deleted, 0u);
  const uint64_t orders_after = [&] {
    auto txn = mgr.Begin();
    auto n = txn->RowCount("orders");
    EXPECT_TRUE(n.ok());
    return n.ok() ? *n : 0;
  }();

  // Re-applying the same deletes finds every key already gone: each
  // group sees only NotFound, commits nothing, and succeeds.
  tpch::MultiTxnApplyStats second;
  for (const auto& g : delete_groups) {
    ASSERT_TRUE(
        tpch::ApplyRefreshGroupMultiTxn((*streams)[0], g, &mgr, opts,
                                        &second)
            .ok());
  }
  EXPECT_EQ(second.groups_committed, 0u);
  EXPECT_EQ(second.rows_deleted, 0u);
  auto txn = mgr.Begin();
  auto n = txn->RowCount("orders");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, orders_after);
  EXPECT_EQ(mgr.GetStats().pending_deltas, 0u);
}

// Regression for the abandoned-transaction bug: ApplyUpdateStreamTxn
// used to return as soon as the orders-side AwaitCommit failed, leaving
// the already-published lineitem transaction dangling in its manager's
// commit FIFO. A poisoned WAL fails BOTH commits of the pair; the
// helper must resolve both before reporting, so neither FIFO retains
// a published record.
TEST(UpdateStreamTxnTest, WalFailureResolvesBothTablesOfThePair) {
  Database db;
  auto gen = SmallGen();
  auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());
  auto streams = tpch::MakeUpdateStreams(gen, 1, 0.01);
  ASSERT_TRUE(streams.ok());

  const std::string dir = FreshDir("upd_stream_walfail");
  FaultInjectingFs fs(FileSystem::Default());
  auto writer = WalWriter::Open(&fs, dir + "/wal", true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  Wal wal;
  TxnManager orders_mgr(tables->orders, &wal);
  TxnManager lineitem_mgr(tables->lineitem, &wal);
  orders_mgr.SetWalWriter(writer->get());
  lineitem_mgr.SetWalWriter(writer->get());

  const uint64_t orders_before = tables->orders->RowCount();
  fs.FailNextSync();  // first group fsync fails; the error is sticky
  Status st = tpch::ApplyUpdateStreamTxn((*streams)[0], &orders_mgr,
                                         &lineitem_mgr, 4);
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(orders_mgr.wal_status().ok());

  // The heart of the regression: no published record may be left
  // undecided in either commit FIFO, and no transaction may still be
  // active.
  TxnManagerStats os = orders_mgr.GetStats();
  TxnManagerStats ls = lineitem_mgr.GetStats();
  EXPECT_EQ(os.pending_deltas, 0u);
  EXPECT_EQ(ls.pending_deltas, 0u);
  EXPECT_EQ(os.active, 0u);
  EXPECT_EQ(ls.active, 0u);

  // A failed group commit means the in-memory state may include the
  // unacknowledged group (ack-loss semantics), but never a torn one:
  // each applied insert group moved orders and lineitem together.
  auto snap = orders_mgr.Begin();
  uint64_t now = snap->RowCount();
  snap->Abort();
  EXPECT_GE(now, orders_before);
}

}  // namespace
}  // namespace pdtstore
