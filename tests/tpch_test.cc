// TPC-H workload tests: generator determinism and structure, refresh
// streams, and the key evaluation invariant — every query kernel returns
// identical results on PDT-backed, VDT-backed and checkpointed tables
// under the same update load.
#include <gtest/gtest.h>

#include "db/database.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/update_stream.h"

namespace pdtstore {
namespace tpch {
namespace {

GenOptions SmallGen() {
  GenOptions gen;
  gen.scale_factor = 0.002;  // ~3000 orders, ~12k lineitems
  gen.seed = 1234;
  return gen;
}

TEST(TpchGenTest, GeneratesClusteredTables) {
  Database db;
  auto tables = GenerateInto(&db, SmallGen(), TableOptions{});
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(tables->orders->RowCount(),
            static_cast<uint64_t>(OrderCountFor(SmallGen())));
  EXPECT_GT(tables->lineitem->RowCount(), tables->orders->RowCount());
  EXPECT_EQ(tables->nation->RowCount(), 25u);
  // lineitem is SK-ordered on (orderkey, linenumber) by construction; the
  // loader enforces strict order, so loading succeeded <=> clustered.
  // orders clustered by date: sparse index min/max must ascend.
  const auto& entries = tables->orders->sparse_index().entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(entries[i - 1].max_key[0].AsInt64(),
              entries[i].min_key[0].AsInt64());
  }
}

TEST(TpchGenTest, OrderRegenerationIsDeterministic) {
  GenOptions gen = SmallGen();
  Random r1(gen.seed * 0x9e3779b97f4a7c15ULL + 42);
  Random r2(gen.seed * 0x9e3779b97f4a7c15ULL + 42);
  GeneratedOrder a = MakeOrder(42, &r1, gen.scale_factor);
  GeneratedOrder b = MakeOrder(42, &r2, gen.scale_factor);
  EXPECT_EQ(a.order, b.order);
  ASSERT_EQ(a.lineitems.size(), b.lineitems.size());
  for (size_t i = 0; i < a.lineitems.size(); ++i) {
    EXPECT_EQ(a.lineitems[i], b.lineitems[i]);
  }
}

TEST(UpdateStreamTest, StreamsAreDisjointAndScatter) {
  GenOptions gen = SmallGen();
  auto streams = MakeUpdateStreams(gen, 2, 0.01);
  ASSERT_TRUE(streams.ok());
  ASSERT_EQ(streams->size(), 2u);
  std::set<int64_t> seen;
  for (const auto& s : *streams) {
    EXPECT_GT(s.inserts.size(), 0u);
    EXPECT_GT(s.deletes.size(), 0u);
    for (const auto& o : s.inserts) {
      EXPECT_TRUE(seen.insert(o.order[kOOrderkey].AsInt64()).second);
    }
    for (const auto& o : s.deletes) {
      EXPECT_TRUE(seen.insert(o.order[kOOrderkey].AsInt64()).second);
    }
  }
}

TEST(UpdateStreamTest, ApplyChangesRowCountsAsExpected) {
  Database db;
  auto tables = GenerateInto(&db, SmallGen(), TableOptions{});
  ASSERT_TRUE(tables.ok());
  uint64_t orders_before = tables->orders->RowCount();
  auto streams = MakeUpdateStreams(SmallGen(), 2, 0.01);
  ASSERT_TRUE(streams.ok());
  for (const auto& s : *streams) {
    ASSERT_TRUE(ApplyUpdateStream(s, &*tables).ok());
  }
  // Same number of inserts and deletes: order count is unchanged.
  EXPECT_EQ(tables->orders->RowCount(), orders_before);
  EXPECT_GT(tables->orders->pdt()->EntryCount(), 0u);
  EXPECT_TRUE(tables->orders->pdt()->CheckInvariants().ok());
  EXPECT_TRUE(tables->lineitem->pdt()->CheckInvariants().ok());
}

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, BackendsAgreeUnderUpdateLoad) {
  const int q = GetParam();
  GenOptions gen = SmallGen();
  auto streams = MakeUpdateStreams(gen, 2, 0.005);
  ASSERT_TRUE(streams.ok());

  auto run_with = [&](DeltaBackend backend,
                      bool checkpoint) -> QueryResult {
    Database db;
    TableOptions opts;
    opts.backend = backend;
    auto tables = GenerateInto(&db, gen, opts);
    EXPECT_TRUE(tables.ok());
    for (const auto& s : *streams) {
      EXPECT_TRUE(ApplyUpdateStream(s, &*tables).ok());
    }
    if (checkpoint) {
      EXPECT_TRUE(tables->lineitem->Checkpoint().ok());
      EXPECT_TRUE(tables->orders->Checkpoint().ok());
    }
    auto result = RunTpchQuery(q, *tables);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  };

  QueryResult pdt = run_with(DeltaBackend::kPdt, false);
  QueryResult vdt = run_with(DeltaBackend::kVdt, false);
  QueryResult clean = run_with(DeltaBackend::kPdt, true);

  EXPECT_EQ(pdt.rows, vdt.rows) << "q" << q;
  EXPECT_NEAR(pdt.checksum, vdt.checksum,
              1e-6 * (1.0 + std::abs(pdt.checksum)))
      << "q" << q;
  // Checkpointing must not change any result either.
  EXPECT_EQ(pdt.rows, clean.rows) << "q" << q;
  EXPECT_NEAR(pdt.checksum, clean.checksum,
              1e-6 * (1.0 + std::abs(pdt.checksum)))
      << "q" << q;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::Range(1, 23));

TEST(TpchDeterminismTest, Q11SerialAndParallelAgreeExactly) {
  // Q11 keeps the top 50 of many tied values (retail prices repeat every
  // 1000 parts, so SF 0.01's 2000 parts tie pairwise). Parallel
  // aggregation delivers the groups in arbitrary order; the result must
  // still be exactly the serial one, run after run.
  GenOptions gen = SmallGen();
  gen.scale_factor = 0.01;
  Database db;
  auto tables = GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());
  auto serial = RunTpchQuery(11, *tables);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->rows, 50u);
  QueryOptions par;
  par.num_threads = 4;
  for (int run = 0; run < 30; ++run) {
    auto r = RunTpchQuery(11, *tables, par);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows, serial->rows) << "run " << run;
    EXPECT_EQ(r->checksum, serial->checksum) << "run " << run;
  }
}

TEST(TpchQueryMetaTest, UpdatedTableFootprint) {
  EXPECT_FALSE(QueryTouchesUpdatedTables(2));
  EXPECT_FALSE(QueryTouchesUpdatedTables(11));
  EXPECT_FALSE(QueryTouchesUpdatedTables(16));
  EXPECT_TRUE(QueryTouchesUpdatedTables(1));
  EXPECT_TRUE(QueryTouchesUpdatedTables(6));
  EXPECT_TRUE(QueryTouchesUpdatedTables(22));
}

TEST(TpchQueryMetaTest, UnknownQueryRejected) {
  Database db;
  auto tables = GenerateInto(&db, SmallGen(), TableOptions{});
  ASSERT_TRUE(tables.ok());
  EXPECT_FALSE(RunTpchQuery(0, *tables).ok());
  EXPECT_FALSE(RunTpchQuery(23, *tables).ok());
}

}  // namespace
}  // namespace tpch
}  // namespace pdtstore
