// HTAP scenario tests: a deterministic small-scale run of the full
// driver (writers + readers + maintenance) whose WAL replays into an
// identical database, the acceptance property that a cross-table
// refresh group stays atomic under a forced write-write conflict
// (orders committed <=> lineitem committed), and the latency-percentile
// helper the report is built from.
#include "tpch/htap_driver.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "db/database.h"
#include "tpch/queries.h"
#include "util/file.h"

namespace pdtstore {
namespace {

std::string FreshDir(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

uint64_t QueryChecksum(int q, const tpch::TpchTables& tables) {
  auto res = tpch::RunTpchQuery(q, tables, tpch::QueryOptions{});
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.ok() ? res->checksum : 0;
}

// The small-scale deterministic variant of the bench: real threads, a
// real durable WAL, an aggressive maintenance cadence (checkpoint
// whenever the Read-PDT is non-empty), and afterwards the WAL replayed
// into freshly generated tables must reproduce the exact final state —
// every concurrent interleaving the run chose is legal, and all of
// them serialize to the same database because the refresh streams are
// key-disjoint.
TEST(HtapScenarioTest, DeterministicSmallScaleRunReplaysFromWal) {
  Database db;
  tpch::GenOptions gen;
  gen.scale_factor = 0.002;
  auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());

  const std::string dir = FreshDir("htap_small");
  auto writer =
      WalWriter::Open(FileSystem::Default(), dir + "/wal", true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Wal wal;

  tpch::HtapOptions opts;
  opts.writers = 2;
  opts.readers = 1;
  opts.streams_per_writer = 1;
  opts.stream_fraction = 0.01;
  opts.orders_per_txn = 2;
  opts.queries = {6};
  opts.min_queries_per_reader = 2;
  opts.write_pdt_max_entries = 8;  // keep propagation busy
  opts.maintenance_interval_ms = 2;
  opts.checkpoint_read_entries = 0;  // checkpoint at every quiet point
  auto report =
      tpch::RunHtapScenario(gen, &*tables, &wal, writer->get(), opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(report->groups_committed, 0u);
  EXPECT_GT(report->rows_ingested, 0u);
  EXPECT_GE(report->queries_run, 2u);
  EXPECT_GT(report->committed, 0u);
  EXPECT_GT(report->query_latency.count, 0u);
  EXPECT_GE(report->query_latency.p99_ms, report->query_latency.p50_ms);
  EXPECT_GE(report->query_latency.max_ms, report->query_latency.p999_ms);
  EXPECT_GT(report->ingest_rows_per_sec, 0.0);
  // The driver already verified orders returned to its initial count;
  // cross-check the WAL: replaying it into fresh tables must land on
  // the same state the live run ended in.
  Database db2;
  auto tables2 = tpch::GenerateInto(&db2, gen, TableOptions{});
  ASSERT_TRUE(tables2.ok());
  MultiTxnManager mgr2({tables2->orders, tables2->lineitem}, nullptr);
  ASSERT_TRUE(mgr2.Recover(wal).ok());
  ASSERT_TRUE(mgr2.PropagateAndMaybeCheckpoint().ok());
  EXPECT_EQ(tables2->orders->RowCount(), tables->orders->RowCount());
  EXPECT_EQ(tables2->lineitem->RowCount(), tables->lineitem->RowCount());
  for (int q : {1, 6, 12}) {
    EXPECT_EQ(QueryChecksum(q, *tables2), QueryChecksum(q, *tables))
        << "Q" << q << " diverged after WAL replay";
  }
}

// The acceptance property, forced deterministically: two refresh-group
// transactions collide on orders only. Both publish into the commit
// FIFO; the first AwaitCommit decides the whole FIFO in publication
// order, so A commits and B loses the write-write race on orders — and
// B's lineitem rows, which conflicted with nothing, must vanish with
// it (orders committed <=> lineitem committed, never half a group).
TEST(HtapScenarioTest, CrossTableRefreshGroupAtomicUnderForcedConflict) {
  Database db;
  tpch::GenOptions gen;
  gen.scale_factor = 0.002;
  auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());
  auto streams = tpch::MakeUpdateStreams(gen, 2, 0.01);
  ASSERT_TRUE(streams.ok());
  const tpch::GeneratedOrder& contested = (*streams)[0].inserts[0];
  const tpch::GeneratedOrder& canary_src = (*streams)[1].inserts[0];
  ASSERT_FALSE(contested.lineitems.empty());
  ASSERT_FALSE(canary_src.lineitems.empty());

  MultiTxnManager mgr({tables->orders, tables->lineitem}, nullptr);
  const uint64_t orders_before = tables->orders->RowCount();
  const uint64_t lines_before = tables->lineitem->RowCount();

  auto a = mgr.Begin();
  ASSERT_TRUE(a->Insert("orders", contested.order).ok());
  for (const Tuple& l : contested.lineitems) {
    ASSERT_TRUE(a->Insert("lineitem", l).ok());
  }
  auto b = mgr.Begin();
  // Same order key as A (the forced conflict, on orders only) plus a
  // canary lineitem whose key collides with nothing.
  ASSERT_TRUE(b->Insert("orders", contested.order).ok());
  const Tuple& canary = canary_src.lineitems[0];
  ASSERT_TRUE(b->Insert("lineitem", canary).ok());

  ASSERT_TRUE(a->Publish().ok());
  ASSERT_TRUE(b->Publish().ok());
  EXPECT_EQ(mgr.GetStats().pending_deltas, 2u);
  // A's await decides both records in publication order: A commits,
  // then B fails serialization against A on orders.
  ASSERT_TRUE(a->AwaitCommit().ok());
  Status st = b->AwaitCommit();
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();

  // No record may be left behind in the FIFO, decided or not.
  MultiTxnStats stats = mgr.GetStats();
  EXPECT_EQ(stats.pending_deltas, 0u);
  EXPECT_EQ(mgr.committed_count(), 1u);
  EXPECT_EQ(mgr.aborted_count(), 1u);

  auto check = mgr.Begin();
  auto orders_now = check->RowCount("orders");
  auto lines_now = check->RowCount("lineitem");
  ASSERT_TRUE(orders_now.ok() && lines_now.ok());
  // Exactly one copy of the contested order landed...
  EXPECT_EQ(*orders_now, orders_before + 1);
  // ...with A's lineitems and none of B's: had B's group half-applied,
  // the canary would be visible even though its orders insert lost.
  EXPECT_EQ(*lines_now, lines_before + contested.lineitems.size());
  EXPECT_FALSE(
      check->GetByKey("lineitem", {canary[tpch::kLOrderkey],
                                   canary[tpch::kLLinenumber]})
          .ok());
  EXPECT_TRUE(
      check
          ->GetByKey("orders", {contested.order[tpch::kOOrderdate],
                                contested.order[tpch::kOOrderkey]})
          .ok());
}

// Same collision through the public refresh-group API: the losing
// group must retry from a fresh snapshot and converge, with the
// conflict surfaced in the stats rather than a half-applied group. The
// spoiler deletes the group's first order key, so the retry sees
// NotFound, skips that order, and commits the rest — deterministic.
TEST(HtapScenarioTest, RefreshGroupRetriesAfterPublishedConflict) {
  Database db;
  tpch::GenOptions gen;
  gen.scale_factor = 0.002;
  auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
  ASSERT_TRUE(tables.ok());
  auto streams = tpch::MakeUpdateStreams(gen, 2, 0.01);
  ASSERT_TRUE(streams.ok());
  const auto& deletes = (*streams)[0].deletes;
  ASSERT_GT(deletes.size(), 1u);

  MultiTxnManager mgr({tables->orders, tables->lineitem}, nullptr);
  const uint64_t orders_before = tables->orders->RowCount();

  // Publish (but leave undecided) a transaction that beats the group to
  // its first delete key; the group's AwaitCommit decides it first, and
  // the group loses the write-write race on that orders position.
  const tpch::GeneratedOrder& contested = deletes[0];
  auto spoiler = mgr.Begin();
  ASSERT_TRUE(spoiler
                  ->DeleteByKey("orders",
                                {contested.order[tpch::kOOrderdate],
                                 contested.order[tpch::kOOrderkey]})
                  .ok());
  ASSERT_TRUE(spoiler->Publish().ok());

  tpch::MultiTxnApplyOptions aopts;
  aopts.orders_per_txn = deletes.size();  // the whole stream, one group
  tpch::MultiTxnApplyStats stats;
  tpch::RefreshGroup group{0, deletes.size(), false};
  Status st = tpch::ApplyRefreshGroupMultiTxn((*streams)[0], group, &mgr,
                                              aopts, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(spoiler->AwaitCommit().code(), StatusCode::kOk);
  EXPECT_EQ(mgr.GetStats().pending_deltas, 0u);
  EXPECT_GE(stats.conflict_retries, 1u);
  EXPECT_EQ(stats.groups_committed, 1u);

  ASSERT_TRUE(mgr.PropagateAndMaybeCheckpoint().ok());
  EXPECT_TRUE(tables->orders->pdt()->CheckInvariants().ok());
  EXPECT_TRUE(tables->lineitem->pdt()->CheckInvariants().ok());
  // Spoiler deleted one order, the retried group the remaining ones —
  // anything else means the group tore or double-applied.
  EXPECT_EQ(tables->orders->RowCount(), orders_before - deletes.size());
}

TEST(LatencyPercentileTest, NearestRank) {
  std::vector<double> empty;
  EXPECT_EQ(tpch::LatencyPercentile(&empty, 0.99), 0.0);
  std::vector<double> one{7.0};
  EXPECT_EQ(tpch::LatencyPercentile(&one, 0.5), 7.0);
  EXPECT_EQ(tpch::LatencyPercentile(&one, 0.999), 7.0);
  std::vector<double> v{5, 1, 4, 2, 3};  // sorts in place
  EXPECT_EQ(tpch::LatencyPercentile(&v, 0.5), 3.0);
  EXPECT_EQ(tpch::LatencyPercentile(&v, 0.99), 5.0);
  EXPECT_EQ(tpch::LatencyPercentile(&v, 0.2), 1.0);
}

}  // namespace
}  // namespace pdtstore
