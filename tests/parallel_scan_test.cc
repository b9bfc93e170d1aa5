// Thread-count invariance of the morsel-driven parallel scan: the same
// table + delta state scanned at 1/2/4/8 threads must yield identical
// results — identical sequences in ordered mode, identical multisets in
// unordered mode — across mixed insert/delete/modify delta states,
// restricted scans, multi-layer transaction snapshots and both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "db/table.h"
#include "exec/parallel_scan.h"
#include "test_util.h"
#include "txn/txn_manager.h"
#include "util/random.h"
#include "util/thread_pool.h"

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

// Builds a PDT- or VDT-backed table with `n` rows in small chunks (many
// morsel boundaries) and applies `ops` random mixed updates.
std::unique_ptr<Table> BuildUpdatedTable(DeltaBackend backend, int n,
                                         int ops, uint64_t seed) {
  TableOptions opts;
  opts.backend = backend;
  opts.store.chunk_rows = 64;
  TableOptions o = opts;
  auto table = std::make_unique<Table>("t", IntSchema(), o);
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

std::vector<Tuple> ScanRows(const Table& table, const ScanOptions& opts,
                            const KeyBounds* bounds = nullptr,
                            size_t batch_size = kDefaultBatchSize) {
  auto src = table.Scan(AllColumns(table.schema()), bounds, opts);
  auto rows = CollectRows(src.get(), batch_size);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

void SortRows(std::vector<Tuple>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
}

TEST(SplitIntoMorselsTest, SplitsAndPreservesDisjointness) {
  auto morsels = SplitIntoMorsels(SidRange{200, 500}, 128);
  ASSERT_EQ(morsels.size(), 3u);
  EXPECT_EQ(morsels[0], (SidRange{200, 328}));
  EXPECT_EQ(morsels[1], (SidRange{328, 456}));
  EXPECT_EQ(morsels[2], (SidRange{456, 500}));
  for (size_t i = 1; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i - 1].end, morsels[i].begin);
  }
  EXPECT_EQ(SplitIntoMorsels(SidRange{150, 151}, 128),
            (std::vector<SidRange>{{150, 151}}));
  EXPECT_TRUE(SplitIntoMorsels(SidRange{7, 7}, 128).empty());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    ParallelFor(threads, 0, hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelScanTest, OrderedMatchesSerialAcrossThreadCounts) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 2000, 800, 17);
  ScanOptions serial;
  auto reference = ScanRows(*table, serial);
  ASSERT_EQ(reference.size(), table->RowCount());
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.ordered = true;
    opts.morsel_rows = 256;  // many morsels
    EXPECT_EQ(ScanRows(*table, opts), reference) << threads << " threads";
  }
}

TEST(ParallelScanTest, UnorderedMatchesSerialMultiset) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 2000, 800, 29);
  auto reference = ScanRows(*table, ScanOptions{});
  SortRows(&reference);
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.ordered = false;
    opts.morsel_rows = 256;
    auto rows = ScanRows(*table, opts);
    SortRows(&rows);
    EXPECT_EQ(rows, reference) << threads << " threads";
  }
}

TEST(ParallelScanTest, OrderedBatchRidsAreGloballyCorrect) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 1500, 600, 31);
  ScanOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 128;
  auto src = table->Scan(AllColumns(table->schema()), nullptr, opts);
  Batch batch;
  Rid expect = 0;
  while (true) {
    auto more = src->Next(&batch, 100);  // < worker batch: forces slicing
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(batch.start_rid(), expect);
    expect += batch.num_rows();
  }
  EXPECT_EQ(expect, table->RowCount());
}

TEST(ParallelScanTest, HostilePdtStatesFromStressPatterns) {
  // The pdt_stress patterns, through the Table API: hammer one key
  // range with insert/delete churn, long ghost chains (a whole deleted
  // region spanning several morsels), then inserts into the ghosts.
  TableOptions topts;
  topts.store.chunk_rows = 64;
  topts.pdt.fanout = 4;
  auto table = std::make_unique<Table>("t", IntSchema(), topts);
  ASSERT_TRUE(table->Load(IntRows(600, 10)).ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(table->DeleteAt(100).ok());  // rows 100..499 become ghosts
  }
  for (int64_t k : {1005, 2501, 3999, 1001, 4995}) {
    ASSERT_TRUE(table->Insert({k, k}).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table->Insert({int64_t{6001 + i}, int64_t{i}}).ok());
    ASSERT_TRUE(table->ModifyAt(i % 100, 1, Value(int64_t{i})).ok());
  }
  auto reference = ScanRows(*table, ScanOptions{});
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 64;  // whole morsels fall inside the ghost region
    EXPECT_EQ(ScanRows(*table, opts), reference) << threads << " threads";
    opts.ordered = false;
    auto rows = ScanRows(*table, opts);
    auto sorted_ref = reference;
    SortRows(&rows);
    SortRows(&sorted_ref);
    EXPECT_EQ(rows, sorted_ref) << threads << " threads unordered";
  }
}

TEST(ParallelScanTest, AllStableRowsDeletedStillEmitsInserts) {
  TableOptions topts;
  topts.store.chunk_rows = 32;
  auto table = std::make_unique<Table>("t", IntSchema(), topts);
  ASSERT_TRUE(table->Load(IntRows(200)).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(table->DeleteAt(0).ok());
  }
  for (int64_t k : {5, 1001, 19999}) {
    ASSERT_TRUE(table->Insert({k, k}).ok());
  }
  auto reference = ScanRows(*table, ScanOptions{});
  ASSERT_EQ(reference.size(), 3u);
  ScanOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 32;
  EXPECT_EQ(ScanRows(*table, opts), reference);
}

TEST(ParallelScanTest, RestrictedBoundsMatchSerial) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 4000, 1000, 37);
  KeyBounds bounds;
  bounds.lo = {Value(int64_t{50'000})};
  bounds.hi = {Value(int64_t{260'000})};
  auto reference = ScanRows(*table, ScanOptions{}, &bounds);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 128;
    EXPECT_EQ(ScanRows(*table, opts, &bounds), reference)
        << threads << " threads";
  }
}

TEST(ParallelScanTest, VdtBackendMatchesSerial) {
  auto table = BuildUpdatedTable(DeltaBackend::kVdt, 2000, 800, 41);
  auto reference = ScanRows(*table, ScanOptions{});
  ASSERT_EQ(reference.size(), table->RowCount());
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 256;
    EXPECT_EQ(ScanRows(*table, opts), reference) << threads << " threads";
    opts.ordered = false;
    auto rows = ScanRows(*table, opts);
    auto sorted_ref = reference;
    SortRows(&rows);
    SortRows(&sorted_ref);
    EXPECT_EQ(rows, sorted_ref) << threads << " threads unordered";
  }
}

TEST(ParallelScanTest, VdtRestrictedBoundsMatchSerial) {
  auto table = BuildUpdatedTable(DeltaBackend::kVdt, 3000, 900, 43);
  KeyBounds bounds;
  bounds.lo = {Value(int64_t{40'000})};
  bounds.hi = {Value(int64_t{200'000})};
  auto reference = ScanRows(*table, ScanOptions{}, &bounds);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 128;
    EXPECT_EQ(ScanRows(*table, opts, &bounds), reference)
        << threads << " threads";
  }
}

TEST(ParallelScanTest, TxnSnapshotStackMatchesSerial) {
  // Multi-layer stack: Read-PDT state (propagated commits), Write-PDT
  // snapshot and an uncommitted Trans-PDT, scanned in parallel.
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
  auto serial = CollectRows(txn->Scan(cols).get());
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 4, 8}) {
    ScanOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 64;
    auto rows = CollectRows(txn->Scan(cols, nullptr, opts).get());
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, *serial) << threads << " threads";
  }
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(ParallelScanTest, MoreThreadsThanMorselsAndTinyBatches) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 300, 150, 47);
  auto reference = ScanRows(*table, ScanOptions{});
  ScanOptions opts;
  opts.num_threads = 8;
  opts.morsel_rows = 1 << 20;  // single morsel
  EXPECT_EQ(ScanRows(*table, opts), reference);
  opts.morsel_rows = 16;  // tiny morsels, tiny consumer batches
  EXPECT_EQ(ScanRows(*table, opts, nullptr, /*batch_size=*/7), reference);
}

TEST(ParallelScanTest, AbandonedScanShutsDownCleanly) {
  auto table = BuildUpdatedTable(DeltaBackend::kPdt, 2000, 400, 53);
  ScanOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 64;
  auto src = table->Scan(AllColumns(table->schema()), nullptr, opts);
  Batch batch;
  auto more = src->Next(&batch, 128);  // start workers, pull one batch
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  src.reset();  // destructor must abort + join without deadlock
}

}  // namespace
}  // namespace pdtstore
