// Differential fuzzing of the parallel pipeline engine: every seeded
// iteration builds a random table (random size / chunking / backend /
// per-column encoding mix), applies a random PDT/VDT update workload
// (sometimes through a multi-layer transaction stack), draws a random
// plan (filter / project / partitioned join / aggregation / sort /
// exchange), and runs it four ways: the serial operator tree and
// 2/4/8-thread pipelines over the compressed-execution table, plus a
// serial reference over a byte-identical decoded twin (encoded_exec
// off, key bounds off) built from a copy of the same Random.
// Results must agree: the exact serial sequence where the engine
// promises it (the deterministic sort), the multiset
// everywhere else. Because the decoded reference never sees borrowed
// spans, dictionary codes, RLE run predicates, or a bounded scan
// interval, any compressed-execution or bounded-scan divergence shows
// up as a mismatch.
//
// Knobs (environment):
//   PDT_FUZZ_SEED   base seed (default 20260731)
//   PDT_FUZZ_ITERS  iterations (default 40; the TSan CI job runs 200+)
//
// A failure prints the iteration's seed; rerun exactly that case with
//   PDT_FUZZ_SEED=<seed> PDT_FUZZ_ITERS=1 ./differential_fuzz_test
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_util.h"
#include "txn/multi_txn.h"
#include "txn/txn_manager.h"

namespace pdtstore {
namespace {

using testutil::FuzzPlanResult;
using testutil::FuzzSource;
using testutil::MakeFuzzSource;
using testutil::MakeFuzzTable;
using testutil::RunFuzzPlan;
using testutil::SortTuples;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

// One full iteration from one seed. Records a failure if any thread
// count disagreed with the serial tree; adds to `*chain_bounded` the
// plans whose key bounds fell inside the table's delete chain.
void RunIteration(uint64_t seed, int* chain_bounded) {
  // Two identical decision streams: `rng` drives the compressed-
  // execution source, `rng_dec` its decoded twin. Random is a small
  // value type, so the copy freezes the stream and both builds make
  // exactly the same table / workload / txn choices — only the storage
  // representation differs.
  Random rng(seed);
  Random rng_dec = rng;
  FuzzSource src = MakeFuzzSource(&rng, /*encoded_exec=*/true);
  FuzzSource dec = MakeFuzzSource(&rng_dec, /*encoded_exec=*/false);
  ASSERT_NE(src.table, nullptr);
  ASSERT_NE(dec.table, nullptr);
  // Join build side: a second, smaller table (no txn stack).
  std::unique_ptr<Table> build =
      MakeFuzzTable(&rng, DeltaBackend::kPdt, 60, 250, /*encoded_exec=*/true);
  std::unique_ptr<Table> build_dec = MakeFuzzTable(
      &rng_dec, DeltaBackend::kPdt, 60, 250, /*encoded_exec=*/false);
  ASSERT_NE(build, nullptr);
  ASSERT_NE(build_dec, nullptr);

  // Several plans per table amortize the build cost; each plan seed is
  // derived, so a plan failure still reproduces from the iteration seed.
  const int plans = 3;
  for (int p = 0; p < plans; ++p) {
    const uint64_t plan_seed = seed ^ (0x9E3779B97F4A7C15ULL * (p + 1));
    // Reference: serial tree over the decoded twin, scanning the whole
    // table — the plain row-at-a-time semantics everything else must
    // match.
    FuzzPlanResult ref = RunFuzzPlan(plan_seed, dec, build_dec.get(), 1,
                                     /*key_bounds=*/false);
    ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
    std::vector<Tuple> ref_sorted = ref.rows;
    SortTuples(&ref_sorted);

    // Serial over the encoded source must reproduce the decoded serial
    // sequence exactly: same plan, same row order, different
    // representation (and possibly a bounded scan interval).
    FuzzPlanResult enc = RunFuzzPlan(plan_seed, src, build.get(), 1);
    ASSERT_TRUE(enc.status.ok())
        << enc.status.ToString() << " (plan " << p << ", encoded serial)";
    *chain_bounded += enc.chain_bounded ? 1 : 0;
    EXPECT_EQ(enc.rows, ref.rows)
        << "encoded vs decoded serial mismatch, plan " << p;
    if (::testing::Test::HasFailure()) return;

    for (int threads : {2, 4, 8}) {
      FuzzPlanResult got = RunFuzzPlan(plan_seed, src, build.get(), threads);
      ASSERT_TRUE(got.status.ok())
          << got.status.ToString() << " (plan " << p << ", " << threads
          << " threads)";
      if (got.exact) {
        EXPECT_EQ(got.rows, ref.rows)
            << "exact-sequence mismatch, plan " << p << ", " << threads
            << " threads";
      }
      std::vector<Tuple> got_sorted = std::move(got.rows);
      SortTuples(&got_sorted);
      EXPECT_EQ(got_sorted, ref_sorted)
          << "multiset mismatch, plan " << p << ", " << threads
          << " threads";
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(DifferentialFuzz, SerialAndParallelPlansAgree) {
  constexpr uint64_t kDefaultIters = 40;
  const uint64_t base = EnvOr("PDT_FUZZ_SEED", 20260731);
  const uint64_t iters = EnvOr("PDT_FUZZ_ITERS", kDefaultIters);
  int chain_bounded = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("repro: PDT_FUZZ_SEED=" + std::to_string(seed) +
                 " PDT_FUZZ_ITERS=1 ./differential_fuzz_test");
    RunIteration(seed, &chain_bounded);
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential fuzz failed at seed " << seed
             << " — repro: PDT_FUZZ_SEED=" << seed
             << " PDT_FUZZ_ITERS=1 ./differential_fuzz_test";
    }
  }
  // A full batch must reach a bounded scan over a range the lower layers
  // emptied (a short repro run may not).
  std::printf("bounded scans inside a delete chain: %d\n", chain_bounded);
  if (iters >= kDefaultIters) {
    EXPECT_GT(chain_bounded, 0);
  }
}

// ---------------------------------------------------------------------
// Concurrent write path: N writer threads publish seeded update batches
// into the commit FIFO while reader threads scan pinned snapshots. The
// WAL is the committed sequence in decision order, so replaying it
// serially into a fresh table must reproduce the concurrent final state
// exactly — any lost delta record, mis-ordered commit, or torn snapshot
// diverges.

std::shared_ptr<const Schema> WriteFuzzSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::vector<Tuple> SnapshotRows(const Transaction& txn) {
  auto src = txn.Scan({0, 1});
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

void RunConcurrentWriteIteration(uint64_t seed) {
  Random rng(seed);
  const int writers = 2 + static_cast<int>(rng.Uniform(3));       // 2..4
  const int txns_per_writer = 4 + static_cast<int>(rng.Uniform(5));
  const int64_t init_rows = 20 + static_cast<int64_t>(rng.Uniform(40));
  const int64_t key_domain = init_rows * 2;  // evens exist, odds do not

  // Initial load: every even key in the domain, so deletes/modifies on
  // random keys hit about half the time and conflict across writers.
  std::vector<Tuple> init;
  init.reserve(init_rows);
  for (int64_t i = 0; i < init_rows; ++i) init.push_back({i * 2, i});

  TxnManagerOptions opts;
  // Small Write-PDT cap: commits fold the Write-PDT into the Read-PDT
  // mid-workload, so readers hold snapshots across many Read-PDT
  // installs.
  opts.write_pdt_max_entries = 4 + rng.Uniform(28);

  Table table("fuzz_write", WriteFuzzSchema(), TableOptions{});
  ASSERT_TRUE(table.Load(init).ok());
  Wal wal;
  TxnManager mgr(&table, &wal, opts);

  std::atomic<bool> done{false};
  std::atomic<int> committed{0};

  std::vector<std::thread> threads;
  threads.reserve(writers + 1);
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      Random wr(seed ^ (0xA24BAED4963EE407ULL * (t + 1)));
      // Fresh-insert keys are disjoint per writer; deletes/modifies
      // target the shared domain, so first-committer-wins conflicts
      // abort some transactions (the WAL then omits them).
      int64_t next_key = 1'000'000 + static_cast<int64_t>(t) * 100'000;
      for (int i = 0; i < txns_per_writer; ++i) {
        auto txn = mgr.Begin();
        const int ops = 1 + static_cast<int>(wr.Uniform(4));
        for (int k = 0; k < ops; ++k) {
          switch (wr.Uniform(3)) {
            case 0:
              ASSERT_TRUE(txn->Insert({next_key, next_key}).ok());
              ++next_key;
              break;
            case 1:
              // Missing key (odd) or already-deleted -> NotFound; skip.
              (void)txn->DeleteByKey(
                  {Value(static_cast<int64_t>(wr.Uniform(key_domain)))});
              break;
            default:
              (void)txn->ModifyByKey(
                  {Value(static_cast<int64_t>(wr.Uniform(key_domain)))}, 1,
                  Value(static_cast<int64_t>(wr.Uniform(1 << 20))));
              break;
          }
        }
        switch (wr.Uniform(10)) {
          case 0:
            txn->Abort();
            break;
          case 1:
            // Abort after publication: the record must be withdrawn
            // from the FIFO (or already decided; either way the WAL
            // stays the ground truth).
            (void)txn->Publish();
            txn->Abort();
            break;
          default: {
            Status st = wr.Uniform(2) == 0
                            ? txn->Commit()
                            : [&] {
                                Status p = txn->Publish();
                                return p.ok() ? txn->AwaitCommit() : p;
                              }();
            if (st.ok()) committed.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  // Reader: each snapshot must be internally consistent (RowCount and
  // two scans agree) no matter how folds/merges land around it.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto r = mgr.Begin();
      const uint64_t n = r->RowCount();
      std::vector<Tuple> a = SnapshotRows(*r);
      std::vector<Tuple> b = SnapshotRows(*r);
      EXPECT_EQ(a.size(), n);
      EXPECT_EQ(a, b);
      r->Abort();
      if (::testing::Test::HasFailure()) return;
    }
  });
  for (int t = 0; t < writers; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();
  if (::testing::Test::HasFailure()) return;

  // Serial replay of the committed sequence: recover the WAL into a
  // fresh copy of the initial table and compare final states.
  std::vector<Tuple> final_rows;
  {
    auto check = mgr.Begin();
    final_rows = SnapshotRows(*check);
    check->Abort();
  }
  Table replay("fuzz_write", WriteFuzzSchema(), TableOptions{});
  ASSERT_TRUE(replay.Load(init).ok());
  Wal replay_wal;
  TxnManager replay_mgr(&replay, &replay_wal);
  ASSERT_TRUE(replay_mgr.Recover(wal).ok());
  std::vector<Tuple> replay_rows;
  {
    auto check = replay_mgr.Begin();
    replay_rows = SnapshotRows(*check);
    check->Abort();
  }
  EXPECT_EQ(final_rows, replay_rows)
      << "concurrent final state diverges from serial WAL replay ("
      << committed.load() << " committed txns)";
}

TEST(DifferentialFuzz, ConcurrentWritersMatchSerialReplay) {
  const uint64_t base = EnvOr("PDT_FUZZ_SEED", 20260731);
  const uint64_t iters = EnvOr("PDT_FUZZ_ITERS", 40);
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("repro: PDT_FUZZ_SEED=" + std::to_string(seed) +
                 " PDT_FUZZ_ITERS=1 ./differential_fuzz_test"
                 " --gtest_filter='*ConcurrentWriters*'");
    RunConcurrentWriteIteration(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "concurrent write fuzz failed at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------
// Multi-table writer mode: N threads drive cross-table transactions
// (parent row + child rows inserted or deleted together) through one
// MultiTxnManager while a reader checks referential integrity on every
// snapshot — an orphaned child row means a transaction tore. The WAL is
// the committed sequence in fold order; replaying it serially into
// fresh tables must reproduce both final states exactly.

std::shared_ptr<const Schema> ParentFuzzSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::shared_ptr<const Schema> ChildFuzzSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"line", TypeId::kInt64},
                         {"q", TypeId::kInt64}},
                        {0, 1});
  return std::make_shared<const Schema>(std::move(*s));
}

std::vector<Tuple> MultiSnapshotRows(const MultiTransaction& txn,
                                     const std::string& table,
                                     std::vector<ColumnId> proj) {
  auto src = txn.Scan(table, std::move(proj));
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

void RunMultiTableWriteIteration(uint64_t seed) {
  Random rng(seed);
  const int writers = 2 + static_cast<int>(rng.Uniform(3));  // 2..4
  const int txns_per_writer = 4 + static_cast<int>(rng.Uniform(5));
  const int64_t init_parents = 16 + static_cast<int64_t>(rng.Uniform(24));
  const int64_t key_domain = init_parents * 2;  // evens exist

  std::vector<Tuple> parent_init;
  std::vector<Tuple> child_init;
  for (int64_t i = 0; i < init_parents; ++i) {
    parent_init.push_back({i * 2, i});
    child_init.push_back({i * 2, 0, i});
    child_init.push_back({i * 2, 1, i + 1});
  }

  TxnManagerOptions opts;
  opts.write_pdt_max_entries = 4 + rng.Uniform(28);

  Table parent("parent", ParentFuzzSchema(), TableOptions{});
  Table child("child", ChildFuzzSchema(), TableOptions{});
  ASSERT_TRUE(parent.Load(parent_init).ok());
  ASSERT_TRUE(child.Load(child_init).ok());
  Wal wal;
  MultiTxnManager mgr({&parent, &child}, &wal, opts);

  std::atomic<bool> done{false};
  std::atomic<int> committed{0};

  std::vector<std::thread> threads;
  threads.reserve(writers + 1);
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      Random wr(seed ^ (0xA24BAED4963EE407ULL * (t + 1)));
      int64_t next_key = 1'000'001 + static_cast<int64_t>(t) * 100'000;
      for (int i = 0; i < txns_per_writer; ++i) {
        auto txn = mgr.Begin();
        const int ops = 1 + static_cast<int>(wr.Uniform(3));
        for (int k = 0; k < ops; ++k) {
          if (wr.Uniform(2) == 0) {
            // Insert a fresh parent with 1..3 child lines, atomically.
            const int64_t key = next_key++;
            ASSERT_TRUE(txn->Insert("parent", {key, key}).ok());
            const int lines = 1 + static_cast<int>(wr.Uniform(3));
            for (int l = 0; l < lines; ++l) {
              ASSERT_TRUE(txn->Insert("child", {key, l, key + l}).ok());
            }
          } else {
            // Cascade-delete a random key: parent plus every line it
            // could have (missing lines are NotFound skips), so a
            // committed delete can never strand a child row.
            const int64_t key =
                static_cast<int64_t>(wr.Uniform(key_domain));
            Status st = txn->DeleteByKey("parent", {Value(key)});
            if (!st.ok()) continue;  // missing or already gone
            for (int64_t l = 0; l < 3; ++l) {
              (void)txn->DeleteByKey("child", {Value(key), Value(l)});
            }
          }
        }
        switch (wr.Uniform(10)) {
          case 0:
            txn->Abort();
            break;
          case 1:
            (void)txn->Publish();  // then withdraw from the FIFO
            txn->Abort();
            break;
          default: {
            Status st = wr.Uniform(2) == 0
                            ? txn->Commit()
                            : [&] {
                                Status p = txn->Publish();
                                return p.ok() ? txn->AwaitCommit() : p;
                              }();
            if (st.ok()) committed.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  // Reader: every snapshot must be internally consistent AND
  // referentially intact across the two tables.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto r = mgr.Begin();
      std::vector<Tuple> parents = MultiSnapshotRows(*r, "parent", {0, 1});
      std::vector<Tuple> children =
          MultiSnapshotRows(*r, "child", {0, 1, 2});
      std::set<int64_t> parent_keys;
      for (const Tuple& row : parents) {
        parent_keys.insert(row[0].AsInt64());
      }
      for (const Tuple& row : children) {
        EXPECT_TRUE(parent_keys.count(row[0].AsInt64()))
            << "orphan child of parent " << row[0].AsInt64()
            << " (torn cross-table transaction)";
      }
      auto n = r->RowCount("parent");
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(parents.size(), *n);
      r->Abort();
      if (::testing::Test::HasFailure()) return;
    }
  });
  for (int t = 0; t < writers; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();
  if (::testing::Test::HasFailure()) return;

  // Serial replay into fresh tables must reproduce both final states.
  std::vector<Tuple> parent_final, child_final;
  {
    auto check = mgr.Begin();
    parent_final = MultiSnapshotRows(*check, "parent", {0, 1});
    child_final = MultiSnapshotRows(*check, "child", {0, 1, 2});
    check->Abort();
  }
  Table parent2("parent", ParentFuzzSchema(), TableOptions{});
  Table child2("child", ChildFuzzSchema(), TableOptions{});
  ASSERT_TRUE(parent2.Load(parent_init).ok());
  ASSERT_TRUE(child2.Load(child_init).ok());
  MultiTxnManager replay_mgr({&parent2, &child2}, nullptr);
  ASSERT_TRUE(replay_mgr.Recover(wal).ok());
  {
    auto check = replay_mgr.Begin();
    EXPECT_EQ(parent_final, MultiSnapshotRows(*check, "parent", {0, 1}))
        << "parent diverges from serial WAL replay (" << committed.load()
        << " committed txns)";
    EXPECT_EQ(child_final, MultiSnapshotRows(*check, "child", {0, 1, 2}))
        << "child diverges from serial WAL replay";
    check->Abort();
  }
}

TEST(DifferentialFuzz, MultiTableWritersMatchSerialReplay) {
  const uint64_t base = EnvOr("PDT_FUZZ_SEED", 20260731);
  const uint64_t iters = EnvOr("PDT_FUZZ_ITERS", 40);
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("repro: PDT_FUZZ_SEED=" + std::to_string(seed) +
                 " PDT_FUZZ_ITERS=1 ./differential_fuzz_test"
                 " --gtest_filter='*MultiTableWriters*'");
    RunMultiTableWriteIteration(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "multi-table write fuzz failed at seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pdtstore
