// Memory-budget enforcement: pool/budget/lease charge-release
// invariants, the shared process cap under concurrent chargers, and
// fail-fast ResourceExhausted on oversized sorts and join builds —
// serial breakers included, which stop pulling at the batch that
// crosses the cap — with every byte released on the error path once
// the operators die.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/table.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/pipeline.h"
#include "exec/sort.h"
#include "storage/encoding.h"
#include "util/mem_budget.h"
#include "util/thread_pool.h"

#include "fuzz_util.h"

namespace pdtstore {
namespace {

using testutil::SortTuples;

std::shared_ptr<const Schema> TwoIntSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::unique_ptr<Table> MakeIntTable(const std::string& name, int64_t rows) {
  auto table = std::make_unique<Table>(name, TwoIntSchema(), TableOptions{});
  std::vector<Tuple> init;
  init.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) init.push_back({i, i % 97});
  EXPECT_TRUE(table->Load(init).ok());
  return table;
}

/// A key column and a dictionary-coded string column over `rows / 2048`
/// chunks; row i holds value i % `distinct`, padded past the short-string
/// buffer when `long_values`.
std::unique_ptr<Table> MakeDictTable(const std::string& name, int64_t rows,
                                     int64_t distinct, bool long_values) {
  auto schema =
      Schema::Make({{"k", TypeId::kInt64}, {"s", TypeId::kString}}, {0});
  TableOptions opts;
  opts.store.chunk_rows = 2048;
  opts.store.forced_encodings = {Encoding::kPlain, Encoding::kDict};
  auto table = std::make_unique<Table>(
      name, std::make_shared<const Schema>(std::move(*schema)), opts);
  std::vector<Tuple> init;
  init.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    std::string v = "v" + std::to_string(i % distinct);
    if (long_values) v += std::string(24, 'x');
    init.push_back({i, std::move(v)});
  }
  EXPECT_TRUE(table->Load(init).ok());
  return table;
}

// ---------------------------------------------------------------------
// Pool / budget / lease primitives.
// ---------------------------------------------------------------------

TEST(MemoryPool, ChargeReleaseAndCap) {
  MemoryPool pool(100);
  EXPECT_TRUE(pool.TryCharge(60));
  EXPECT_TRUE(pool.TryCharge(40));
  EXPECT_FALSE(pool.TryCharge(1));  // exactly at cap
  EXPECT_EQ(pool.used(), 100u);
  EXPECT_EQ(pool.peak(), 100u);
  pool.Release(50);
  EXPECT_EQ(pool.used(), 50u);
  EXPECT_EQ(pool.peak(), 100u);  // peak is sticky
  EXPECT_TRUE(pool.TryCharge(50));
  pool.Release(100);
  EXPECT_EQ(pool.used(), 0u);
  // Uncapped pool takes anything.
  MemoryPool open(0);
  EXPECT_TRUE(open.TryCharge(1u << 30));
  open.Release(1u << 30);
}

TEST(MemoryBudget, QueryCapThenPoolWithRollback) {
  MemoryPool pool(100);
  MemoryBudget small("small", 40, &pool);
  EXPECT_TRUE(small.Charge(40).ok());
  Status st = small.Charge(1);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(small.used(), 40u);
  EXPECT_EQ(pool.used(), 40u);

  // A second budget hits the shared pool cap; the rejected charge must
  // roll its query-local accounting back too.
  MemoryBudget big("big", 0, &pool);
  EXPECT_TRUE(big.Charge(60).ok());
  EXPECT_EQ(big.Charge(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(big.used(), 60u);  // failed charge left no residue
  EXPECT_EQ(pool.used(), 100u);

  small.Release(40);
  big.Release(60);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(MemoryBudget, LeaseReleasesOnDestruction) {
  MemoryPool pool(1000);
  auto budget = std::make_shared<MemoryBudget>("q", 0, &pool);
  {
    BudgetLease lease(budget);
    EXPECT_TRUE(lease.Charge(300).ok());
    EXPECT_TRUE(lease.Charge(200).ok());
    EXPECT_EQ(lease.held(), 500u);
    EXPECT_EQ(pool.used(), 500u);
  }  // destructor returns the 500 held bytes
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
  // Null-budget lease is a no-op everywhere.
  BudgetLease unmanaged;
  EXPECT_TRUE(unmanaged.Charge(1u << 30).ok());
  EXPECT_EQ(unmanaged.held(), 0u);
}

TEST(MemoryBudget, ConcurrentChargersRespectSharedCap) {
  constexpr size_t kCap = 1u << 20;
  MemoryPool pool(kCap);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      MemoryBudget budget("t" + std::to_string(t), 0, &pool);
      BudgetLease lease;  // raw budget charges; lease unused here
      (void)lease;
      for (int i = 0; i < 4000; ++i) {
        const size_t bytes = 1 + (static_cast<size_t>(t * 4000 + i) % 4096);
        if (budget.Charge(bytes).ok()) {
          budget.Release(bytes);
        } else {
          failures.fetch_add(1);
        }
      }
      EXPECT_EQ(budget.used(), 0u);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_LE(pool.peak(), kCap);  // TryCharge never overshoots
}

// ---------------------------------------------------------------------
// Operator integration: sorts and join builds charge the thread-local
// query budget and fail fast (releasing everything) when over cap.
// ---------------------------------------------------------------------

TEST(MemoryBudget, OversizedSerialSortFailsAndReleases) {
  auto table = MakeIntTable("sort_budget", 4000);  // ~64 KiB materialized
  MemoryPool pool(0);
  auto budget = std::make_shared<MemoryBudget>("sort", 16 << 10, &pool);
  {
    ScopedBudget ctx(budget);
    SortNode sort(table->Scan({0, 1}), {{1, false}});
    Batch out;
    StatusOr<bool> more = sort.Next(&out, kDefaultBatchSize);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

TEST(MemoryBudget, OversizedParallelSortFailsAndReleases) {
  auto table = MakeIntTable("psort_budget", 4000);
  MemoryPool pool(0);
  auto budget = std::make_shared<MemoryBudget>("psort", 16 << 10, &pool);
  {
    ScopedBudget ctx(budget);
    ScanOptions so;
    so.num_threads = 4;
    Pipeline pipe(table->PlanMorsels({0, 1}, nullptr, so));
    auto out = std::move(pipe).IntoSortBuild({{1, false}});
    auto rows = CollectRows(out.get());
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  }
  ThreadPool::Global().WaitIdle();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

TEST(MemoryBudget, OversizedJoinBuildFailsAndReleases) {
  auto probe = MakeIntTable("probe_budget", 200);
  auto build = MakeIntTable("build_budget", 4000);
  MemoryPool pool(0);
  for (int threads : {1, 4}) {
    auto budget = std::make_shared<MemoryBudget>("join", 16 << 10, &pool);
    {
      ScopedBudget ctx(budget);
      ScanOptions so;
      so.num_threads = threads;
      StatusOr<std::vector<Tuple>> rows = [&]() -> StatusOr<std::vector<Tuple>> {
        if (threads == 1) {
          HashJoinNode join(probe->Scan({0, 1}), build->Scan({0, 1}), {0},
                            {0});
          return CollectRows(&join);
        }
        auto bpipe = std::make_unique<Pipeline>(
            build->PlanMorsels({0, 1}, nullptr, so));
        auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0});
        Pipeline pipe(probe->PlanMorsels({0, 1}, nullptr, so));
        pipe.Probe(handle, {0});
        auto out = std::move(pipe).Exchange();
        return CollectRows(out.get());
      }();
      ASSERT_FALSE(rows.ok()) << threads << " threads";
      EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted)
          << rows.status().ToString();
    }
    // Unrun pipeline helper tasks still queued on the global pool hold
    // op-chain references (and with them the build handle's lease);
    // drain them before checking that every byte came back.
    ThreadPool::Global().WaitIdle();
    EXPECT_EQ(pool.used(), 0u) << threads << " threads";
    EXPECT_EQ(budget->used(), 0u) << threads << " threads";
  }
}

TEST(MemoryBudget, WithinBudgetQueriesMatchUnbudgetedRuns) {
  auto probe = MakeIntTable("probe_ok", 1500);
  auto build = MakeIntTable("build_ok", 800);
  // Reference: no query context at all.
  std::vector<Tuple> ref;
  {
    HashJoinNode join(probe->Scan({0, 1}), build->Scan({0, 1}), {0}, {0});
    auto rows = CollectRows(&join);
    ASSERT_TRUE(rows.ok());
    ref = std::move(*rows);
    SortTuples(&ref);
  }
  MemoryPool pool(64 << 20);
  auto budget = std::make_shared<MemoryBudget>("ok", 32 << 20, &pool);
  {
    ScopedBudget ctx(budget);
    ScanOptions so;
    so.num_threads = 4;
    auto bpipe =
        std::make_unique<Pipeline>(build->PlanMorsels({0, 1}, nullptr, so));
    auto handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0});
    Pipeline pipe(probe->PlanMorsels({0, 1}, nullptr, so));
    pipe.Probe(handle, {0});
    auto out = std::move(pipe).Exchange();
    auto rows = CollectRows(out.get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    SortTuples(&*rows);
    EXPECT_EQ(*rows, ref);
    EXPECT_GT(budget->peak(), 0u);  // the build really was charged
  }
  ThreadPool::Global().WaitIdle();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

// ---------------------------------------------------------------------
// Serial breakers charge as they drain their input, so an over-budget
// sort or join build stops pulling at the batch that crosses the cap
// instead of materializing everything first, and a finished one holds
// exactly what it materialized.
// ---------------------------------------------------------------------

/// Passes batches through and counts the pulls that delivered one.
class CountingSource : public BatchSource {
 public:
  CountingSource(std::unique_ptr<BatchSource> input, int* pulls)
      : input_(std::move(input)), pulls_(pulls) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    PDT_ASSIGN_OR_RETURN(bool more, input_->Next(out, max_rows));
    if (more) ++*pulls_;
    return more;
  }

 private:
  std::unique_ptr<BatchSource> input_;
  int* pulls_;
};

const char* const kSerialBreakers[] = {"sort", "join",
                                       "pipeline join build"};

/// A serial breaker that has drained its input (or failed to); the
/// operator it keeps alive holds the charge.
struct Drained {
  Status status;
  std::unique_ptr<BatchSource> node;        // sort, join
  std::shared_ptr<JoinBuildHandle> handle;  // pipeline join build
};

/// Drains `input`, rows of `table`'s columns {0, 1}, through serial
/// breaker `shape`: a sort on column 1, a HashJoinNode build probed by
/// `probe`, or a one-thread Pipeline::IntoJoinBuild over a plan whose
/// serial source is `input`.
Drained DrainSerialBreaker(const std::string& shape, Table* table,
                           std::unique_ptr<BatchSource> input,
                           Table* probe) {
  Drained d;
  Batch out;
  if (shape == "sort") {
    d.node = std::make_unique<SortNode>(std::move(input),
                                        std::vector<SortKey>{{1, false}});
    d.status = d.node->Next(&out, kDefaultBatchSize).status();
  } else if (shape == "join") {
    d.node = std::make_unique<HashJoinNode>(
        probe->Scan({0, 1}), std::move(input), std::vector<size_t>{0},
        std::vector<size_t>{0});
    d.status = d.node->Next(&out, kDefaultBatchSize).status();
  } else {
    ScanOptions so;
    so.num_threads = 1;
    MorselPlan plan = table->PlanMorsels({0, 1}, nullptr, so);
    EXPECT_NE(plan.serial, nullptr);
    plan.serial = std::move(input);
    d.handle = Pipeline::IntoJoinBuild(
        std::make_unique<Pipeline>(std::move(plan)), {0});
    d.status = d.handle->Resolve().status();
  }
  return d;
}

TEST(MemoryBudget, SerialBreakersStopPullingAtTheCap) {
  // 64 batches of two int columns: 16 KiB each, 1 MiB in all.
  auto table = MakeIntTable("pull_budget", 64 * kDefaultBatchSize);
  auto probe = MakeIntTable("pull_probe", 100);
  constexpr size_t kCap = 64 << 10;  // crossed by the fifth batch
  constexpr int kMaxPulls = 8;
  MemoryPool pool(0);
  for (const char* shape : kSerialBreakers) {
    auto budget = std::make_shared<MemoryBudget>(shape, kCap, &pool);
    int pulls = 0;
    {
      ScopedBudget ctx(budget);
      Drained d = DrainSerialBreaker(
          shape, table.get(),
          std::make_unique<CountingSource>(table->Scan({0, 1}), &pulls),
          probe.get());
      EXPECT_EQ(d.status.code(), StatusCode::kResourceExhausted)
          << shape << ": " << d.status.ToString();
      EXPECT_GT(pulls, 0) << shape;
      EXPECT_LE(pulls, kMaxPulls) << shape;
      EXPECT_LE(budget->peak(), kCap) << shape;
    }
    EXPECT_EQ(pool.used(), 0u) << shape;
    EXPECT_EQ(budget->used(), 0u) << shape;
  }
}

// A dictionary-coded string column over several chunks arrives with one
// dictionary per chunk, so the materialized column adopts the first and
// decays to plain strings at the second. The serial breakers charge what
// the materialization holds — not each pulled batch's size, which counts
// 4-byte codes plus the chunk's whole dictionary — so a cap equal to that
// footprint fits, and one byte less does not. Under a selective filter
// the adopted dictionary outweighs the rows that later decay it, and a
// result drawn from one chunk keeps its dictionary.
TEST(MemoryBudget, SerialBreakersChargeWhatTheyMaterialize) {
  constexpr int64_t kRows = 4 * 2048;
  auto probe = MakeIntTable("charge_probe", 100);
  struct Case {
    const char* name;
    int64_t distinct;
    bool long_values;
    int64_t keep_every;  // rows with k % keep_every == 0 and
    int64_t keep_below;  // k < keep_below pass the filter
  };
  for (const Case& c :
       {Case{"few short values", 5, false, 1, kRows},
        Case{"distinct long values", kRows, true, 1, kRows},
        Case{"distinct long values, 1 in 16 kept", kRows, true, 16, kRows},
        Case{"one chunk of distinct long values", kRows, true, 1, 1500}}) {
    auto table = MakeDictTable("charge_dict", kRows, c.distinct,
                               c.long_values);
    VecPredicate keep = [c](const Batch& b, KeepBitmap* bits) {
      const int64_t* k = b.column(0).ints_data();
      bits->FillFrom([&](size_t i) {
        return k[i] % c.keep_every == 0 && k[i] < c.keep_below;
      });
    };
    auto input = [&]() -> std::unique_ptr<BatchSource> {
      return std::make_unique<FilterNode>(table->Scan({0, 1}), keep);
    };
    Batch first;
    ASSERT_TRUE(input()->Next(&first, kDefaultBatchSize).ok());
    ASSERT_TRUE(first.column(1).is_dict()) << c.name;
    auto ref = MaterializeAll(input().get());
    ASSERT_TRUE(ref.ok());
    const size_t rows = ref->num_rows();
    ASSERT_EQ(rows, static_cast<size_t>(
                        std::min(kRows, c.keep_below) / c.keep_every));
    // Past the first chunk the column decays to plain strings.
    ASSERT_EQ(ref->column(1).is_dict(), c.keep_below <= 2048) << c.name;

    for (const char* shape : kSerialBreakers) {
      const size_t footprint =
          ref->ByteSize() + (std::string(shape) == "sort" ? 4 * rows : 0);
      for (size_t cap : {footprint, footprint - 1}) {
        MemoryPool pool(0);
        auto budget = std::make_shared<MemoryBudget>(shape, cap, &pool);
        {
          ScopedBudget ctx(budget);
          Drained d =
              DrainSerialBreaker(shape, table.get(), input(), probe.get());
          if (cap == footprint) {
            EXPECT_TRUE(d.status.ok()) << c.name << ", " << shape << ": "
                                       << d.status.ToString();
            EXPECT_EQ(budget->used(), footprint) << c.name << ", " << shape;
          } else {
            EXPECT_EQ(d.status.code(), StatusCode::kResourceExhausted)
                << c.name << ", " << shape << ": " << d.status.ToString();
          }
        }
        EXPECT_EQ(budget->used(), 0u) << c.name << ", " << shape;
        EXPECT_EQ(pool.used(), 0u) << c.name << ", " << shape;
      }
    }
  }
}

// The 4-thread sort and join build collect rows per worker, and a
// worker's rows come from several chunk dictionaries, so they hold them
// as plain strings and charge exactly that: the plain footprint of the
// same rows plus 8 bytes a row (sort sequence tags, join hashes),
// whichever worker saw which chunk. A cap of that size completes and one
// byte less fails. Charging each routed batch's ByteSize() instead read
// 0.22x of this for the few short values and 32x for the filtered long
// ones.
TEST(MemoryBudget, ParallelBreakersChargeWhatTheyMaterialize) {
  constexpr int64_t kRows = 4 * 2048;
  constexpr int kThreads = 4;
  struct Case {
    const char* name;
    int64_t distinct;
    bool long_values;
    int64_t keep_every;
    int64_t keep_below;
  };
  for (const Case& c :
       {Case{"few short values", 5, false, 1, kRows},
        Case{"distinct long values", kRows, true, 1, kRows},
        Case{"distinct long values, 1 in 16 kept", kRows, true, 16, kRows},
        Case{"one chunk of distinct long values", kRows, true, 1, 1500}}) {
    auto table = MakeDictTable("parallel_charge", kRows, c.distinct,
                               c.long_values);
    VecPredicate keep = [c](const Batch& b, KeepBitmap* bits) {
      const int64_t* k = b.column(0).ints_data();
      bits->FillFrom([&](size_t i) {
        return k[i] % c.keep_every == 0 && k[i] < c.keep_below;
      });
    };
    auto ref = MaterializeAll(
        std::make_unique<FilterNode>(table->Scan({0, 1}), keep).get());
    ASSERT_TRUE(ref.ok());
    const size_t rows = ref->num_rows();
    Batch plain = *ref;
    size_t footprint = 8 * rows;
    for (size_t col = 0; col < plain.num_columns(); ++col) {
      plain.column(col).EnsureOwnedPlain();
      footprint += plain.column(col).ByteSize();
    }
    ScanOptions so;
    so.num_threads = kThreads;
    for (const char* shape : {"sort", "join build"}) {
      for (size_t cap : {footprint, footprint - 1}) {
        MemoryPool pool(0);
        auto budget = std::make_shared<MemoryBudget>(shape, cap, &pool);
        {
          ScopedBudget ctx(budget);
          MorselPlan plan = table->PlanMorsels({0, 1}, nullptr, so);
          ASSERT_EQ(plan.serial, nullptr);
          Pipeline pipe(std::move(plan));
          pipe.Filter(keep);
          Status status;
          std::unique_ptr<BatchSource> sort;
          std::shared_ptr<JoinBuildHandle> build;
          if (std::string(shape) == "sort") {
            sort = std::move(pipe).IntoSortBuild({{1, false}}, 0);
            Batch out;
            status = sort->Next(&out, kDefaultBatchSize).status();
          } else {
            build = Pipeline::IntoJoinBuild(
                std::make_unique<Pipeline>(std::move(pipe)), {0});
            status = build->Resolve().status();
          }
          if (cap == footprint) {
            EXPECT_TRUE(status.ok())
                << c.name << ", " << shape << ": " << status.ToString();
            EXPECT_EQ(budget->used(), footprint) << c.name << ", " << shape;
          } else {
            EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
                << c.name << ", " << shape << ": " << status.ToString();
          }
        }
        ThreadPool::Global().WaitIdle();
        EXPECT_EQ(budget->used(), 0u) << c.name << ", " << shape;
        EXPECT_EQ(pool.used(), 0u) << c.name << ", " << shape;
      }
    }
  }
}

}  // namespace
}  // namespace pdtstore
