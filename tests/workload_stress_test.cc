// Concurrent-workload stress: many shell-level queries (admitted
// through a WorkloadManager, scanning/aggregating/sorting one table,
// some deliberately over their memory budget)
// degrade gracefully — every query either completes, fails fast with
// ResourceExhausted, or is rejected at the bounded admission queue, and
// the accounting returns to zero afterwards. Plus targeted regressions:
// strict FIFO admission order, no barging by a client that re-admits
// right after its own query finished, and fast rejection on a full
// queue.
//
// Knobs (environment):
//   PDT_WORKLOAD_QUERIES  total queries in the stress run (default 1000;
//                         the TSan CI stage runs a smaller batch)
//   PDT_WORKLOAD_SEED     base seed (default 20260808)
//
// Decisions all derive from (seed, query index), so a failure reproduces
// deterministically up to thread interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/table.h"
#include "exec/pipeline.h"
#include "exec/workload.h"
#include "util/random.h"

namespace pdtstore {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::shared_ptr<const Schema> StressSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::unique_ptr<Table> MakeStressTable(int64_t rows) {
  auto table =
      std::make_unique<Table>("stress", StressSchema(), TableOptions{});
  std::vector<Tuple> init;
  init.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) init.push_back({i, i % 97});
  EXPECT_TRUE(table->Load(init).ok());
  return table;
}

// ---------------------------------------------------------------------
// Admission order and bounded queueing.
// ---------------------------------------------------------------------

TEST(WorkloadAdmission, StrictFifoOrder) {
  WorkloadOptions opts;
  opts.max_concurrent = 1;
  opts.max_queued = 64;
  WorkloadManager mgr(opts);

  auto gate = *mgr.Admit("gate");  // occupy the single slot
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread> arrivals;
  constexpr int kArrivals = 12;
  for (int i = 0; i < kArrivals; ++i) {
    arrivals.emplace_back([&, i] {
      auto t = mgr.Admit("q" + std::to_string(i));
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      // Ticket dies here -> next waiter admitted.
    });
    // Serialize arrival order: wait until this arrival is queued before
    // launching the next, so FIFO has a defined expectation.
    while (mgr.GetStats().queued != static_cast<uint64_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  gate.reset();  // release the slot; the queue drains one by one
  for (auto& t : arrivals) t.join();

  std::vector<int> expect(kArrivals);
  for (int i = 0; i < kArrivals; ++i) expect[i] = i;
  EXPECT_EQ(order, expect) << "admission order is not FIFO";

  WorkloadStats s = mgr.GetStats();
  EXPECT_EQ(s.admitted, static_cast<uint64_t>(kArrivals) + 1);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.active, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.queued_peak, static_cast<uint64_t>(kArrivals));
}

// A finishing query wakes the head waiter, but the waiter needs the
// manager mutex to take the freed slot. A client that re-admits straight
// after releasing its ticket must queue behind that waiter, not take the
// slot first: StrictFifoOrder cannot see this, because there only the
// gate ever releases and nobody re-admits.
TEST(WorkloadAdmission, ReturningClientDoesNotOvertakeWaiters) {
  WorkloadOptions opts;
  opts.max_concurrent = 1;
  opts.max_queued = 64;
  WorkloadManager mgr(opts);

  constexpr int kIterations = 100;
  int barged = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto gate = *mgr.Admit("gate");
    std::mutex mu;
    std::vector<std::string> order;
    std::thread waiter([&] {
      auto t = mgr.Admit("waiter");
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      std::lock_guard<std::mutex> lock(mu);
      order.push_back("waiter");
      // Ticket dies here -> the returning client is admitted.
    });
    while (mgr.GetStats().queued != 1) std::this_thread::yield();

    gate.reset();  // finish, and come straight back
    auto again = mgr.Admit("again");
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back("again");
    }
    again->reset();
    waiter.join();
    ASSERT_EQ(order.size(), 2u);
    if (order.front() != "waiter") ++barged;
  }
  EXPECT_EQ(barged, 0) << "a returning client overtook the queued waiter in "
                       << barged << "/" << kIterations << " iterations";

  WorkloadStats s = mgr.GetStats();
  EXPECT_EQ(s.admitted, 3u * kIterations);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.active, 0u);
  EXPECT_EQ(s.queued, 0u);
}

TEST(WorkloadAdmission, FullQueueRejectsImmediately) {
  WorkloadOptions opts;
  opts.max_concurrent = 1;
  opts.max_queued = 2;
  WorkloadManager mgr(opts);

  auto gate = *mgr.Admit("gate");
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&] {
      auto t = mgr.Admit("waiter");
      EXPECT_TRUE(t.ok());
    });
  }
  while (mgr.GetStats().queued != 2) std::this_thread::yield();

  // Queue is full: the next arrival must fail fast, not block.
  auto rejected = mgr.Admit("overflow");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(mgr.GetStats().rejected, 1u);

  gate.reset();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(mgr.GetStats().active, 0u);
}

// ---------------------------------------------------------------------
// The headline stress: PDT_WORKLOAD_QUERIES shell-level queries from 16
// driver threads through one WorkloadManager (4 run slots, bounded
// queue, tight per-query memory caps). Every 7th query is a memory hog
// whose sort materialization exceeds its budget — it must fail fast
// with ResourceExhausted while everything else completes. Afterwards:
// all accounting back to zero.
// ---------------------------------------------------------------------

TEST(WorkloadStress, ConcurrentQueriesDegradeGracefully) {
  const uint64_t total = EnvOr("PDT_WORKLOAD_QUERIES", 1000);
  const uint64_t seed = EnvOr("PDT_WORKLOAD_SEED", 20260808);
  constexpr int64_t kRows = 6000;
  auto table = MakeStressTable(kRows);

  WorkloadOptions opts;
  opts.max_concurrent = 4;
  opts.max_queued = 8;
  opts.process_memory_cap = 2 << 20;
  opts.per_query_memory_cap = 64 << 10;  // a full-table sort exceeds this
  WorkloadManager mgr(opts);

  std::atomic<uint64_t> ok{0}, exhausted{0}, rejected{0};
  std::atomic<uint64_t> next_query{0};
  std::mutex err_mu;
  std::vector<std::string> unexpected;

  auto run_one = [&](uint64_t qid) {
    auto ticket = mgr.Admit("q" + std::to_string(qid));
    if (!ticket.ok()) {
      if (ticket.status().code() == StatusCode::kResourceExhausted) {
        rejected.fetch_add(1);
        return;
      }
      std::lock_guard<std::mutex> lock(err_mu);
      unexpected.push_back(ticket.status().ToString());
      return;
    }
    ScopedQuery scope(*ticket);
    Random rng(seed ^ (qid * 0x9E3779B97F4A7C15ULL + 1));
    ScanOptions so;
    so.num_threads = 1 + static_cast<int>(rng.Uniform(4));
    so.ordered = false;

    Status st;
    if (qid % 7 == 0) {
      // Memory hog: full-table sort, ~140 KiB of charges against a
      // 64 KiB cap -> must degrade into ResourceExhausted, not OOM.
      Pipeline pipe(table->PlanMorsels({0, 1}, nullptr, so));
      auto out = std::move(pipe).IntoSortBuild({{0, false}});
      st = CollectRows(out.get()).status();
    } else {
      switch (rng.Uniform(3)) {
        case 0: {  // grouped count
          Pipeline pipe(table->PlanMorsels({0, 1}, nullptr, so));
          auto out =
              std::move(pipe).Aggregate({1}, {{AggKind::kCount, 0},
                                              {AggKind::kSum, 0}});
          st = CollectRows(out.get()).status();
          break;
        }
        case 1: {  // filtered sort, well within budget
          const int64_t m = 8 + static_cast<int64_t>(rng.Uniform(8));
          const int64_t r = static_cast<int64_t>(rng.Uniform(m));
          Pipeline pipe(table->PlanMorsels({0, 1}, nullptr, so));
          pipe.Filter([m, r](const Batch& b, KeepBitmap* keep) {
            const int64_t* v = b.column(1).ints_data();
            keep->FillFrom([&](size_t i) { return v[i] % m == r; });
          });
          auto out = std::move(pipe).IntoSortBuild({{1, false}, {0, true}});
          st = CollectRows(out.get()).status();
          break;
        }
        default: {  // plain unordered exchange drain
          Pipeline pipe(table->PlanMorsels({0, 1}, nullptr, so));
          auto out = std::move(pipe).Exchange();
          st = CollectRows(out.get()).status();
          break;
        }
      }
    }
    if (st.ok()) {
      ok.fetch_add(1);
    } else if (st.code() == StatusCode::kResourceExhausted) {
      exhausted.fetch_add(1);
    } else {
      std::lock_guard<std::mutex> lock(err_mu);
      unexpected.push_back("qid " + std::to_string(qid) + ": " +
                           st.ToString());
    }
  };

  constexpr int kDrivers = 16;
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&] {
      while (true) {
        const uint64_t qid = next_query.fetch_add(1);
        if (qid >= total) return;
        run_one(qid);
      }
    });
  }
  for (auto& t : drivers) t.join();

  EXPECT_TRUE(unexpected.empty())
      << unexpected.size() << " queries failed with unexpected errors, "
      << "first: " << unexpected.front();
  EXPECT_EQ(ok.load() + exhausted.load() + rejected.load(), total);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(exhausted.load(), 0u) << "no hog hit its memory budget";

  WorkloadStats s = mgr.GetStats();
  EXPECT_EQ(s.admitted, ok.load() + exhausted.load());
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.rejected, rejected.load());
  EXPECT_EQ(s.active, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.memory_used, 0u) << "query memory leaked into the pool";
  EXPECT_LE(s.memory_peak, opts.process_memory_cap)
      << "the shared cap was overshot";
}

}  // namespace
}  // namespace pdtstore
