// Concurrent write path: N writer threads commit insert-only
// transactions through one TxnManager with a durable WAL. Writers encode
// their WAL frames outside the manager lock and queue a sealed record;
// the first committer to take the lock decides every queued record in
// order, and the fsync waits run outside the lock so concurrent commits
// share one group-commit fsync. Reports commits/sec, p99 commit latency,
// the time commit work held the lock, fsyncs per transaction and the WAL
// bytes each commit adds to the log:
//
//   bench_write_path [--txns=N] [--ops=K] [--writers=1,2,4,8] [--json=PATH]
//
// Each writer count is one cell, commit_w<N>. After every run the bench
// re-counts the table and aborts if a committed insert went missing.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "txn/txn_manager.h"
#include "util/file.h"
#include "util/stopwatch.h"

namespace pdtstore {
namespace bench {
namespace {

std::shared_ptr<const Schema> BenchSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

struct RunResult {
  double commits_per_sec = 0;
  double p99_commit_ms = 0;
  double lock_us_per_commit = 0;
  double syncs_per_txn = 0;
  double wal_bytes_per_txn = 0;
  double wall_ms = 0;
};

// Runs `total_txns` transactions of `ops_per_txn` inserts each across
// `writers` threads against a fresh table + WAL segment, then verifies
// no committed key was lost.
RunResult RunWorkload(int writers, int total_txns, int ops_per_txn,
                      const std::string& wal_path) {
  Table table("bench", BenchSchema(), TableOptions{});
  Wal wal;
  TxnManager mgr(&table, &wal);
  auto writer = WalWriter::Open(FileSystem::Default(), wal_path,
                                /*truncate=*/true);
  if (!writer.ok()) {
    std::fprintf(stderr, "open %s: %s\n", wal_path.c_str(),
                 writer.status().ToString().c_str());
    std::abort();
  }
  mgr.SetWalWriter(writer->get());

  const int per_thread = total_txns / writers;
  std::atomic<int> failures{0};
  std::vector<std::vector<double>> latencies(writers);
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      latencies[t].reserve(per_thread);
      for (int i = 0; i < per_thread; ++i) {
        auto txn = mgr.Begin();
        // Disjoint keys per worker: no conflicts, so every commit pays
        // exactly the write-path cost being measured.
        const int64_t base =
            (static_cast<int64_t>(t) * per_thread + i) * ops_per_txn;
        bool ok = true;
        for (int k = 0; k < ops_per_txn && ok; ++k) {
          ok = txn->Insert({base + k, base + k}).ok();
        }
        const auto t0 = std::chrono::steady_clock::now();
        if (!ok || !txn->Commit().ok()) {
          failures.fetch_add(1);
          continue;
        }
        latencies[t].push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
    });
  }
  for (auto& w : threads) w.join();
  const double secs = sw.ElapsedSeconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "workload had %d failed commits\n",
                 failures.load());
    std::abort();
  }
  const int committed = per_thread * writers;

  // Key-loss check: every committed insert must be visible through a
  // fresh snapshot (Read ▷ Write, whichever side of a fold they sit).
  {
    auto check = mgr.Begin();
    const uint64_t expect =
        static_cast<uint64_t>(committed) * static_cast<uint64_t>(ops_per_txn);
    if (check->RowCount() != expect) {
      std::fprintf(stderr, "key loss: expected %llu rows, found %llu\n",
                   static_cast<unsigned long long>(expect),
                   static_cast<unsigned long long>(check->RowCount()));
      std::abort();
    }
    check->Abort();
  }

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const TxnManagerStats stats = mgr.GetStats();
  RunResult r;
  r.wall_ms = secs * 1e3;
  r.commits_per_sec = committed / secs;
  r.p99_commit_ms =
      all.empty() ? 0.0
                  : all[std::min(all.size() - 1,
                                 static_cast<size_t>(
                                     static_cast<double>(all.size()) * 0.99))];
  r.lock_us_per_commit =
      static_cast<double>(stats.commit_lock_ns) / 1e3 / committed;
  r.syncs_per_txn = static_cast<double>(stats.wal_syncs) / committed;
  r.wal_bytes_per_txn = static_cast<double>(wal.SizeBytes()) / committed;
  return r;
}

int Main(int argc, char** argv) {
  const int total_txns = FlagNumber<int>(argc, argv, "txns", "2000", 1);
  const int ops_per_txn = FlagNumber<int>(argc, argv, "ops", "4", 1);
  const std::vector<int> writer_counts =
      FlagList<int>(argc, argv, "writers", "1,2,4,8", 1);
  const std::string json_path = FlagValue(argc, argv, "json", "");
  const int max_writers =
      *std::max_element(writer_counts.begin(), writer_counts.end());
  if (total_txns < max_writers) {
    // Fewer transactions than writers would leave a writer idle and
    // divide by zero committed transactions.
    std::fprintf(stderr,
                 "usage: --txns=<integer >= the largest --writers (%d)>: "
                 "bad value '%d'\n",
                 max_writers, total_txns);
    return 1;
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "pdt_bench_write").string();
  std::filesystem::create_directories(dir);
  const std::string wal_path = dir + "/commit.wal";

  JsonResultWriter json;
  std::printf("%-12s %8s %12s %10s %14s %10s %10s\n", "cell", "writers",
              "commits/sec", "p99 ms", "lock us/commit", "syncs/txn",
              "B/txn");
  for (int writers : writer_counts) {
    // Warm-up run settles file creation + allocator noise, then the
    // measured run.
    (void)RunWorkload(writers, total_txns / 4 + writers, ops_per_txn,
                      wal_path);
    RunResult r = RunWorkload(writers, total_txns, ops_per_txn, wal_path);
    const std::string bench = "commit_w" + std::to_string(writers);
    std::printf("%-12s %8d %12.0f %10.3f %14.2f %10.3f %10.1f\n",
                bench.c_str(), writers, r.commits_per_sec, r.p99_commit_ms,
                r.lock_us_per_commit, r.syncs_per_txn, r.wal_bytes_per_txn);
    json.Metric(bench, "commits_per_sec", r.commits_per_sec);
    json.Metric(bench, "p99_commit_ms", r.p99_commit_ms);
    json.Metric(bench, "lock_us_per_commit", r.lock_us_per_commit);
    json.Metric(bench, "syncs_per_txn", r.syncs_per_txn);
    json.Metric(bench, "wal_bytes_per_txn", r.wal_bytes_per_txn);
    json.Metric(bench, "wall_ms", r.wall_ms);
  }
  std::filesystem::remove_all(dir);

  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  return pdtstore::bench::Main(argc, argv);
}
