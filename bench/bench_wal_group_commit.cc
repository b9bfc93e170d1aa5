// Group-commit ablation: the same concurrent commit workload against the
// durable WAL with per-commit fsyncs (every committer flushes its own
// frames — the classic baseline) and with group commit (committers queue
// their frames and one leader fsyncs the batch). Reports txns/sec and
// fsyncs-per-transaction per thread count:
//
//   bench_wal_group_commit [--txns=N] [--threads=1,4,8] [--json=PATH]
//
// The interesting number is syncs_per_txn: per-commit sync pins it at
// 1.0, while group commit drives it toward 1/batch-size as concurrency
// grows — the whole point of batching the durability wait.
#include <atomic>
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
  double txns_per_sec = 0;
  double syncs_per_txn = 0;
  double wall_ms = 0;
};

// Runs `total_txns` single-insert transactions across `threads` workers
// against a fresh table + WAL segment, fsyncing per the mode.
RunResult RunWorkload(bool group_commit, int threads, int total_txns,
                      const std::string& wal_path) {
  Table table("bench", BenchSchema(), TableOptions{});
  Wal wal;
  TxnManagerOptions opts;
  opts.group_commit = group_commit;
  TxnManager mgr(&table, &wal, opts);
  auto writer = WalWriter::Open(FileSystem::Default(), wal_path,
                                /*truncate=*/true);
  if (!writer.ok()) {
    std::fprintf(stderr, "open %s: %s\n", wal_path.c_str(),
                 writer.status().ToString().c_str());
    std::abort();
  }
  mgr.SetWalWriter(writer->get());

  const int per_thread = total_txns / threads;
  std::atomic<int> failures{0};
  Stopwatch sw;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        auto txn = mgr.Begin();
        // Disjoint keys per worker: no conflicts, so every commit pays
        // exactly the durability cost being measured.
        const int64_t key = static_cast<int64_t>(t) * per_thread + i;
        if (!txn->Insert({key, key}).ok() || !txn->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs = sw.ElapsedSeconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "workload had %d failed commits\n",
                 failures.load());
    std::abort();
  }
  const int committed = per_thread * threads;
  RunResult r;
  r.wall_ms = secs * 1e3;
  r.txns_per_sec = committed / secs;
  r.syncs_per_txn =
      static_cast<double>((*writer)->sync_count()) / committed;
  return r;
}

int Main(int argc, char** argv) {
  const int total_txns = std::stoi(FlagValue(argc, argv, "txns", "2000"));
  const std::vector<int> thread_counts =
      FlagList<int>(argc, argv, "threads", "1,4,8");
  const std::string json_path = FlagValue(argc, argv, "json", "");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "pdt_bench_wal").string();
  std::filesystem::create_directories(dir);

  JsonResultWriter json;
  std::printf("%-24s %8s %12s %14s %10s\n", "mode", "threads", "txns/sec",
              "syncs/txn", "wall ms");
  for (int threads : thread_counts) {
    for (bool group : {false, true}) {
      const std::string mode =
          group ? "wal_group_commit" : "wal_sync_per_commit";
      const std::string wal_path = dir + "/" + mode + ".wal";
      // Warm-up run settles file creation + allocator noise, then the
      // measured run.
      (void)RunWorkload(group, threads, total_txns / 4 + threads, wal_path);
      RunResult r = RunWorkload(group, threads, total_txns, wal_path);
      std::printf("%-24s %8d %12.0f %14.3f %10.1f\n", mode.c_str(), threads,
                  r.txns_per_sec, r.syncs_per_txn, r.wall_ms);
      const std::string bench = mode + "_t" + std::to_string(threads);
      json.Metric(bench, "txns_per_sec", r.txns_per_sec);
      json.Metric(bench, "syncs_per_txn", r.syncs_per_txn);
      json.Metric(bench, "wall_ms", r.wall_ms);
    }
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
