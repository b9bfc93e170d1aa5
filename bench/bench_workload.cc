// Multi-query workload throughput: a fleet of client threads pushes
// scan-heavy queries through one WorkloadManager (bounded FIFO admission
// in front of the shared worker pool) and reports sustained qps plus
// p50/p99 end-to-end latency — queueing time included, since that is
// what admission control trades against memory safety. Two cells per
// client fleet size, run back to back over the same table:
// workload_c<N> admits every query (8 run slots), noadmit_c<N> runs the
// same fleet and query with no admission and no memory budget, so the
// pair shows what admission itself buys.
//
//   bench_workload [--queries=N] [--clients=1,8,64,256] [--rows=R]
//                  [--json=PATH]
//
// On a single core the client fleet is time-sliced, so latency numbers
// are upper bounds.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "exec/pipeline.h"
#include "exec/workload.h"
#include "util/stopwatch.h"

namespace pdtstore {
namespace bench {
namespace {

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(q * (sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

struct RunResult {
  double wall_s = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t queries = 0;
  uint64_t rejected = 0;
};

// `clients` threads drain a shared counter of `total` queries, each one
// admitted through `mgr` (when non-null) and scanning the whole table
// (project k0 + v0, unordered 4-way morsel plan, drain through an
// exchange). The query is deliberately scan-dominated.
RunResult RunFleet(const Table& table, WorkloadManager* mgr, int clients,
                   uint64_t total) {
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::vector<double>> lat(clients);

  Stopwatch wall;
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      lat[c].reserve(total / clients + 1);
      while (next.fetch_add(1) < total) {
        Stopwatch sw;
        std::shared_ptr<QueryTicket> ticket;
        if (mgr != nullptr) {
          auto admitted = mgr->Admit("bench");
          if (!admitted.ok()) {
            rejected.fetch_add(1);
            continue;
          }
          ticket = std::move(*admitted);
        }
        ScopedQuery scope(std::move(ticket));
        ScanOptions so;
        so.num_threads = 4;
        // Fixed fine morsels, not auto-tuned whole chunks, so the
        // recorded cells stay comparable across runs and revisions.
        so.morsel_rows = 4096;
        Pipeline pipe(table.PlanMorsels({0, 1}, nullptr, so));
        auto out = std::move(pipe).Exchange();
        Batch batch;
        uint64_t rows = 0;
        while (true) {
          auto more = out->Next(&batch, kDefaultBatchSize);
          if (!more.ok() || !*more) break;
          rows += batch.num_rows();
        }
        (void)rows;
        lat[c].push_back(sw.ElapsedMillis());
      }
    });
  }
  for (auto& t : fleet) t.join();

  RunResult r;
  r.wall_s = wall.ElapsedMillis() / 1000.0;
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  r.queries = all.size();
  r.rejected = rejected.load();
  r.qps = r.wall_s > 0 ? r.queries / r.wall_s : 0;
  r.p50_ms = Percentile(&all, 0.50);
  r.p99_ms = Percentile(&all, 0.99);
  return r;
}

int Main(int argc, char** argv) {
  const uint64_t queries = static_cast<uint64_t>(
      FlagNumber<int64_t>(argc, argv, "queries", "512", 1));
  const uint64_t rows = static_cast<uint64_t>(
      FlagNumber<int64_t>(argc, argv, "rows", "800000", 1));
  const std::vector<int> client_counts =
      FlagList<int>(argc, argv, "clients", "1,8,64,256", 1);
  const std::string json_path = FlagValue(argc, argv, "json", "");

  SyntheticSpec spec;
  spec.rows = rows;
  spec.key_cols = 1;
  spec.payload_cols = 1;
  auto table = BuildSynthetic(spec);

  JsonResultWriter json;
  std::printf("%-24s %10s %10s %10s\n", "bench", "qps", "p50_ms", "p99_ms");
  for (int clients : client_counts) {
    // Fresh manager per cell: stats and FIFO state start clean. The
    // wait queue is sized for the whole fleet so qps is not skewed by
    // rejections (admission keeps only 8 queries running at once).
    WorkloadOptions opts;
    opts.max_concurrent = 8;
    opts.max_queued = 4096;
    WorkloadManager mgr(opts);
    const std::pair<std::string, WorkloadManager*> arms[] = {
        {"workload_c", &mgr}, {"noadmit_c", nullptr}};
    for (const auto& [prefix, arm_mgr] : arms) {
      RunResult r = RunFleet(*table, arm_mgr, clients, queries);
      std::string name = prefix + std::to_string(clients);
      std::printf("%-24s %10.1f %10.3f %10.3f\n", name.c_str(), r.qps,
                  r.p50_ms, r.p99_ms);
      json.Metric(name, "qps", r.qps);
      json.Metric(name, "p50_ms", r.p50_ms);
      json.Metric(name, "p99_ms", r.p99_ms);
      json.Metric(name, "queries", static_cast<double>(r.queries));
      json.Metric(name, "rejected", static_cast<double>(r.rejected));
      if (r.queries != queries) {
        std::fprintf(stderr, "%s: expected %llu queries, ran %llu\n",
                     name.c_str(), static_cast<unsigned long long>(queries),
                     static_cast<unsigned long long>(r.queries));
        return 1;
      }
    }
  }
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  return pdtstore::bench::Main(argc, argv);
}
