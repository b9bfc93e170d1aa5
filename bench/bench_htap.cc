// HTAP scenario bench (the paper's central claim, measured end to end):
// N writers apply TPC-H refresh streams as cross-table atomic
// transactions (orders + lineitem in one commit, via MultiTxnManager's
// delta-chain write path with a durable group-commit WAL) while M
// readers run TPC-H pipeline kernels over the same tables, with
// background Write→Read propagation and periodic quiet-point
// checkpoints shrinking the PDT layers as ingest grows them. Reports,
// per (writers, readers) configuration, the HTAP SLO quantities:
// p50/p99/p999 query latency under ingest and ingest rows/sec under
// scans, plus the layer dynamics (peaks, merges, checkpoints).
//
//   bench_htap [--sf=0.05] [--configs=1x2,2x2,4x4] [--streams=3]
//              [--fraction=0.003] [--json=PATH]
//
// On a single core the reader/writer interleaving is time-sliced, so
// latency percentiles are upper bounds — the concurrency the numbers
// exist to show needs real cores (see DESIGN.md "HTAP harness").
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "tpch/htap_driver.h"
#include "util/file.h"

namespace pdtstore {
namespace bench {
namespace {

struct Config {
  int writers = 0;
  int readers = 0;
};

std::vector<Config> ParseConfigs(const std::string& s) {
  std::vector<Config> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    std::string item = s.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    size_t x = item.find('x');
    if (x != std::string::npos) {
      Config c;
      c.writers = std::atoi(item.substr(0, x).c_str());
      c.readers = std::atoi(item.substr(x + 1).c_str());
      if (c.writers > 0 && c.readers >= 0) out.push_back(c);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int Run(int argc, char** argv) {
  const double sf = FlagNumber<double>(argc, argv, "sf", "0.05");
  std::vector<Config> configs = ParseConfigs(
      FlagValue(argc, argv, "configs", "1x2,2x2,4x4"));
  const std::string json_path = FlagValue(argc, argv, "json", "");
  const int streams_per_writer =
      FlagNumber<int>(argc, argv, "streams", "3");
  const double fraction =
      FlagNumber<double>(argc, argv, "fraction", "0.003");
  if (configs.empty() || sf <= 0 || streams_per_writer <= 0 ||
      fraction <= 0) {
    std::fprintf(stderr, "bad --configs / --sf / --streams / --fraction\n");
    return 1;
  }

  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "pdtstore_bench_htap")
          .string();
  std::filesystem::create_directories(wal_dir);

  JsonResultWriter json;
  std::printf(
      "%-12s %9s %9s %9s %11s %8s %8s %6s\n", "config", "p50_ms",
      "p99_ms", "p999_ms", "ingest_r/s", "queries", "merges", "ckpts");
  for (const Config& c : configs) {
    Database db;
    tpch::GenOptions gen;
    gen.scale_factor = sf;
    auto tables = tpch::GenerateInto(&db, gen, TableOptions{});
    if (!tables.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   tables.status().ToString().c_str());
      return 1;
    }
    Wal wal;
    const std::string wal_path =
        wal_dir + "/htap_w" + std::to_string(c.writers) + "_r" +
        std::to_string(c.readers) + ".wal";
    auto writer = WalWriter::Open(FileSystem::Default(), wal_path,
                                  /*truncate=*/true);
    if (!writer.ok()) {
      std::fprintf(stderr, "open %s: %s\n", wal_path.c_str(),
                   writer.status().ToString().c_str());
      return 1;
    }

    tpch::HtapOptions opts;
    opts.writers = c.writers;
    opts.readers = c.readers;
    opts.streams_per_writer = streams_per_writer;
    opts.stream_fraction = fraction;
    opts.orders_per_txn = 4;
    opts.maintenance_interval_ms = 25;
    opts.checkpoint_read_entries = 4096;
    auto report =
        tpch::RunHtapScenario(gen, &*tables, &wal, writer->get(), opts);
    if (!report.ok()) {
      std::fprintf(stderr, "scenario w%d r%d: %s\n", c.writers, c.readers,
                   report.status().ToString().c_str());
      return 1;
    }

    const std::string name = "htap_w" + std::to_string(c.writers) + "_r" +
                             std::to_string(c.readers);
    std::printf("%-12s %9.3f %9.3f %9.3f %11.0f %8llu %8llu %6llu\n",
                name.c_str(), report->query_latency.p50_ms,
                report->query_latency.p99_ms, report->query_latency.p999_ms,
                report->ingest_rows_per_sec,
                static_cast<unsigned long long>(report->queries_run),
                static_cast<unsigned long long>(report->background_merges),
                static_cast<unsigned long long>(report->checkpoints));
    json.Metric(name, "query_p50_ms", report->query_latency.p50_ms);
    json.Metric(name, "query_p99_ms", report->query_latency.p99_ms);
    json.Metric(name, "query_p999_ms", report->query_latency.p999_ms);
    json.Metric(name, "query_max_ms", report->query_latency.max_ms);
    json.Metric(name, "queries_run",
                static_cast<double>(report->queries_run));
    json.Metric(name, "ingest_rows_per_sec", report->ingest_rows_per_sec);
    json.Metric(name, "rows_ingested",
                static_cast<double>(report->rows_ingested));
    json.Metric(name, "groups_committed",
                static_cast<double>(report->groups_committed));
    json.Metric(name, "conflict_retries",
                static_cast<double>(report->conflict_retries));
    json.Metric(name, "txns_committed",
                static_cast<double>(report->committed));
    json.Metric(name, "background_merges",
                static_cast<double>(report->background_merges));
    json.Metric(name, "checkpoints",
                static_cast<double>(report->checkpoints));
    json.Metric(name, "checkpoint_stall_ms_max",
                report->checkpoint_stall_ms_max);
    json.Metric(name, "read_pdt_peak",
                static_cast<double>(report->read_pdt_peak));
    json.Metric(name, "write_pdt_peak",
                static_cast<double>(report->write_pdt_peak));
    json.Metric(name, "merge_pending_peak",
                static_cast<double>(report->merge_pending_peak));
    json.Metric(name, "wal_syncs", static_cast<double>(report->wal_syncs));
    json.Metric(name, "writer_wall_s", report->writer_wall_s);
    json.Metric(name, "wall_s", report->wall_s);
  }

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
  return pdtstore::bench::Run(argc, argv);
}
