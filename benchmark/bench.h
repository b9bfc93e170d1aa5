// pdtbench: the repository's end-to-end benchmark (see README.md).
//
// One process runs one workload: it builds its TPC-H state from the seed,
// runs a measured phase of fixed length, checks that the engine's outputs
// are correct, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run). The benchmark drives the engine only through its
// public facades — tpch generation / refresh / queries, Database, Table
// scans and checkpoints, and the transaction managers' stats — so the
// layers below can be refactored without touching this directory.
#ifndef PDTBENCH_BENCH_H_
#define PDTBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/update_stream.h"

namespace pdtbench {

using pdtstore::Database;
using pdtstore::DatabaseOptions;
using pdtstore::Status;
using pdtstore::StatusOr;
using pdtstore::TableOptions;
namespace tpch = pdtstore::tpch;

/// Everything one run is parameterised by (command-line flags).
struct RunConfig {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 15;
  bool trace = false;
  double scale_factor = 0.1;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 3;
};

/// Where a run writes (WAL segments, database files, its trace), relative
/// to the checkout root it runs from; run.sh builds into the same place.
inline constexpr const char* kWorkDir = ".bench_build";

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
  /// Samples behind a percentile or median (0 = not a sample statistic).
  uint64_t samples = 0;
};

/// What a run reports. End-to-end metrics come from the untraced
/// measured phase; per-layer metrics only from a traced run.
struct RunResult {
  /// Operations and correctness checks attempted / failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first failures, for the log.
  std::vector<std::string> errors;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Free-form lines printed as comments (filesystem type, sizes).
  std::vector<std::string> notes;

  bool correct() const { return failed == 0; }
  /// Records a failed operation or check.
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  /// Records one attempted check, failed if `st` is an error.
  void Check(const Status& st, const std::string& what) {
    ++attempted;
    if (!st.ok()) Fail(what + ": " + st.ToString());
  }
  /// Records one attempted check, failed unless `ok`.
  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  /// Adds the counts of a load thread's own tally.
  void Absorb(const RunResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
  void E2e(const std::string& name, double v, const char* unit,
           uint64_t n = 0) {
    e2e[name] = Metric{v, unit, n};
  }
  void Layer(const std::string& name, double v, const char* unit,
             uint64_t n = 0) {
    layer[name] = Metric{v, unit, n};
  }
};

/// A generated TPC-H database and its table handles.
struct TpchDb {
  std::unique_ptr<Database> db;
  tpch::TpchTables tables;
};

/// Result digest of a query or a full-table drain.
struct Digest {
  uint64_t rows = 0;
  double checksum = 0;
};

/// Rows equal and checksums within a relative 1e-6 (parallel and merged
/// scans may change floating-point summation order, not results).
bool DigestsAgree(const Digest& a, const Digest& b);
/// Whether two results of query `q` agree; `parallel` if either ran
/// with several threads. Q11 ends in ORDER BY sum LIMIT 50 over heavily
/// tied sums (retail prices repeat every 1000 parts), and the parallel
/// aggregation hands tied groups to the sort in a timing-dependent order,
/// so a parallel run may return a different, equally valid set of tied
/// rows: only its row count is compared then.
bool QueryResultsAgree(int q, const Digest& a, const Digest& b,
                       bool parallel);

// Workload entry points (workloads.cc). Each fills `*out`.
void RunOlap(const RunConfig& cfg, bool cold, RunResult* out);
void RunHtap(const RunConfig& cfg, RunResult* out);
void RunIngest(const RunConfig& cfg, RunResult* out);

// ---------------------------------------------------------------------
// Building blocks shared by the workloads and the layer probes
// (probes.cc).
// ---------------------------------------------------------------------

constexpr int kNumQueries = 22;
/// Worker threads of the parallel query configuration.
constexpr int kParallelThreads = 4;

tpch::GenOptions GenFor(const RunConfig& cfg);

/// The TPC-H refresh load of the paper's Fig. 19: 2 disjoint streams,
/// each inserting and deleting 0.1% of the orders (with their lineitems).
StatusOr<std::vector<tpch::UpdateStream>> RefreshStreams(
    const RunConfig& cfg);

struct BuildTimes {
  double generate_s = 0;
  double refresh_s = 0;
};

/// Generates the TPC-H tables — in memory, or persistent via
/// Database::Open when `dir` is non-empty — then applies `refresh` with
/// ApplyUpdateStream.
StatusOr<TpchDb> BuildTpch(const RunConfig& cfg, const DatabaseOptions& dbo,
                           const TableOptions& topts,
                           const std::vector<tpch::UpdateStream>& refresh,
                           const std::string& dir, BuildTimes* times);

/// Latency samples per query number (index 1..22).
using QuerySamples = std::vector<std::vector<double>>;

/// Runs TPC-H query `q` inside a `tpch.query` span. `*traced` tells
/// whether the span was recorded.
StatusOr<Digest> RunQuery(int q, const tpch::TpchTables& tables, int threads,
                          bool* traced = nullptr);
/// Runs the 22 queries once inside a `tpch.pass` span, appending each
/// latency to `ms` (may be null) and setting `(*digests)[q]`.
Status RunPass(const tpch::TpchTables& tables, int threads, QuerySamples* ms,
               std::vector<Digest>* digests);

/// The workload's system under test, as the probes see it.
struct SutInfo {
  const TpchDb* sut = nullptr;
  DatabaseOptions dbo;
  /// Refresh streams the SUT's logical state carries on top of the
  /// generated tables (empty when its load returned it to that state).
  std::vector<tpch::UpdateStream> refresh;
};

/// Per-layer probes, run after the measured phase of a traced run:
/// lineitem drains and serial 22-query passes on the SUT, on a checkpointed
/// twin of its logical state, and on PDT/VDT twins carrying the Fig. 19
/// refresh load. `query_ms` holds the measured phase's per-query samples
/// and gains the probe passes' samples before tpch.qNN_ms is reported.
void RunProbes(const RunConfig& cfg, const SutInfo& info,
               QuerySamples* query_ms, RunResult* out);

}  // namespace pdtbench

#endif  // PDTBENCH_BENCH_H_
