// The four workloads. Each builds its state cfg.setup_reps times (setup_s
// is the median), checks it, runs a measured phase of cfg.seconds with a
// fixed number of load threads, checks the engine's outputs again, and
// reports. Why each workload exists is in README.md.
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iterator>
#include <thread>

#include "bench.h"
#include "stats.h"
#include "trace.h"
#include "txn/multi_txn.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"
#include "util/file.h"

namespace pdtbench {
namespace {

using namespace std::chrono_literals;
using pdtstore::IoStats;
using pdtstore::MultiTxnManager;
using pdtstore::Table;
using pdtstore::TxnManager;
using pdtstore::Wal;
using tpch::UpdateStream;

// The load shape. Fixed constants, never derived from the machine.
/// olap_cold's buffer pool: a quarter of the ~93 MB decoded working set
/// at SF 0.1, so LRU misses on every scan.
constexpr size_t kColdPoolBytes = size_t{24} << 20;
constexpr size_t kOrdersPerGroup = 4;
constexpr double kHtapGroupsPerSec = 200;
/// htap_mixed's Write-PDT cap. One stream/inverse cycle keeps at most
/// ~2.3k entries in the Write-PDT, under the default cap of 4096, so the
/// default would never propagate; at 1024 (the HTAP harness's value) the
/// Write-PDT is propagated into the Read-PDT during every run.
constexpr size_t kHtapWritePdtMaxEntries = 1024;
/// htap_mixed fails if its writer falls below this share of its rate.
constexpr double kHtapMinRateShare = 0.99;
constexpr int kHtapReaders = 3;
constexpr int kIngestWriters = 4;
/// Share of the orders each writer's refresh stream inserts and deletes.
constexpr double kWriterStreamFraction = 0.001;
constexpr int kHtapQueries[] = {1, 6, 12, 14};
constexpr auto kSampleEvery = 100ms;
/// A traced run alternates tracing on and off in windows this long and
/// compares the op latencies of the two halves (trace.overhead_op_p50).
constexpr auto kTraceWindow = 500ms;

// ---------------------------------------------------------------------
// Measurement plumbing.
// ---------------------------------------------------------------------

// Foreground-operation latencies of one load thread.
struct OpLog {
  // Latencies by op type (0 = a commit, 1..22 = that query), and the same
  // split by whether the op's span was recorded.
  QuerySamples by_type = QuerySamples(kNumQueries + 1);
  QuerySamples traced_ms = QuerySamples(kNumQueries + 1);
  QuerySamples untraced_ms = QuerySamples(kNumQueries + 1);
  uint64_t ops = 0;
  uint64_t done_in_phase = 0;   // ops finished before the deadline
  Clock::time_point last_done;  // when the last of those finished

  void Add(int type, Clock::time_point begin, Clock::time_point end,
           bool traced) {
    const double v = MillisBetween(begin, end);
    by_type[type].push_back(v);
    (traced ? traced_ms : untraced_ms)[type].push_back(v);
    ++ops;
  }
  // Counts `n` ops as completed at `at`, if that is within the phase.
  void Complete(uint64_t n, Clock::time_point at, Clock::time_point deadline) {
    if (at > deadline) return;
    done_in_phase += n;
    last_done = std::max(last_done, at);
  }
  void Merge(const OpLog& o) {
    ops += o.ops;
    done_in_phase += o.done_in_phase;
    last_done = std::max(last_done, o.last_done);
    for (int t = 0; t <= kNumQueries; ++t) {
      for (auto [mine, theirs] : {std::pair{&by_type, &o.by_type},
                                  std::pair{&traced_ms, &o.traced_ms},
                                  std::pair{&untraced_ms, &o.untraced_ms}}) {
        (*mine)[t].insert((*mine)[t].end(), (*theirs)[t].begin(),
                          (*theirs)[t].end());
      }
    }
  }
};

// Commit-side samples of a write load.
struct CommitLog {
  std::vector<double> from_due_ms;  // completion minus due time
  std::vector<double> service_ms;   // completion minus call start
  double late_max_ms = 0;           // worst call start minus due time
  uint64_t rows = 0;                // rows of the groups recorded
  uint64_t all_groups = 0;          // every group, incl. cycle ends
  uint64_t all_rows = 0;

  void Record(Clock::time_point due, Clock::time_point begin,
              Clock::time_point end, uint64_t group_rows) {
    from_due_ms.push_back(MillisBetween(due, end));
    service_ms.push_back(MillisBetween(begin, end));
    late_max_ms = std::max(late_max_ms, MillisBetween(due, begin));
    rows += group_rows;
  }
  void Merge(const CommitLog& o) {
    from_due_ms.insert(from_due_ms.end(), o.from_due_ms.begin(),
                       o.from_due_ms.end());
    service_ms.insert(service_ms.end(), o.service_ms.begin(),
                      o.service_ms.end());
    late_max_ms = std::max(late_max_ms, o.late_max_ms);
    rows += o.rows;
    all_groups += o.all_groups;
    all_rows += o.all_rows;
  }
};

// Write-path counters, read through GetStats() before and after a load.
struct TxnCounters {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t fold_batches = 0;
  uint64_t folded_records = 0;
  uint64_t commit_lock_ns = 0;
  uint64_t wal_syncs = 0;
  uint64_t background_merges = 0;
  uint64_t wal_bytes = 0;
};

TxnCounters CountersOf(const MultiTxnManager& mgr, const Wal& wal) {
  const pdtstore::MultiTxnStats s = mgr.GetStats();
  TxnCounters c;
  c.committed = s.committed;
  c.aborted = s.aborted;
  c.fold_batches = s.fold_batches;
  c.folded_records = s.folded_records;
  c.commit_lock_ns = s.commit_lock_ns;
  c.wal_syncs = s.wal_syncs;
  for (const auto& t : s.tables) c.background_merges += t.background_merges;
  c.wal_bytes = wal.SizeBytes();
  return c;
}

// The two per-table managers Database::Txn hands out share one WAL.
TxnCounters CountersOf(const TxnManager& a, const TxnManager& b,
                       const Wal* wal) {
  const pdtstore::TxnManagerStats sa = a.GetStats();
  const pdtstore::TxnManagerStats sb = b.GetStats();
  TxnCounters c;
  c.committed = sa.committed + sb.committed;
  c.aborted = sa.aborted + sb.aborted;
  c.fold_batches = sa.fold_batches + sb.fold_batches;
  c.folded_records = sa.folded_records + sb.folded_records;
  c.commit_lock_ns = sa.commit_lock_ns + sb.commit_lock_ns;
  // Both count the fsyncs of the one shared writer.
  c.wal_syncs = std::max(sa.wal_syncs, sb.wal_syncs);
  c.background_merges = sa.background_merges + sb.background_merges;
  c.wal_bytes = wal != nullptr ? wal->SizeBytes() : 0;
  return c;
}

void ReportTxn(const CommitLog& log, const TxnCounters& a,
               const TxnCounters& b, double seconds,
               uint64_t conflict_retries, RunResult* out) {
  auto per = [](double x, uint64_t n) { return n > 0 ? x / n : 0.0; };
  const uint64_t n = log.from_due_ms.size();
  out->Layer("txn.commit_p50_ms", Percentile(log.from_due_ms, 0.50), "ms", n);
  out->Layer("txn.commit_p99_ms", Percentile(log.from_due_ms, 0.99), "ms", n);
  out->Layer("txn.commit_service_p50_ms", Percentile(log.service_ms, 0.50),
             "ms", n);
  out->Layer("txn.commit_service_p99_ms", Percentile(log.service_ms, 0.99),
             "ms", n);
  out->Layer("txn.sched_late_max_ms", log.late_max_ms, "ms", n);
  out->Layer("txn.rows_per_s", log.rows / seconds, "1/s");
  out->Layer("txn.records_per_fold",
             per(b.folded_records - a.folded_records,
                 b.fold_batches - a.fold_batches),
             "count");
  out->Layer("txn.lock_us_per_commit",
             per((b.commit_lock_ns - a.commit_lock_ns) / 1e3,
                 b.committed - a.committed),
             "us");
  out->Layer("txn.wal_syncs_per_group",
             per(b.wal_syncs - a.wal_syncs, log.all_groups), "count");
  out->Layer("txn.wal_bytes_per_row",
             per(b.wal_bytes - a.wal_bytes, log.all_rows), "B");
  out->Layer("txn.wal_buffer_mb_end", b.wal_bytes / 1e6, "MB");
  out->Layer("txn.conflict_retries", conflict_retries, "count");
  out->Layer("txn.background_merges",
             b.background_merges - a.background_merges, "count");
}

// PDT layer sizes sampled during the measured phase.
struct LayerPeaks {
  uint64_t read = 0;
  uint64_t write = 0;
  uint64_t pending = 0;
  double delta_mb = 0;

  void Note(uint64_t r, uint64_t w, uint64_t p, double mb) {
    read = std::max(read, r);
    write = std::max(write, w);
    pending = std::max(pending, p);
    delta_mb = std::max(delta_mb, mb);
  }
  void Report(RunResult* out) const {
    out->Layer("pdt.read_entries_peak", read, "count");
    out->Layer("pdt.write_entries_peak", write, "count");
    out->Layer("pdt.merge_pending_peak", pending, "count");
    out->Layer("pdt.delta_mb_peak", delta_mb, "MB");
  }
};

double DeltaMb(const tpch::TpchTables& t) {
  return (t.orders->DeltaMemoryBytes() + t.lineitem->DeltaMemoryBytes()) /
         1e6;
}

// The measured phase. Load threads poll running(); the main thread
// supervises: it tracks the heap's peak and, in a traced run, samples
// layer state and alternates tracing windows.
class Phase {
 public:
  explicit Phase(const RunConfig& cfg) : cfg_(cfg) {}

  void Start() {
    start_ = Clock::now();
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(cfg_.seconds));
  }
  bool running() const { return Clock::now() < deadline_; }
  Clock::time_point start() const { return start_; }
  Clock::time_point deadline() const { return deadline_; }
  double seconds() const { return cfg_.seconds; }
  double peak_heap_mb() const { return peak_heap_mb_; }

  // `sample_layers` runs only in a traced run.
  void Supervise(const std::function<void()>& sample_layers) {
    bool tracing = true;
    Clock::time_point toggle = start_ + kTraceWindow;
    while (running()) {
      Clock::time_point wake =
          std::min(Clock::now() + kSampleEvery, deadline_);
      if (cfg_.trace) wake = std::min(wake, toggle);
      std::this_thread::sleep_until(wake);
      peak_heap_mb_ = std::max(peak_heap_mb_, HeapInUseMb());
      if (!cfg_.trace) continue;
      sample_layers();
      if (Clock::now() >= toggle) {
        tracing = !tracing;
        SetTracing(tracing);
        toggle += kTraceWindow;
      }
    }
    if (cfg_.trace) SetTracing(true);
  }

 private:
  const RunConfig& cfg_;
  Clock::time_point start_;
  Clock::time_point deadline_;
  double peak_heap_mb_ = 0;
};

void ReportOps(const OpLog& log, const Phase& phase, bool traced,
               RunResult* out) {
  const uint64_t n = log.ops;
  // Op types differ by orders of magnitude (the 22 queries), so a
  // percentile over the mix just picks out one type's latency and jumps
  // when the mix shifts. The end-to-end latency is the geometric mean of
  // the types' medians instead (TPC-H's power-metric style); the traced
  // run adds the percentiles over the mix, and the tail as the 95th
  // percentile of each op's latency over its own type's median.
  double log_sum = 0;
  int types = 0;
  std::vector<double> all, slowdown;
  for (const std::vector<double>& ms : log.by_type) {
    if (ms.empty()) continue;
    const double median = Median(ms);
    log_sum += std::log(median);
    ++types;
    for (double v : ms) slowdown.push_back(v / median);
    all.insert(all.end(), ms.begin(), ms.end());
  }
  out->E2e("op_latency_ms", types > 0 ? std::exp(log_sum / types) : 0.0,
           "ms", n);
  // Completed ops over the time it took to complete them (a rate with
  // all its digits, not a count quantised by the phase length).
  const double busy_s = SecondsBetween(phase.start(), log.last_done);
  out->E2e("ops_per_s", busy_s > 0 ? log.done_in_phase / busy_s : 0.0,
           "1/s", log.done_in_phase);
  out->E2e("peak_heap_mb", phase.peak_heap_mb(), "MB");
  if (!traced) return;
  out->Layer("op_p50_ms", Percentile(all, 0.50), "ms", n);
  out->Layer("op_p95_ms", Percentile(all, 0.95), "ms", n);
  out->Layer("op_p99_ms", Percentile(all, 0.99), "ms", n);
  out->Layer("op_p95_slowdown", Percentile(slowdown, 0.95), "ratio", n);
  // Compared type by type: a tracing window holds a different mix of
  // queries than the next one.
  double on = 0, off = 0;
  for (int t = 0; t <= kNumQueries; ++t) {
    if (log.traced_ms[t].empty() || log.untraced_ms[t].empty()) continue;
    on += Median(log.traced_ms[t]);
    off += Median(log.untraced_ms[t]);
  }
  out->Layer("trace.overhead_op_p50", off > 0 ? on / off : 0.0, "ratio", n);
}

void ReportStorage(const IoStats& a, const IoStats& b, uint64_t ops,
                   RunResult* out) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double reads = static_cast<double>(b.chunks_read - a.chunks_read);
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  out->Layer("storage.hit_rate",
             hits + reads > 0 ? hits / (hits + reads) : 0.0, "ratio");
  out->Layer("storage.mb_read_per_op",
             (b.bytes_read - a.bytes_read) / 1e6 * per_op, "MB");
  out->Layer("storage.chunks_skipped_per_op",
             static_cast<double>(b.chunks_skipped - a.chunks_skipped) * per_op,
             "count");
}

// The run's private scratch directory, removed when the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const RunConfig& cfg)
      : path_(std::string(kWorkDir) + "/scratch/" + cfg.workload + "-" +
              std::to_string(getpid())) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Builds the workload's state cfg.setup_reps times, keeping the last
// copy (each earlier one is destroyed before the next is built).
// `after(rep, db)` runs untimed after each build.
StatusOr<TpchDb> SetUp(
    const RunConfig& cfg,
    const std::function<StatusOr<TpchDb>(int, BuildTimes*)>& build,
    const std::function<Status(int, TpchDb*)>& after, RunResult* out) {
  std::vector<double> setup_s, generate_s, refresh_s;
  TpchDb kept;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    kept = TpchDb{};
    BuildTimes bt;
    const Clock::time_point t0 = Clock::now();
    PDT_ASSIGN_OR_RETURN(kept, build(rep, &bt));
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    generate_s.push_back(bt.generate_s);
    refresh_s.push_back(bt.refresh_s);
    if (after) PDT_RETURN_NOT_OK(after(rep, &kept));
  }
  out->E2e("setup_s", Median(setup_s), "s", setup_s.size());
  out->Layer("db.generate_s", Median(generate_s), "s", generate_s.size());
  // The write workloads refresh nothing in set-up; their probes time the
  // refresh on a twin and overwrite this.
  out->Layer("db.refresh_s", Median(refresh_s), "s", refresh_s.size());
  return kept;
}

// Digests of the htap query set, the state check of the write workloads.
std::vector<Digest> StateDigests(const tpch::TpchTables& t, RunResult* out) {
  std::vector<Digest> d(kNumQueries + 1);
  for (int q : kHtapQueries) {
    auto r = RunQuery(q, t, 1);
    out->Check(r.status(), "q" + std::to_string(q));
    if (r.ok()) d[q] = *r;
  }
  return d;
}

// The write workloads apply whole stream/inverse cycles, so the tables
// must end exactly where they started.
void VerifyRestored(const tpch::TpchTables& t, uint64_t orders_rows,
                    uint64_t lineitem_rows, const std::vector<Digest>& before,
                    RunResult* out) {
  out->Expect(t.orders->RowCount() == orders_rows,
              "orders row count " + std::to_string(t.orders->RowCount()) +
                  " != starting " + std::to_string(orders_rows));
  out->Expect(t.lineitem->RowCount() == lineitem_rows,
              "lineitem row count " + std::to_string(t.lineitem->RowCount()) +
                  " != starting " + std::to_string(lineitem_rows));
  const std::vector<Digest> after = StateDigests(t, out);
  for (int q : kHtapQueries) {
    out->Expect(DigestsAgree(after[q], before[q]),
                "q" + std::to_string(q) + " result changed across the run");
  }
  for (const Table* table : {t.orders, t.lineitem}) {
    out->Check(table->SharedPdt()->CheckInvariants(),
               table->name() + " PDT invariants");
  }
}

UpdateStream Inverse(const UpdateStream& s) {
  return UpdateStream{s.deletes, s.inserts};
}

uint64_t RowsOf(const UpdateStream& s) {
  uint64_t rows = 0;
  for (const auto* list : {&s.inserts, &s.deletes}) {
    for (const tpch::GeneratedOrder& o : *list) rows += 1 + o.lineitems.size();
  }
  return rows;
}

// `s` then its inverse, cut into single-kind mini-streams of at most
// kOrdersPerGroup orders, so that each ApplyUpdateStreamTxn call commits
// one refresh group. The whole cycle restores the starting state.
std::vector<UpdateStream> MiniCycle(const UpdateStream& s) {
  std::vector<UpdateStream> cycle;
  const UpdateStream inv = Inverse(s);
  for (const UpdateStream* half : {&s, &inv}) {
    for (bool inserts : {true, false}) {
      const auto& orders = inserts ? half->inserts : half->deletes;
      for (size_t i = 0; i < orders.size(); i += kOrdersPerGroup) {
        const size_t end = std::min(i + kOrdersPerGroup, orders.size());
        UpdateStream mini;
        (inserts ? mini.inserts : mini.deletes)
            .assign(orders.begin() + i, orders.begin() + end);
        cycle.push_back(std::move(mini));
      }
    }
  }
  return cycle;
}

// A closed-loop writer over Database::Txn's per-table managers: each call
// is due when the previous one completed. Groups that begin before
// `deadline` are recorded; once past it the writer finishes its cycle
// (unrecorded) so the tables return to their starting state.
void ClosedLoopWriter(const std::vector<UpdateStream>& cycle, TxnManager* om,
                      TxnManager* lm, Clock::time_point start,
                      Clock::time_point deadline, int max_cycles, OpLog* ops,
                      CommitLog* log, RunResult* tally) {
  Clock::time_point due = start;
  for (int c = 0; c < max_cycles; ++c) {
    for (const UpdateStream& mini : cycle) {
      const Clock::time_point begin = Clock::now();
      bool traced = false;
      Status st;
      {
        Span span("txn.refresh_group");
        traced = span.active();
        st = tpch::ApplyUpdateStreamTxn(mini, om, lm, kOrdersPerGroup);
      }
      const Clock::time_point end = Clock::now();
      ++tally->attempted;
      if (!st.ok()) {
        tally->Fail("refresh group: " + st.ToString());
        return;
      }
      const uint64_t rows = RowsOf(mini);
      ++log->all_groups;
      log->all_rows += rows;
      if (begin < deadline) {
        log->Record(due, begin, end, rows);
        if (ops != nullptr) {
          ops->Add(0, begin, end, traced);
          ops->Complete(1, end, deadline);
        }
      }
      due = end;
    }
    if (Clock::now() >= deadline) return;
  }
}

// The olap workloads commit nothing, so their traced run reports the txn
// layer from this probe: the inverse of one refresh stream and then the
// stream again (the state ends unchanged), committed group by group
// through Database::Txn's managers — an in-memory WAL, no fsync.
void RunCommitProbe(const RunConfig& cfg, TpchDb* sut, RunResult* out) {
  auto streams = RefreshStreams(cfg);
  auto om = sut->db->Txn("orders");
  auto lm = sut->db->Txn("lineitem");
  out->Check(streams.status(), "refresh streams");
  out->Check(om.status(), "orders transaction manager");
  out->Check(lm.status(), "lineitem transaction manager");
  if (!streams.ok() || !om.ok() || !lm.ok()) return;
  const tpch::TpchTables& t = sut->tables;
  const uint64_t orders_rows = t.orders->RowCount();
  const uint64_t lineitem_rows = t.lineitem->RowCount();
  const TxnCounters before = CountersOf(**om, **lm, sut->db->wal());
  CommitLog log;
  RunResult tally;
  const Clock::time_point t0 = Clock::now();
  ClosedLoopWriter(MiniCycle(Inverse((*streams)[0])), *om, *lm, t0,
                   Clock::time_point::max(), 1, nullptr, &log, &tally);
  const double seconds = SecondsBetween(t0, Clock::now());
  const TxnCounters after = CountersOf(**om, **lm, sut->db->wal());
  out->Absorb(tally);
  out->Check((*om)->PropagateAndMaybeCheckpoint(), "orders propagation");
  out->Check((*lm)->PropagateAndMaybeCheckpoint(), "lineitem propagation");
  out->Expect(t.orders->RowCount() == orders_rows &&
                  t.lineitem->RowCount() == lineitem_rows,
              "the commit probe changed the row counts");
  ReportTxn(log, before, after, seconds, after.aborted - before.aborted, out);
}

}  // namespace

// ---------------------------------------------------------------------
// olap_hot / olap_cold: one closed-loop client runs the 22 queries
// serially over the refreshed tables, on an unbounded pool (hot) or on a
// quarter-size pool (cold). Queries run on the serial operator tree:
// 4-thread pipeline timings spread 15-20% from run to run on the
// reference VM against 3-6% serially, so the pipelines are measured as a
// same-run ratio in the traced run instead (exec.parallel_speedup).
// ---------------------------------------------------------------------

void RunOlap(const RunConfig& cfg, bool cold, RunResult* out) {
  DatabaseOptions dbo;
  if (cold) dbo.buffer_pool_bytes = kColdPoolBytes;
  auto streams = RefreshStreams(cfg);
  out->Check(streams.status(), "refresh streams");
  if (!streams.ok()) return;

  // The first copy is checkpointed into the twin whose query results are
  // the reference for every query the run makes.
  std::vector<Digest> reference;
  auto sut = SetUp(
      cfg,
      [&](int, BuildTimes* bt) {
        return BuildTpch(cfg, dbo, TableOptions{}, *streams, "", bt);
      },
      [&](int rep, TpchDb* db) -> Status {
        if (rep != 0) return Status::OK();
        PDT_RETURN_NOT_OK(db->tables.lineitem->Checkpoint());
        PDT_RETURN_NOT_OK(db->tables.orders->Checkpoint());
        return RunPass(db->tables, 1, nullptr, &reference);
      },
      out);
  out->Check(sut.status(), "set-up");
  if (!sut.ok()) return;
  const tpch::TpchTables& tables = sut->tables;

  // Warm-up, which is also the check of both execution modes.
  for (int t : {1, kParallelThreads}) {
    std::vector<Digest> got;
    Status st = RunPass(tables, t, nullptr, &got);
    out->Check(st, "warm-up pass");
    if (!st.ok()) return;
    for (int q = 1; q <= kNumQueries; ++q) {
      out->Expect(QueryResultsAgree(q, got[q], reference[q], t > 1),
                  "q" + std::to_string(q) + " at " + std::to_string(t) +
                      " threads disagrees with the checkpointed twin: " +
                      std::to_string(got[q].rows) + " rows, checksum " +
                      std::to_string(got[q].checksum) + " vs " +
                      std::to_string(reference[q].rows) + ", " +
                      std::to_string(reference[q].checksum));
    }
  }
  if (!out->correct()) return;
  out->notes.push_back(
      "decoded chunks cached after warm-up: " +
      std::to_string(sut->db->buffer_pool()->cached_bytes() / 1000000) +
      " MB (pool capacity " +
      (cold ? std::to_string(kColdPoolBytes >> 20) + " MiB"
                     : std::string("unbounded")) +
      ")");

  LayerPeaks peaks;
  auto sample = [&] {
    peaks.Note(tables.orders->SharedPdt()->EntryCount() +
                   tables.lineitem->SharedPdt()->EntryCount(),
               0, 0, DeltaMb(tables));
  };
  sample();
  const IoStats io0 = sut->db->io_stats();
  Phase phase(cfg);
  OpLog log;
  RunResult tally;
  phase.Start();
  std::thread client([&] {
    while (phase.running()) {
      Span pass("tpch.pass");
      int q = 1;
      for (; q <= kNumQueries && phase.running(); ++q) {
        const Clock::time_point t0 = Clock::now();
        bool traced = false;
        auto got = RunQuery(q, tables, 1, &traced);
        const Clock::time_point t1 = Clock::now();
        log.Add(q, t0, t1, traced);
        ++tally.attempted;
        if (!got.ok()) {
          tally.Fail("q" + std::to_string(q) + ": " +
                     got.status().ToString());
        } else if (!QueryResultsAgree(q, *got, reference[q], false)) {
          tally.Fail("q" + std::to_string(q) +
                     " disagrees with the checkpointed twin");
        }
      }
      // Throughput counts whole passes only, so that it does not depend
      // on which queries a cut-off pass happened to reach.
      if (q > kNumQueries) {
        log.Complete(kNumQueries, Clock::now(), phase.deadline());
      }
    }
  });
  phase.Supervise(sample);
  client.join();
  const IoStats io1 = sut->db->io_stats();
  out->Absorb(tally);

  ReportOps(log, phase, cfg.trace, out);
  if (!cfg.trace) return;
  ReportStorage(io0, io1, log.ops, out);
  peaks.Report(out);
  SutInfo info;
  info.sut = &*sut;
  info.dbo = dbo;
  info.refresh = *streams;
  RunProbes(cfg, info, &log.by_type, out);
  RunCommitProbe(cfg, &*sut, out);
}

// ---------------------------------------------------------------------
// htap_mixed: one open-loop writer commits cross-table refresh groups
// through a MultiTxnManager with a durable WAL while three closed-loop
// readers run Q1/Q6/Q12/Q14 over direct scans.
// ---------------------------------------------------------------------

void RunHtap(const RunConfig& cfg, RunResult* out) {
  ScratchDir scratch(cfg);
  out->notes.push_back("WAL: group commit, fsync per group on " +
                       FilesystemType(scratch.path()));
  const DatabaseOptions dbo{};
  auto sut = SetUp(
      cfg,
      [&](int, BuildTimes* bt) {
        return BuildTpch(cfg, dbo, TableOptions{}, {}, "", bt);
      },
      nullptr, out);
  out->Check(sut.status(), "set-up");
  if (!sut.ok()) return;
  const tpch::TpchTables& tables = sut->tables;
  auto streams =
      tpch::MakeUpdateStreams(GenFor(cfg), 1, kWriterStreamFraction);
  out->Check(streams.status(), "update stream");
  if (!streams.ok()) return;
  // One stream, applied and then undone, again and again: the load can
  // run as long as the phase does and the Read-PDT stays bounded.
  const UpdateStream& fwd = (*streams)[0];
  const UpdateStream inv = Inverse(fwd);
  const std::vector<tpch::RefreshGroup> fwd_groups =
      tpch::PlanRefreshGroups(fwd, kOrdersPerGroup);
  const std::vector<tpch::RefreshGroup> inv_groups =
      tpch::PlanRefreshGroups(inv, kOrdersPerGroup);

  const uint64_t orders_rows = tables.orders->RowCount();
  const uint64_t lineitem_rows = tables.lineitem->RowCount();
  const std::vector<Digest> before = StateDigests(tables, out);  // warms up
  if (!out->correct()) return;

  Wal wal;
  auto wal_writer = pdtstore::WalWriter::Open(
      pdtstore::FileSystem::Default(), scratch.path() + "/htap.wal", true);
  out->Check(wal_writer.status(), "opening the WAL");
  if (!wal_writer.ok()) return;
  pdtstore::TxnManagerOptions txn_opts;
  txn_opts.write_pdt_max_entries = kHtapWritePdtMaxEntries;
  MultiTxnManager mgr({tables.orders, tables.lineitem}, &wal, txn_opts);
  mgr.SetWalWriter(wal_writer->get());
  tpch::MultiTxnApplyOptions apply_opts;
  apply_opts.orders_per_txn = kOrdersPerGroup;

  LayerPeaks peaks;
  auto sample = [&] {
    const pdtstore::MultiTxnStats s = mgr.GetStats();
    uint64_t r = 0, w = 0, p = 0;
    for (const auto& t : s.tables) {
      r += t.read_pdt_entries;
      w += t.write_pdt_entries;
      p += t.merge_pending_entries;
    }
    peaks.Note(r, w, p, DeltaMb(tables));
  };
  const TxnCounters c0 = CountersOf(mgr, wal);
  const IoStats io0 = sut->db->io_stats();
  Phase phase(cfg);
  phase.Start();

  CommitLog commits;
  tpch::MultiTxnApplyStats apply_stats;
  uint64_t groups_in_phase = 0;  // recorded groups that also finished in it
  RunResult writer_tally;
  std::thread writer([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kHtapGroupsPerSec));
    int64_t i = 0;
    auto next_due = [&] { return phase.start() + period * i; };
    do {
      for (const auto& [stream, groups] :
           {std::pair{&fwd, &fwd_groups}, std::pair{&inv, &inv_groups}}) {
        for (const tpch::RefreshGroup& g : *groups) {
          // Groups due in the phase run on schedule and are recorded;
          // the rest of the last cycle runs at once, unrecorded.
          const Clock::time_point due = next_due();
          const bool recorded = due < phase.deadline();
          if (recorded) {
            std::this_thread::sleep_until(due);
            ++i;
          }
          const uint64_t rows0 =
              apply_stats.rows_inserted + apply_stats.rows_deleted;
          const Clock::time_point begin = Clock::now();
          Status st;
          {
            Span span("txn.refresh_group");
            st = tpch::ApplyRefreshGroupMultiTxn(*stream, g, &mgr, apply_opts,
                                                 &apply_stats);
          }
          const Clock::time_point end = Clock::now();
          ++writer_tally.attempted;
          if (!st.ok()) {
            writer_tally.Fail("refresh group: " + st.ToString());
            return;
          }
          const uint64_t rows =
              apply_stats.rows_inserted + apply_stats.rows_deleted - rows0;
          ++commits.all_groups;
          commits.all_rows += rows;
          if (recorded) {
            commits.Record(due, begin, end, rows);
            if (end <= phase.deadline()) ++groups_in_phase;
          }
        }
      }
    } while (next_due() < phase.deadline());
  });
  std::vector<OpLog> logs(kHtapReaders);
  std::vector<RunResult> reader_tally(kHtapReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kHtapReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t k = static_cast<size_t>(r);  // readers start on different queries
      while (phase.running()) {
        const int q = kHtapQueries[k++ % std::size(kHtapQueries)];
        const Clock::time_point t0 = Clock::now();
        bool traced = false;
        auto got = RunQuery(q, tables, 1, &traced);
        const Clock::time_point t1 = Clock::now();
        logs[r].Add(q, t0, t1, traced);
        logs[r].Complete(1, t1, phase.deadline());
        ++reader_tally[r].attempted;
        if (!got.ok()) {
          reader_tally[r].Fail("q" + std::to_string(q) + ": " +
                               got.status().ToString());
        }
      }
    });
  }
  phase.Supervise(sample);
  for (std::thread& t : readers) t.join();
  writer.join();
  const IoStats io1 = sut->db->io_stats();
  const TxnCounters c1 = CountersOf(mgr, wal);

  OpLog log;
  for (int r = 0; r < kHtapReaders; ++r) {
    log.Merge(logs[r]);
    out->Absorb(reader_tally[r]);
  }
  out->Absorb(writer_tally);
  const double achieved = groups_in_phase / phase.seconds();
  out->Expect(achieved >= kHtapMinRateShare * kHtapGroupsPerSec,
              "writer achieved " + std::to_string(achieved) +
                  " groups/s, below 99% of its target");
  out->Check(mgr.PropagateAndMaybeCheckpoint(), "final propagation");
  VerifyRestored(tables, orders_rows, lineitem_rows, before, out);

  ReportOps(log, phase, cfg.trace, out);
  if (!cfg.trace) return;
  ReportStorage(io0, io1, log.ops, out);
  peaks.Report(out);
  ReportTxn(commits, c0, c1, phase.seconds(), apply_stats.conflict_retries,
            out);
  SutInfo info;
  info.sut = &*sut;
  info.dbo = dbo;
  RunProbes(cfg, info, &log.by_type, out);
}

// ---------------------------------------------------------------------
// ingest: four closed-loop writers commit refresh groups through the
// per-table TxnManagers of a persistent Database; no readers.
// ---------------------------------------------------------------------

void RunIngest(const RunConfig& cfg, RunResult* out) {
  ScratchDir scratch(cfg);
  out->notes.push_back("WAL: group commit, fsync per group on " +
                       FilesystemType(scratch.path()));
  const DatabaseOptions dbo{};
  auto db_dir = [&](int rep) {
    return scratch.path() + "/db" + std::to_string(rep);
  };
  auto sut = SetUp(
      cfg,
      [&](int rep, BuildTimes* bt) {
        if (rep > 0) {
          std::error_code ec;
          std::filesystem::remove_all(db_dir(rep - 1), ec);
        }
        return BuildTpch(cfg, dbo, TableOptions{}, {}, db_dir(rep), bt);
      },
      nullptr, out);
  out->Check(sut.status(), "set-up");
  if (!sut.ok()) return;
  const tpch::TpchTables& tables = sut->tables;
  auto streams = tpch::MakeUpdateStreams(GenFor(cfg), kIngestWriters,
                                         kWriterStreamFraction);
  out->Check(streams.status(), "update streams");
  if (!streams.ok()) return;
  const uint64_t orders_rows = tables.orders->RowCount();
  const uint64_t lineitem_rows = tables.lineitem->RowCount();
  const std::vector<Digest> before = StateDigests(tables, out);
  auto om = sut->db->Txn("orders");
  auto lm = sut->db->Txn("lineitem");
  out->Check(om.status(), "orders transaction manager");
  out->Check(lm.status(), "lineitem transaction manager");
  if (!out->correct()) return;
  // Disjoint streams, one per writer, each cycled with its inverse.
  std::vector<std::vector<UpdateStream>> cycles;
  for (const UpdateStream& s : *streams) cycles.push_back(MiniCycle(s));

  // TxnManager mutates its Read-PDT in place at quiet points, so the
  // delta's footprint is read only at the end; layer sizes come from
  // GetStats(), which reads them under the manager's lock.
  LayerPeaks peaks;
  auto sample = [&] {
    const pdtstore::TxnManagerStats so = (*om)->GetStats();
    const pdtstore::TxnManagerStats sl = (*lm)->GetStats();
    peaks.Note(so.read_pdt_entries + sl.read_pdt_entries,
               so.write_pdt_entries + sl.write_pdt_entries,
               so.merge_pending_entries + sl.merge_pending_entries, 0);
  };
  const TxnCounters c0 = CountersOf(**om, **lm, sut->db->wal());
  const IoStats io0 = sut->db->io_stats();
  Phase phase(cfg);
  std::vector<OpLog> logs(kIngestWriters);
  std::vector<CommitLog> commit_logs(kIngestWriters);
  std::vector<RunResult> tally(kIngestWriters);
  phase.Start();
  std::vector<std::thread> writers;
  for (int w = 0; w < kIngestWriters; ++w) {
    writers.emplace_back([&, w] {
      ClosedLoopWriter(cycles[w], *om, *lm, phase.start(), phase.deadline(),
                       INT_MAX, &logs[w], &commit_logs[w], &tally[w]);
    });
  }
  phase.Supervise(sample);
  for (std::thread& t : writers) t.join();
  const IoStats io1 = sut->db->io_stats();
  const TxnCounters c1 = CountersOf(**om, **lm, sut->db->wal());

  OpLog log;
  CommitLog commits;
  for (int w = 0; w < kIngestWriters; ++w) {
    log.Merge(logs[w]);
    commits.Merge(commit_logs[w]);
    out->Absorb(tally[w]);
  }
  out->Check((*om)->PropagateAndMaybeCheckpoint(), "orders propagation");
  out->Check((*lm)->PropagateAndMaybeCheckpoint(), "lineitem propagation");
  VerifyRestored(tables, orders_rows, lineitem_rows, before, out);

  ReportOps(log, phase, cfg.trace, out);
  if (!cfg.trace) return;
  ReportStorage(io0, io1, log.ops, out);
  peaks.Note(0, 0, 0, DeltaMb(tables));
  peaks.Report(out);
  ReportTxn(commits, c0, c1, phase.seconds(), c1.aborted - c0.aborted, out);
  SutInfo info;
  info.sut = &*sut;
  info.dbo = dbo;
  RunProbes(cfg, info, &log.by_type, out);
}

}  // namespace pdtbench
