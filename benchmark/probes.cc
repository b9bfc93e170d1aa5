// Building blocks shared by the workloads, and the per-layer probes of a
// traced run.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace pdtbench {

using pdtstore::Batch;
using pdtstore::ColumnId;
using pdtstore::Table;
using pdtstore::TypeId;
using tpch::UpdateStream;

namespace {

// Timed repetitions of each probe measurement; probes report medians.
constexpr int kProbeReps = 3;

double SumOfMedians(const QuerySamples& ms) {
  double sum = 0;
  for (int q = 1; q <= kNumQueries; ++q) sum += Median(ms[q]);
  return sum;
}

// One serial drain of every lineitem column: the scan layer with no
// operator above it (stable fetch + decode, plus the delta merge).
StatusOr<Digest> DrainOnce(const Table& table) {
  std::vector<ColumnId> cols(table.schema().num_columns());
  std::iota(cols.begin(), cols.end(), ColumnId{0});
  auto src = table.Scan(cols);
  Batch batch;
  Digest d;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, src->Next(&batch, pdtstore::kDefaultBatchSize));
    if (!more) break;
    const size_t n = batch.num_rows();
    d.rows += n;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const auto& col = batch.column(c);
      if (col.type() == TypeId::kInt64) {
        const int64_t* v = col.ints_data();
        for (size_t i = 0; i < n; ++i) d.checksum += static_cast<double>(v[i]);
      } else if (col.type() == TypeId::kDouble) {
        const double* v = col.doubles_data();
        for (size_t i = 0; i < n; ++i) d.checksum += v[i];
      }
    }
  }
  return d;
}

// A warm-up drain, then kProbeReps timed drains, each inside a span
// named `span`. Returns the median milliseconds.
StatusOr<double> TimedDrain(const Table& table, const char* span,
                            Digest* digest) {
  PDT_ASSIGN_OR_RETURN(*digest, DrainOnce(table));
  std::vector<double> ms;
  for (int i = 0; i < kProbeReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    Span s(span);
    PDT_RETURN_NOT_OK(DrainOnce(table).status());
    ms.push_back(MillisBetween(t0, Clock::now()));
  }
  return Median(ms);
}

// kProbeReps passes of the 22 queries. Every pass must produce the
// results of `expect` (when given; `parallel` if either side ran with
// several threads); the first pass's digests go to `digests` (if given).
void Passes(const tpch::TpchTables& tables, int threads,
            const std::vector<Digest>* expect, bool parallel,
            const char* what, QuerySamples* ms, std::vector<Digest>* digests,
            RunResult* out) {
  for (int p = 0; p < kProbeReps; ++p) {
    std::vector<Digest> got;
    Status st = RunPass(tables, threads, ms, &got);
    out->Check(st, std::string("query pass on ") + what);
    if (!st.ok()) return;
    if (expect != nullptr) {
      for (int q = 1; q <= kNumQueries; ++q) {
        out->Expect(QueryResultsAgree(q, got[q], (*expect)[q], parallel),
                    std::string("q") + std::to_string(q) + " on " + what +
                        " disagrees with the system under test");
      }
    }
    if (p == 0 && digests != nullptr) *digests = got;
  }
}

}  // namespace

bool DigestsAgree(const Digest& a, const Digest& b) {
  return a.rows == b.rows &&
         std::abs(a.checksum - b.checksum) <=
             1e-6 * (1.0 + std::abs(a.checksum));
}

bool QueryResultsAgree(int q, const Digest& a, const Digest& b,
                       bool parallel) {
  if (parallel && q == 11) return a.rows == b.rows;
  return DigestsAgree(a, b);
}

tpch::GenOptions GenFor(const RunConfig& cfg) {
  tpch::GenOptions gen;
  gen.scale_factor = cfg.scale_factor;
  gen.seed = cfg.seed;
  return gen;
}

StatusOr<std::vector<UpdateStream>> RefreshStreams(const RunConfig& cfg) {
  return tpch::MakeUpdateStreams(GenFor(cfg), 2, 0.001);
}

StatusOr<TpchDb> BuildTpch(const RunConfig& cfg, const DatabaseOptions& dbo,
                           const TableOptions& topts,
                           const std::vector<UpdateStream>& refresh,
                           const std::string& dir, BuildTimes* times) {
  TpchDb s;
  const Clock::time_point t0 = Clock::now();
  {
    Span span("db.generate");
    if (dir.empty()) {
      s.db = std::make_unique<Database>(dbo);
    } else {
      PDT_ASSIGN_OR_RETURN(s.db, Database::Open(dir, dbo));
      PDT_RETURN_NOT_OK(s.db->recovery_status());
    }
    PDT_ASSIGN_OR_RETURN(s.tables,
                         tpch::GenerateInto(s.db.get(), GenFor(cfg), topts));
  }
  const Clock::time_point t1 = Clock::now();
  {
    Span span("tpch.refresh");
    for (const UpdateStream& stream : refresh) {
      PDT_RETURN_NOT_OK(tpch::ApplyUpdateStream(stream, &s.tables));
    }
  }
  times->generate_s = SecondsBetween(t0, t1);
  times->refresh_s = SecondsBetween(t1, Clock::now());
  return s;
}

StatusOr<Digest> RunQuery(int q, const tpch::TpchTables& tables, int threads,
                          bool* traced) {
  Span span("tpch.query", q);
  if (traced != nullptr) *traced = span.active();
  tpch::QueryOptions opts;
  opts.num_threads = threads;
  PDT_ASSIGN_OR_RETURN(tpch::QueryResult r,
                       tpch::RunTpchQuery(q, tables, opts));
  return Digest{r.rows, r.checksum};
}

Status RunPass(const tpch::TpchTables& tables, int threads, QuerySamples* ms,
               std::vector<Digest>* digests) {
  Span span("tpch.pass");
  digests->assign(kNumQueries + 1, Digest{});
  for (int q = 1; q <= kNumQueries; ++q) {
    const Clock::time_point t0 = Clock::now();
    PDT_ASSIGN_OR_RETURN((*digests)[q], RunQuery(q, tables, threads));
    if (ms != nullptr) (*ms)[q].push_back(MillisBetween(t0, Clock::now()));
  }
  return Status::OK();
}

void RunProbes(const RunConfig& cfg, const SutInfo& info,
               QuerySamples* query_ms, RunResult* out) {
  const tpch::TpchTables& sut = info.sut->tables;

  // --- the system under test: merge scan and query passes ---
  Digest sut_drain;
  auto merge_ms = TimedDrain(*sut.lineitem, "pdt.merge_scan", &sut_drain);
  out->Check(merge_ms.status(), "lineitem drain on the system under test");
  if (!merge_ms.ok()) return;
  QuerySamples sut_ms(kNumQueries + 1);
  std::vector<Digest> sut_digests;
  Passes(sut, 1, nullptr, false, "the system under test", &sut_ms,
         &sut_digests, out);
  if (sut_digests.empty()) return;
  QuerySamples parallel_ms(kNumQueries + 1);
  Passes(sut, kParallelThreads, &sut_digests, /*parallel=*/true,
         "4 threads", &parallel_ms, nullptr, out);
  for (int q = 1; q <= kNumQueries; ++q) {
    auto& all = (*query_ms)[q];
    all.insert(all.end(), sut_ms[q].begin(), sut_ms[q].end());
  }
  out->Layer("exec.parallel_speedup",
             SumOfMedians(sut_ms) / SumOfMedians(parallel_ms), "ratio");
  out->Layer("pdt.merge_scan_ms", *merge_ms, "ms", kProbeReps);

  // --- a checkpointed twin of the same logical state ---
  {
    BuildTimes bt;
    auto twin = BuildTpch(cfg, info.dbo, TableOptions{}, info.refresh, "", &bt);
    out->Check(twin.status(), "building the checkpointed twin");
    if (!twin.ok()) return;
    const Clock::time_point t0 = Clock::now();
    {
      Span span("db.checkpoint");
      out->Check(twin->tables.lineitem->Checkpoint(), "lineitem checkpoint");
      out->Check(twin->tables.orders->Checkpoint(), "orders checkpoint");
    }
    out->Layer("db.checkpoint_s", SecondsBetween(t0, Clock::now()), "s");
    Digest clean_drain;
    auto stable_ms =
        TimedDrain(*twin->tables.lineitem, "storage.stable_scan", &clean_drain);
    out->Check(stable_ms.status(), "lineitem drain on the checkpointed twin");
    if (!stable_ms.ok()) return;
    out->Expect(DigestsAgree(sut_drain, clean_drain),
                "lineitem drain of the checkpointed twin disagrees with the "
                "system under test");
    QuerySamples clean_ms(kNumQueries + 1);
    Passes(twin->tables, 1, &sut_digests, false, "the checkpointed twin",
           &clean_ms, nullptr, out);
    out->Layer("storage.stable_scan_ms", *stable_ms, "ms", kProbeReps);
    out->Layer("pdt.merge_overhead", *merge_ms / *stable_ms, "ratio");
    out->Layer("tpch.pdt_vs_clean_query",
               SumOfMedians(sut_ms) / SumOfMedians(clean_ms), "ratio");
  }

  // --- the paper's reference: PDT vs VDT under the Fig. 19 load ---
  auto streams = RefreshStreams(cfg);
  out->Check(streams.status(), "refresh streams");
  if (!streams.ok()) return;
  // The olap SUT already carries exactly this load; other workloads get
  // a PDT twin that does.
  TpchDb pdt_twin;
  const TpchDb* pdt_ref = info.sut;
  double pdt_ref_ms = *merge_ms;
  Digest pdt_ref_drain = sut_drain;
  QuerySamples pdt_ref_qms = sut_ms;
  std::vector<Digest> pdt_ref_digests = sut_digests;
  if (info.refresh.empty()) {
    BuildTimes bt;
    auto built = BuildTpch(cfg, info.dbo, TableOptions{}, *streams, "", &bt);
    out->Check(built.status(), "building the refreshed PDT twin");
    if (!built.ok()) return;
    pdt_twin = std::move(*built);
    pdt_ref = &pdt_twin;
    out->Layer("db.refresh_s", bt.refresh_s, "s");
    auto ms = TimedDrain(*pdt_ref->tables.lineitem, "pdt.merge_scan",
                         &pdt_ref_drain);
    out->Check(ms.status(), "lineitem drain on the refreshed PDT twin");
    if (!ms.ok()) return;
    pdt_ref_ms = *ms;
    pdt_ref_qms.assign(kNumQueries + 1, {});
    Passes(pdt_ref->tables, 1, nullptr, false, "the refreshed PDT twin",
           &pdt_ref_qms, &pdt_ref_digests, out);
    if (pdt_ref_digests.empty()) return;
  }
  TableOptions vdt_opts;
  vdt_opts.backend = pdtstore::DeltaBackend::kVdt;
  BuildTimes bt;
  auto vdt = BuildTpch(cfg, info.dbo, vdt_opts, *streams, "", &bt);
  out->Check(vdt.status(), "building the refreshed VDT twin");
  if (!vdt.ok()) return;
  Digest vdt_drain;
  auto vdt_ms = TimedDrain(*vdt->tables.lineitem, "vdt.merge_scan", &vdt_drain);
  out->Check(vdt_ms.status(), "lineitem drain on the VDT twin");
  if (!vdt_ms.ok()) return;
  out->Expect(DigestsAgree(vdt_drain, pdt_ref_drain),
              "lineitem drain of the VDT twin disagrees with the PDT one");
  QuerySamples vdt_qms(kNumQueries + 1);
  Passes(vdt->tables, 1, &pdt_ref_digests, false, "the VDT twin", &vdt_qms,
         nullptr, out);
  out->Layer("vdt.merge_scan_ms", *vdt_ms, "ms", kProbeReps);
  out->Layer("vdt.pdt_scan_speedup", *vdt_ms / pdt_ref_ms, "ratio");
  out->Layer("vdt.pdt_query_speedup",
             SumOfMedians(vdt_qms) / SumOfMedians(pdt_ref_qms), "ratio");

  for (int q = 1; q <= kNumQueries; ++q) {
    char name[32];
    std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q);
    out->Layer(name, Median((*query_ms)[q]), "ms", (*query_ms)[q].size());
  }
}

}  // namespace pdtbench
