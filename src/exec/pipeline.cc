#include "exec/pipeline.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>

#include "exec/operator.h"
#include "storage/encoding.h"
#include "util/file.h"
#include "util/mem_budget.h"
#include "util/thread_pool.h"

namespace pdtstore {

namespace {

// ---------------------------------------------------------------------
// Fragment operators.
// ---------------------------------------------------------------------

class FilterOp : public PipelineOp {
 public:
  explicit FilterOp(VecPredicate predicate) {
    predicates_.push_back(std::move(predicate));
  }

  struct State : PipelineOpState {
    KeepBitmap keep;
    KeepBitmap tmp;
    Batch out;
  };

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return std::make_unique<State>();
  }

  Status Execute(Batch* batch, PipelineOpState* state) const override {
    State* s = static_cast<State*>(state);
    EvalConjunction(predicates_, *batch, &s->keep, &s->tmp);
    if (s->keep.All()) return Status::OK();  // batch passes untouched
    s->out.ResetLike(*batch);
    s->out.set_start_rid(batch->start_rid());
    if (!s->keep.None()) s->out.AppendFiltered(*batch, s->keep);
    // The consumed input batch becomes next round's output scratch.
    std::swap(*batch, s->out);
    return Status::OK();
  }

  bool FuseFilter(VecPredicate* predicate) override {
    // Build-time only: the fused conjunction folds bitmaps word-wise in
    // Execute, so stacked Pipeline::Filter calls compact the batch once.
    predicates_.push_back(std::move(*predicate));
    return true;
  }

 private:
  std::vector<VecPredicate> predicates_;
};

class ProjectOp : public PipelineOp {
 public:
  explicit ProjectOp(std::vector<ColumnExpr> exprs)
      : exprs_(std::move(exprs)) {}

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return nullptr;  // exprs allocate their outputs; no scratch needed
  }

  Status Execute(Batch* batch, PipelineOpState*) const override {
    Batch out;
    out.set_start_rid(batch->start_rid());
    std::vector<ColumnId> ids(exprs_.size());
    for (size_t i = 0; i < exprs_.size(); ++i) {
      ids[i] = static_cast<ColumnId>(i);
      out.columns().push_back(exprs_[i](*batch));
    }
    out.set_column_ids(std::move(ids));
    *batch = std::move(out);
    return Status::OK();
  }

 private:
  std::vector<ColumnExpr> exprs_;
};

class JoinProbeOp : public PipelineOp {
 public:
  JoinProbeOp(std::shared_ptr<JoinBuildHandle> build,
              std::vector<size_t> probe_keys, JoinKind kind)
      : build_(std::move(build)),
        probe_keys_(std::move(probe_keys)),
        kind_(kind) {}

  struct State : PipelineOpState {
    JoinProbeScratch scratch;
    Batch out;
  };

  Status Prepare() override {
    // The build barrier: the build side (possibly a whole pipeline)
    // runs to completion here, before any probe worker starts; the
    // resulting table is immutable and shared lock-free.
    PDT_ASSIGN_OR_RETURN(table_, build_->Resolve());
    return Status::OK();
  }

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return std::make_unique<State>();
  }

  Status Execute(Batch* batch, PipelineOpState* state) const override {
    State* s = static_cast<State*>(state);
    ProbeJoinBatch(*table_, probe_keys_, kind_, *batch, &s->out,
                   &s->scratch);
    std::swap(*batch, s->out);
    return Status::OK();
  }

 private:
  std::shared_ptr<JoinBuildHandle> build_;
  std::vector<size_t> probe_keys_;
  JoinKind kind_;
  const PartitionedJoinTable* table_ = nullptr;  // set by Prepare
};

// ---------------------------------------------------------------------
// Run-to-completion pipeline driver.
// ---------------------------------------------------------------------

// State shared between the driving thread and its worker tasks. Tasks
// hold it by shared_ptr; `plan` / `ops` / `sink` are borrowed from the
// driver's frame and valid only until `finished` — a task that starts
// after the driver left exits on its first check without touching them.
struct RunShared {
  std::mutex mu;
  std::condition_variable cv;
  size_t next = 0;    // next morsel to claim
  size_t active = 0;  // workers past their start check
  bool finished = false;
  bool abort = false;
  Status error = Status::OK();

  MorselPlan* plan = nullptr;
  const std::vector<std::unique_ptr<PipelineOp>>* ops = nullptr;
  PipelineSink* sink = nullptr;
};

void RunPipelineWorker(const std::shared_ptr<RunShared>& rs) {
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    if (rs->finished || rs->abort) return;
    ++rs->active;
  }
  const auto& ops = *rs->ops;
  std::vector<std::unique_ptr<PipelineOpState>> op_states;
  op_states.reserve(ops.size());
  for (const auto& op : ops) op_states.push_back(op->MakeState());
  std::unique_ptr<PipelineOpState> sink_state = rs->sink->MakeState();

  Status status = Status::OK();
  Batch local;
  const size_t num_morsels = rs->plan->morsels.size();
  while (status.ok()) {
    size_t m;
    {
      std::lock_guard<std::mutex> lock(rs->mu);
      if (rs->abort || rs->next >= num_morsels) break;
      m = rs->next++;
    }
    std::unique_ptr<BatchSource> src =
        rs->plan->factory(m, rs->plan->morsels[m], m + 1 == num_morsels);
    while (status.ok()) {
      StatusOr<bool> more = src->Next(&local, rs->plan->options.batch_rows);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      for (size_t i = 0; i < ops.size() && status.ok(); ++i) {
        status = ops[i]->Execute(&local, op_states[i].get());
      }
      if (!status.ok() || local.num_rows() == 0) continue;
      status = rs->sink->Sink(&local, sink_state.get(), m);
    }
  }
  if (status.ok()) {
    // Per-worker post-processing (e.g. sorting this worker's run)
    // happens before the serializing lock, so it runs in parallel
    // across workers.
    status = rs->sink->Finish(sink_state.get());
  }

  std::lock_guard<std::mutex> lock(rs->mu);
  if (status.ok() && !rs->abort) {
    // Merge this worker's partial state into the shared result;
    // serialized by rs->mu.
    status = rs->sink->Combine(sink_state.get());
  }
  if (!status.ok()) {
    if (rs->error.ok()) rs->error = status;
    rs->abort = true;
  }
  if (--rs->active == 0) rs->cv.notify_all();
}

}  // namespace

Status RunPipeline(MorselPlan* plan,
                   const std::vector<std::unique_ptr<PipelineOp>>& ops,
                   PipelineSink* sink) {
  for (const auto& op : ops) {
    PDT_RETURN_NOT_OK(op->Prepare());
  }

  if (plan->serial != nullptr) {
    // Serial fallback: one worker, the caller.
    std::vector<std::unique_ptr<PipelineOpState>> op_states;
    op_states.reserve(ops.size());
    for (const auto& op : ops) op_states.push_back(op->MakeState());
    std::unique_ptr<PipelineOpState> sink_state = sink->MakeState();
    Batch local;
    while (true) {
      PDT_ASSIGN_OR_RETURN(
          bool more, plan->serial->Next(&local, plan->options.batch_rows));
      if (!more) break;
      Status st = Status::OK();
      for (size_t i = 0; i < ops.size() && st.ok(); ++i) {
        st = ops[i]->Execute(&local, op_states[i].get());
      }
      PDT_RETURN_NOT_OK(st);
      if (local.num_rows() == 0) continue;
      // The whole serial stream counts as morsel 0: it already is the
      // serial sequence.
      PDT_RETURN_NOT_OK(sink->Sink(&local, sink_state.get(), 0));
    }
    PDT_RETURN_NOT_OK(sink->Finish(sink_state.get()));
    return sink->Combine(sink_state.get());
  }

  auto rs = std::make_shared<RunShared>();
  rs->plan = plan;
  rs->ops = &ops;
  rs->sink = sink;
  int threads = plan->options.num_threads;
  if (threads <= 0) threads = ThreadPool::DefaultThreads();
  const size_t helpers = std::min<size_t>(
      threads > 0 ? static_cast<size_t>(threads - 1) : 0,
      plan->morsels.size());
  ThreadPool::Global().SubmitMany(CurrentQueryToken(), helpers,
                                  [rs] { RunPipelineWorker(rs); });
  // The driver always participates, so the pipeline finishes even when
  // the shared pool is saturated by concurrent queries.
  RunPipelineWorker(rs);
  std::unique_lock<std::mutex> lock(rs->mu);
  rs->cv.wait(lock, [&rs] { return rs->active == 0; });
  rs->finished = true;
  return rs->error;
}

// ---------------------------------------------------------------------
// Fragment op factories.
// ---------------------------------------------------------------------

std::unique_ptr<PipelineOp> MakeFilterOp(VecPredicate predicate) {
  return std::make_unique<FilterOp>(std::move(predicate));
}

std::unique_ptr<PipelineOp> MakeProjectOp(std::vector<ColumnExpr> exprs) {
  return std::make_unique<ProjectOp>(std::move(exprs));
}

std::unique_ptr<PipelineOp> MakeJoinProbeOp(
    std::shared_ptr<JoinBuildHandle> build, std::vector<size_t> probe_keys,
    JoinKind kind) {
  return std::make_unique<JoinProbeOp>(std::move(build),
                                       std::move(probe_keys), kind);
}

// ---------------------------------------------------------------------
// OpChainSource.
// ---------------------------------------------------------------------

OpChainSource::OpChainSource(std::unique_ptr<BatchSource> input,
                             std::vector<std::unique_ptr<PipelineOp>> ops)
    : input_(std::move(input)), ops_(std::move(ops)) {}

OpChainSource::~OpChainSource() = default;

StatusOr<bool> OpChainSource::Next(Batch* out, size_t max_rows) {
  if (!prepared_) {
    for (const auto& op : ops_) {
      PDT_RETURN_NOT_OK(op->Prepare());
    }
    states_.reserve(ops_.size());
    for (const auto& op : ops_) states_.push_back(op->MakeState());
    prepared_ = true;
  }
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, input_->Next(out, max_rows));
    if (!more) return false;
    for (size_t i = 0; i < ops_.size(); ++i) {
      PDT_RETURN_NOT_OK(ops_[i]->Execute(out, states_[i].get()));
    }
    if (out->num_rows() > 0) return true;
  }
}

// ---------------------------------------------------------------------
// Aggregate breaker.
// ---------------------------------------------------------------------

namespace {

class PartialAggSink : public PipelineSink {
 public:
  PartialAggSink(std::vector<size_t> group_by, std::vector<AggSpec> aggs,
                 BudgetLease* lease = nullptr)
      : group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        merged_(group_by_, aggs_),
        lease_(lease),
        // Per-group estimate: the key values + hash + slot + count +
        // one accumulator per aggregate. The budgets account growth,
        // not exact heap bytes.
        group_bytes_(48 + 16 * aggs_.size()) {}

  struct State : PipelineOpState {
    State(const std::vector<size_t>& gb, const std::vector<AggSpec>& aggs)
        : partial(gb, aggs) {}
    AggregationState partial;
    size_t charged_groups = 0;
  };

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return std::make_unique<State>(group_by_, aggs_);
  }

  Status Sink(Batch* batch, PipelineOpState* state, size_t) override {
    State* s = static_cast<State*>(state);
    PDT_RETURN_NOT_OK(s->partial.Absorb(*batch));
    if (lease_ != nullptr) {
      // Charge table growth (monotone): new groups since the last batch.
      const size_t groups = s->partial.num_groups();
      if (groups > s->charged_groups) {
        PDT_RETURN_NOT_OK(
            lease_->Charge((groups - s->charged_groups) * group_bytes_));
        s->charged_groups = groups;
      }
    }
    return Status::OK();
  }

  Status Combine(PipelineOpState* state) override {
    return merged_.MergeFrom(static_cast<State*>(state)->partial);
  }

  Batch TakeResult() { return merged_.TakeResult(); }

 private:
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  AggregationState merged_;
  BudgetLease* lease_;
  size_t group_bytes_;
};

/// Lazy parallel aggregation: runs the pipeline into per-worker partial
/// tables on the first pull, merges, then emits like HashAggNode.
class ParallelAggSource : public BatchSource {
 public:
  ParallelAggSource(MorselPlan plan,
                    std::vector<std::unique_ptr<PipelineOp>> ops,
                    std::vector<size_t> group_by, std::vector<AggSpec> aggs)
      : plan_(std::move(plan)),
        ops_(std::move(ops)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    if (!built_) {
      PartialAggSink sink(group_by_, aggs_, &lease_);
      PDT_RETURN_NOT_OK(RunPipeline(&plan_, ops_, &sink));
      emitter_ = std::make_unique<VectorSource>(sink.TakeResult());
      built_ = true;
    }
    return emitter_->Next(out, max_rows);
  }

 private:
  MorselPlan plan_;
  std::vector<std::unique_ptr<PipelineOp>> ops_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  // Captured at construction, on the query thread (charge discipline:
  // see util/mem_budget.h); released when this source dies — the
  // materialized result's lifetime.
  BudgetLease lease_{CurrentBudget()};
  bool built_ = false;
  std::unique_ptr<BatchSource> emitter_;
};

// ---------------------------------------------------------------------
// Join-build breaker (hash-partitioned).
// ---------------------------------------------------------------------

void AppendRows(Batch* into, const Batch& b) {
  for (size_t c = 0; c < into->num_columns(); ++c) {
    into->column(c).AppendRange(b.column(c), 0, b.num_rows());
  }
}

// Partition count for a parallel join build: enough partitions that the
// finalize (concatenate + hash) load-balances across the workers even
// when key hashes skew, capped so tiny builds don't shatter.
size_t AutoJoinPartitions(int num_threads) {
  if (num_threads <= 1) return 1;
  size_t p = 1;
  while (p < 2 * static_cast<size_t>(num_threads)) p <<= 1;
  return std::min<size_t>(p, 64);
}

// --- join-build partition spill ---------------------------------------
// When a collect charge hits the memory budget and the query has a spill
// directory, the worker's partition slices go to disk (one file per
// partition slice) and their bytes return to the budget; Finalize reads
// them back partition-at-a-time. Row-at-a-time Value encoding: the spill
// path trades speed for simplicity — it only runs once the query is
// over budget.

Status WriteSpillSlice(const std::string& path, const Batch& rows,
                       const std::vector<uint64_t>& hashes) {
  std::string buf;
  const size_t cols = rows.num_columns();
  const bool has_ids = rows.column_ids().size() == cols;
  PutFixed32(&buf, static_cast<uint32_t>(cols));
  for (size_t c = 0; c < cols; ++c) {
    PutFixed32(&buf, has_ids ? rows.column_ids()[c]
                             : static_cast<uint32_t>(c));
    PutFixed32(&buf, static_cast<uint32_t>(rows.column(c).type()));
  }
  PutFixed64(&buf, rows.num_rows());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const Value v = rows.column(c).GetValue(r);
      switch (v.type()) {
        case TypeId::kInt64:
          PutFixed64(&buf, static_cast<uint64_t>(v.AsInt64()));
          break;
        case TypeId::kDouble: {
          uint64_t u;
          const double d = v.AsDouble();
          std::memcpy(&u, &d, sizeof(u));
          PutFixed64(&buf, u);
          break;
        }
        case TypeId::kString: {
          const std::string& s = v.AsString();
          PutFixed32(&buf, static_cast<uint32_t>(s.size()));
          buf.append(s);
          break;
        }
      }
    }
  }
  PutFixed64(&buf, hashes.size());
  for (uint64_t h : hashes) PutFixed64(&buf, h);
  PDT_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> file,
      FileSystem::Default()->NewWritableFile(path, /*truncate=*/true));
  PDT_RETURN_NOT_OK(file->Append(buf));
  // No Sync: spill files are scratch, not durable state — a crash loses
  // the query anyway.
  return file->Close();
}

Status ReadSpillSlice(const std::string& path, Batch* rows,
                      std::vector<uint64_t>* hashes) {
  std::string buf;
  PDT_RETURN_NOT_OK(FileSystem::Default()->ReadFileToString(path, &buf));
  size_t pos = 0;
  auto need = [&](size_t n) {
    return pos + n <= buf.size()
               ? Status::OK()
               : Status::Corruption("truncated spill slice " + path);
  };
  PDT_RETURN_NOT_OK(need(4));
  const size_t cols = DecodeFixed32(buf.data() + pos);
  pos += 4;
  *rows = Batch();
  std::vector<ColumnId> ids;
  for (size_t c = 0; c < cols; ++c) {
    PDT_RETURN_NOT_OK(need(8));
    ids.push_back(DecodeFixed32(buf.data() + pos));
    const TypeId type =
        static_cast<TypeId>(DecodeFixed32(buf.data() + pos + 4));
    pos += 8;
    rows->columns().emplace_back(type);
  }
  rows->set_column_ids(std::move(ids));
  PDT_RETURN_NOT_OK(need(8));
  const size_t n = static_cast<size_t>(DecodeFixed64(buf.data() + pos));
  pos += 8;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      ColumnVector& col = rows->column(c);
      switch (col.type()) {
        case TypeId::kInt64: {
          PDT_RETURN_NOT_OK(need(8));
          col.Append(Value(
              static_cast<int64_t>(DecodeFixed64(buf.data() + pos))));
          pos += 8;
          break;
        }
        case TypeId::kDouble: {
          PDT_RETURN_NOT_OK(need(8));
          double d;
          const uint64_t u = DecodeFixed64(buf.data() + pos);
          std::memcpy(&d, &u, sizeof(d));
          col.Append(Value(d));
          pos += 8;
          break;
        }
        case TypeId::kString: {
          PDT_RETURN_NOT_OK(need(4));
          const size_t len = DecodeFixed32(buf.data() + pos);
          pos += 4;
          PDT_RETURN_NOT_OK(need(len));
          col.Append(Value(buf.substr(pos, len)));
          pos += len;
          break;
        }
      }
    }
  }
  PDT_RETURN_NOT_OK(need(8));
  const size_t nh = static_cast<size_t>(DecodeFixed64(buf.data() + pos));
  pos += 8;
  PDT_RETURN_NOT_OK(need(8 * nh));
  hashes->clear();
  hashes->reserve(nh);
  for (size_t i = 0; i < nh; ++i) {
    hashes->push_back(DecodeFixed64(buf.data() + pos));
    pos += 8;
  }
  return Status::OK();
}

/// Workers hash each collected batch's key columns once and route the
/// rows into P per-worker partition batches (gathers). Combine hands
/// the per-worker slices over; Finalize then concatenates and hashes
/// the P partitions in parallel (ParallelFor) into the published
/// PartitionedJoinTable, reusing the collect-time hashes.
class PartitionedCollectSink : public PipelineSink {
 public:
  PartitionedCollectSink(std::vector<size_t> keys, size_t num_partitions,
                         BudgetLease* lease = nullptr,
                         std::string spill_dir = {})
      : keys_(std::move(keys)),
        num_partitions_(num_partitions),
        lease_(lease),
        spill_dir_(std::move(spill_dir)) {}

  struct State : PipelineOpState {
    bool init = false;
    std::vector<Batch> parts;
    std::vector<std::vector<uint64_t>> part_hashes;
    std::vector<uint64_t> row_hashes;  // scratch
    std::vector<SelVector> route;      // scratch
    size_t charged = 0;  // budget bytes held for this worker's slices
  };

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return std::make_unique<State>();
  }

  Status Sink(Batch* batch, PipelineOpState* state, size_t) override {
    State* s = static_cast<State*>(state);
    const size_t n = batch->num_rows();
    if (!s->init) {
      s->parts.resize(num_partitions_);
      // Copies below: the worker keeps recycling `batch`'s storage on
      // its next pull (ResetLike), so collected rows must be duplicated.
      for (Batch& p : s->parts) p.ResetLike(*batch);
      s->part_hashes.resize(num_partitions_);
      s->route.resize(num_partitions_);
      s->init = true;
    }
    // Spill the routed batch straight back out after this call: set when
    // the budget has no headroom even after shedding this worker's own
    // slices (peers hold the cap), so progress never waits on them.
    bool spill_through = false;
    if (lease_ != nullptr) {
      // Charge the copy before making it: rows + their hashes. A
      // rejected charge either spills this worker's slices (spill_dir
      // configured) or fails the build fast with ResourceExhausted.
      const size_t bytes = batch->ByteSize() + 8 * n;
      Status st = lease_->Charge(bytes);
      if (!st.ok() && !spill_dir_.empty()) {
        if (s->charged > 0) {
          PDT_RETURN_NOT_OK(SpillState(s));
          st = lease_->Charge(bytes);
        }
        if (!st.ok()) {
          st = Status::OK();
          spill_through = true;  // route uncharged, then write out
        }
      }
      PDT_RETURN_NOT_OK(st);
      if (!spill_through) s->charged += bytes;
    }
    s->row_hashes.assign(n, kHashSeed);
    for (size_t k : keys_) {
      batch->column(k).HashColumn(s->row_hashes.data());
    }
    if (num_partitions_ == 1) {
      AppendRows(&s->parts[0], *batch);
      s->part_hashes[0].insert(s->part_hashes[0].end(),
                               s->row_hashes.begin(), s->row_hashes.end());
    } else {
      for (SelVector& r : s->route) r.clear();
      for (size_t row = 0; row < n; ++row) {
        s->route[JoinPartitionOf(s->row_hashes[row], num_partitions_)]
            .push_back(static_cast<uint32_t>(row));
      }
      for (size_t p = 0; p < num_partitions_; ++p) {
        if (s->route[p].empty()) continue;
        s->parts[p].AppendGather(*batch, s->route[p]);
        for (uint32_t row : s->route[p].indices()) {
          s->part_hashes[p].push_back(s->row_hashes[row]);
        }
      }
    }
    if (spill_through) return SpillState(s);
    return Status::OK();
  }

  Status Combine(PipelineOpState* state) override {
    State* s = static_cast<State*>(state);
    if (!s->init) return Status::OK();
    // The per-worker state dies here: move, don't copy — this runs
    // under the runner's serializing mutex. The charged bytes stay held
    // by the shared lease (the slices live on in slices_).
    slices_.push_back({std::move(s->parts), std::move(s->part_hashes)});
    return Status::OK();
  }

  bool spilled() const { return !spill_files_.empty(); }

  /// Builds the published table: for each partition, concatenate every
  /// worker's slice (disk spills first, then the in-memory ones) and
  /// hash it into a JoinTable — independent per partition, so the
  /// partitions build in parallel.
  StatusOr<PartitionedJoinTable> Finalize(int num_threads) {
    PartitionedJoinTable t;
    t.parts.resize(num_partitions_);
    std::vector<Status> errs(num_partitions_);
    ParallelFor(num_threads, 0, num_partitions_, [&](size_t p) {
      Batch rows;
      std::vector<uint64_t> hashes;
      bool first = true;
      if (!spill_files_.empty()) {
        // Restored spill bytes are not re-charged: the spill's job is
        // to bound collect-time pressure; the final table's in-memory
        // slices remain covered by the lease.
        for (const std::string& path : spill_files_[p]) {
          Batch sr;
          std::vector<uint64_t> sh;
          Status st = ReadSpillSlice(path, &sr, &sh);
          if (!st.ok()) {
            errs[p] = st;
            return;
          }
          if (first) {
            rows = std::move(sr);
            hashes = std::move(sh);
            first = false;
          } else {
            AppendRows(&rows, sr);
            hashes.insert(hashes.end(), sh.begin(), sh.end());
          }
          // Best-effort cleanup; a leftover scratch file is harmless.
          (void)FileSystem::Default()->DeleteFile(path);
        }
      }
      for (WorkerSlices& ws : slices_) {
        if (ws.parts[p].num_rows() == 0 && !first) continue;
        if (first) {
          rows = std::move(ws.parts[p]);
          hashes = std::move(ws.hashes[p]);
          first = false;
        } else {
          AppendRows(&rows, ws.parts[p]);
          hashes.insert(hashes.end(), ws.hashes[p].begin(),
                        ws.hashes[p].end());
        }
      }
      t.parts[p] = JoinTable::BuildWithHashes(std::move(rows), keys_,
                                              std::move(hashes));
    });
    slices_.clear();
    for (const Status& st : errs) {
      PDT_RETURN_NOT_OK(st);
    }
    return t;
  }

 private:
  struct WorkerSlices {
    std::vector<Batch> parts;
    std::vector<std::vector<uint64_t>> hashes;
  };

  // Writes this worker's non-empty partition slices to disk, registers
  // the files, and returns the worker's charged bytes to the budget.
  // Runs on the worker that owns `s` — only the file registry is shared.
  Status SpillState(State* s) {
    PDT_RETURN_NOT_OK(FileSystem::Default()->CreateDir(spill_dir_));
    for (size_t p = 0; p < num_partitions_; ++p) {
      if (s->parts[p].num_rows() == 0) continue;
      const uint64_t id =
          spill_counter_.fetch_add(1, std::memory_order_relaxed);
      std::string path = spill_dir_ + "/joinbuild_p" + std::to_string(p) +
                         "_" + std::to_string(id) + ".spill";
      PDT_RETURN_NOT_OK(
          WriteSpillSlice(path, s->parts[p], s->part_hashes[p]));
      {
        std::lock_guard<std::mutex> lock(spill_mu_);
        if (spill_files_.empty()) spill_files_.resize(num_partitions_);
        spill_files_[p].push_back(std::move(path));
      }
      s->parts[p].Clear();  // keeps the layout for further appends
      s->part_hashes[p].clear();
    }
    lease_->Release(s->charged);
    s->charged = 0;
    return Status::OK();
  }

  std::vector<size_t> keys_;
  size_t num_partitions_;
  BudgetLease* lease_;
  std::string spill_dir_;
  std::mutex spill_mu_;
  std::vector<std::vector<std::string>> spill_files_;  // per partition
  std::atomic<uint64_t> spill_counter_{0};
  std::vector<WorkerSlices> slices_;
};

// ---------------------------------------------------------------------
// Sort breaker.
// ---------------------------------------------------------------------

/// Workers collect rows tagged with (morsel index, row-within-morsel) —
/// the serial scan order — then sort their runs in Finish(), which runs
/// per worker *outside* the serializing lock: run sorting itself is
/// parallel. Combine just moves the sorted runs into the shared list
/// for the consumer's loser-tree merge.
class SortBuildSink : public PipelineSink {
 public:
  SortBuildSink(std::vector<SortKey> keys, size_t limit,
                BudgetLease* lease = nullptr)
      : keys_(std::move(keys)), limit_(limit), lease_(lease) {}

  struct State : PipelineOpState {
    Batch rows;
    std::vector<uint64_t> seq;
    bool first = true;
    size_t cur_morsel = static_cast<size_t>(-1);
    uint64_t local = 0;
    SortedRun run;  // produced by Finish
  };

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return std::make_unique<State>();
  }

  Status Sink(Batch* batch, PipelineOpState* state, size_t morsel) override {
    State* s = static_cast<State*>(state);
    if (lease_ != nullptr) {
      // Charge the materialized copy (rows + 8-byte seq tags) before
      // making it; an over-budget sort fails fast here.
      PDT_RETURN_NOT_OK(
          lease_->Charge(batch->ByteSize() + 8 * batch->num_rows()));
    }
    if (morsel != s->cur_morsel) {
      // A morsel is processed by exactly one worker, contiguously, so a
      // fresh row counter per morsel yields globally unique tags in
      // serial scan order.
      s->cur_morsel = morsel;
      s->local = 0;
    }
    const uint64_t base = static_cast<uint64_t>(morsel) << kSeqMorselShift;
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      s->seq.push_back(base | s->local++);
    }
    if (s->first) {
      s->rows = *batch;  // copy: the worker recycles batch storage
      s->first = false;
    } else {
      AppendRows(&s->rows, *batch);
    }
    return Status::OK();
  }

  Status Finish(PipelineOpState* state) override {
    State* s = static_cast<State*>(state);
    if (s->first) return Status::OK();
    SelVector perm;
    perm.indices().resize(s->rows.num_rows());
    std::iota(perm.indices().begin(), perm.indices().end(), 0);
    // (keys, seq) is a strict total order — no stability needed.
    std::sort(perm.indices().begin(), perm.indices().end(),
              [&](uint32_t a, uint32_t b) {
      int c = CompareRowsByKeys(keys_, s->rows, a, s->rows, b);
      if (c != 0) return c < 0;
      return s->seq[a] < s->seq[b];
    });
    // Top-k: rows beyond the limit can never appear in the merged
    // output, whatever the other runs hold.
    if (limit_ > 0 && perm.size() > limit_) perm.indices().resize(limit_);
    s->run.rows.set_column_ids(s->rows.column_ids());
    for (size_t c = 0; c < s->rows.num_columns(); ++c) {
      s->run.rows.columns().emplace_back(s->rows.column(c).type());
    }
    s->run.rows.AppendGather(s->rows, perm);
    s->run.seq.reserve(perm.size());
    for (uint32_t i : perm.indices()) s->run.seq.push_back(s->seq[i]);
    s->rows.Clear();
    s->seq.clear();
    return Status::OK();
  }

  Status Combine(PipelineOpState* state) override {
    State* s = static_cast<State*>(state);
    if (s->run.rows.num_rows() > 0) runs_.push_back(std::move(s->run));
    return Status::OK();
  }

  std::vector<SortedRun> TakeRuns() { return std::move(runs_); }

 private:
  std::vector<SortKey> keys_;
  size_t limit_;
  BudgetLease* lease_;
  std::vector<SortedRun> runs_;
};

/// Lazy parallel sort: runs the pipeline into per-worker sorted runs on
/// the first pull, then streams the loser-tree merge.
class ParallelSortSource : public BatchSource {
 public:
  ParallelSortSource(MorselPlan plan,
                     std::vector<std::unique_ptr<PipelineOp>> ops,
                     std::vector<SortKey> keys, size_t limit)
      : plan_(std::move(plan)),
        ops_(std::move(ops)),
        keys_(std::move(keys)),
        limit_(limit) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    if (!merger_) {
      SortBuildSink sink(keys_, limit_, &lease_);
      PDT_RETURN_NOT_OK(RunPipeline(&plan_, ops_, &sink));
      merger_ = std::make_unique<RunMerger>(sink.TakeRuns(), keys_, limit_);
    }
    return merger_->Next(out, max_rows);
  }

 private:
  MorselPlan plan_;
  std::vector<std::unique_ptr<PipelineOp>> ops_;
  std::vector<SortKey> keys_;
  size_t limit_;
  // Captured at construction on the query thread; the charged bytes
  // cover the materialized runs until this source (and its merger) die.
  BudgetLease lease_{CurrentBudget()};
  std::unique_ptr<RunMerger> merger_;
};

}  // namespace

// ---------------------------------------------------------------------
// Pipeline.
// ---------------------------------------------------------------------

Pipeline::Pipeline(MorselPlan plan) : plan_(std::move(plan)) {}
Pipeline::~Pipeline() = default;

Pipeline& Pipeline::Filter(VecPredicate predicate) {
  // Stacked filters fuse into the preceding filter op's conjunction.
  if (!ops_.empty() && ops_.back()->FuseFilter(&predicate)) return *this;
  return Add(MakeFilterOp(std::move(predicate)));
}

Pipeline& Pipeline::Project(std::vector<ColumnExpr> exprs) {
  return Add(MakeProjectOp(std::move(exprs)));
}

Pipeline& Pipeline::Probe(std::shared_ptr<JoinBuildHandle> build,
                          std::vector<size_t> probe_keys, JoinKind kind) {
  return Add(MakeJoinProbeOp(std::move(build), std::move(probe_keys), kind));
}

Pipeline& Pipeline::Add(std::unique_ptr<PipelineOp> op) {
  ops_.push_back(std::move(op));
  return *this;
}

std::unique_ptr<BatchSource> Pipeline::Exchange() && {
  if (plan_.serial != nullptr) {
    return std::make_unique<OpChainSource>(std::move(plan_.serial),
                                           std::move(ops_));
  }
  return std::make_unique<ParallelScanSource>(
      std::move(plan_.morsels), std::move(plan_.factory), plan_.options,
      plan_.renumber_rids, std::move(ops_));
}

std::unique_ptr<BatchSource> Pipeline::Aggregate(
    std::vector<size_t> group_by, std::vector<AggSpec> aggs) && {
  if (plan_.serial != nullptr) {
    return std::make_unique<HashAggNode>(
        std::make_unique<OpChainSource>(std::move(plan_.serial),
                                        std::move(ops_)),
        std::move(group_by), std::move(aggs));
  }
  return std::make_unique<ParallelAggSource>(std::move(plan_),
                                             std::move(ops_),
                                             std::move(group_by),
                                             std::move(aggs));
}

std::unique_ptr<BatchSource> Pipeline::IntoSortBuild(
    std::vector<SortKey> keys, size_t limit) && {
  if (plan_.serial != nullptr) {
    // One thread: the unchanged serial materializing sort.
    return std::make_unique<SortNode>(
        std::make_unique<OpChainSource>(std::move(plan_.serial),
                                        std::move(ops_)),
        std::move(keys), limit);
  }
  return std::make_unique<ParallelSortSource>(
      std::move(plan_), std::move(ops_), std::move(keys), limit);
}

std::shared_ptr<JoinBuildHandle> Pipeline::IntoJoinBuild(
    std::unique_ptr<Pipeline> pipeline, std::vector<size_t> build_keys,
    size_t num_partitions) {
  std::shared_ptr<Pipeline> pipe = std::move(pipeline);
  // Budget + spill config captured here, on the query thread (the
  // producer may run later, possibly deep inside Prepare).
  auto lease = std::make_shared<BudgetLease>(CurrentBudget());
  std::string spill_dir = CurrentQueryContext().spill_dir;
  auto producer = [pipe, lease, spill_dir, keys = std::move(build_keys),
                   num_partitions]() -> StatusOr<PartitionedJoinTable> {
    if (pipe->plan_.serial != nullptr) {
      // One thread: materialize and hash a single partition — the
      // serial join's unchanged shape.
      OpChainSource chain(std::move(pipe->plan_.serial),
                          std::move(pipe->ops_));
      PDT_ASSIGN_OR_RETURN(Batch rows, MaterializeAll(&chain));
      PDT_RETURN_NOT_OK(lease->Charge(rows.ByteSize()));
      PartitionedJoinTable t;
      t.parts.push_back(JoinTable::Build(std::move(rows), keys));
      return t;
    }
    const int threads = pipe->plan_.options.num_threads;
    const size_t parts =
        num_partitions > 0 ? num_partitions : AutoJoinPartitions(threads);
    PartitionedCollectSink sink(keys, parts, lease.get(), spill_dir);
    PDT_RETURN_NOT_OK(RunPipeline(&pipe->plan_, pipe->ops_, &sink));
    return sink.Finalize(threads);
  };
  auto handle = std::make_shared<JoinBuildHandle>(std::move(producer));
  // The lease outlives the producer: the cached table's bytes stay
  // charged until the handle (and with it the table) is destroyed.
  handle->RetainLease(std::move(lease));
  return handle;
}

}  // namespace pdtstore
