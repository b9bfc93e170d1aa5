#include "exec/pipeline.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <numeric>

#include "exec/operator.h"
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

  std::unique_ptr<BatchSource> IntoSerial(
      std::unique_ptr<BatchSource> input) && override {
    // The fused conjunction stays one node: one compaction per batch.
    return std::make_unique<FilterNode>(std::move(input),
                                        std::move(predicates_));
  }

 private:
  std::vector<VecPredicate> predicates_;
};

class ProjectOp : public PipelineOp {
 public:
  explicit ProjectOp(std::vector<ColumnExpr> exprs)
      : exprs_(std::move(exprs)) {}

  struct State : PipelineOpState {
    Batch out;
  };

  std::unique_ptr<PipelineOpState> MakeState() const override {
    return std::make_unique<State>();
  }

  Status Execute(Batch* batch, PipelineOpState* state) const override {
    State* s = static_cast<State*>(state);
    ProjectBatch(exprs_, batch, &s->out);
    // The consumed input batch becomes next round's output scratch.
    std::swap(*batch, s->out);
    return Status::OK();
  }

  std::unique_ptr<BatchSource> IntoSerial(
      std::unique_ptr<BatchSource> input) && override {
    return std::make_unique<ProjectNode>(std::move(input), std::move(exprs_));
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

  std::unique_ptr<BatchSource> IntoSerial(
      std::unique_ptr<BatchSource> input) && override {
    return std::make_unique<HashJoinNode>(std::move(input), std::move(build_),
                                          std::move(probe_keys_), kind_);
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
      StatusOr<bool> more = src->Next(&local, kDefaultBatchSize);
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
  // Serial plans never get here: they lower to the serial operator tree
  // (Pipeline::SerialTree).
  assert(plan->serial == nullptr);
  for (const auto& op : ops) {
    PDT_RETURN_NOT_OK(op->Prepare());
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
  ThreadPool::Global().SubmitMany(helpers, [rs] { RunPipelineWorker(rs); });
  // The driver always participates, so the pipeline finishes even when
  // the shared pool is saturated by concurrent queries.
  RunPipelineWorker(rs);
  std::unique_lock<std::mutex> lock(rs->mu);
  rs->cv.wait(lock, [&rs] { return rs->active == 0; });
  rs->finished = true;
  return rs->error;
}

// ---------------------------------------------------------------------
// Fragment op factory.
// ---------------------------------------------------------------------

std::unique_ptr<PipelineOp> MakeProjectOp(std::vector<ColumnExpr> exprs) {
  return std::make_unique<ProjectOp>(std::move(exprs));
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
        // The budgets account growth, not exact heap bytes.
        group_bytes_(merged_.bytes_per_group()) {}

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

/// Workers hash each collected batch's key columns once and route the
/// rows into P per-worker partition batches (gathers). Combine hands
/// the per-worker slices over; Finalize then concatenates and hashes
/// the P partitions in parallel (ParallelFor) into the published
/// PartitionedJoinTable, reusing the collect-time hashes.
class PartitionedCollectSink : public PipelineSink {
 public:
  PartitionedCollectSink(std::vector<size_t> keys, size_t num_partitions,
                         BudgetLease* lease)
      : keys_(std::move(keys)),
        num_partitions_(num_partitions),
        lease_(lease) {}

  struct State : PipelineOpState {
    bool init = false;
    std::vector<Batch> parts;
    std::vector<std::vector<uint64_t>> part_hashes;
    std::vector<uint64_t> row_hashes;  // scratch
    std::vector<SelVector> route;      // scratch
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
    s->row_hashes.assign(n, kHashSeed);
    for (size_t k : keys_) {
      batch->column(k).HashColumn(s->row_hashes.data());
    }
    // Charged: what the copied rows hold, plus their hashes. An
    // over-budget build fails fast here with ResourceExhausted.
    size_t bytes = 8 * n;
    if (num_partitions_ == 1) {
      bytes += AppendPlainRows(&s->parts[0], *batch);
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
        bytes += AppendPlainRows(&s->parts[p], *batch, &s->route[p]);
        for (uint32_t row : s->route[p].indices()) {
          s->part_hashes[p].push_back(s->row_hashes[row]);
        }
      }
    }
    return lease_->Charge(bytes);
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

  /// Builds the published table: for each partition, concatenate every
  /// worker's slice and hash it into a JoinTable — independent per
  /// partition, so the partitions build in parallel.
  PartitionedJoinTable Finalize(int num_threads) {
    PartitionedJoinTable t;
    t.parts.resize(num_partitions_);
    ParallelFor(num_threads, 0, num_partitions_, [&](size_t p) {
      Batch rows;
      std::vector<uint64_t> hashes;
      bool first = true;
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
    return t;
  }

 private:
  struct WorkerSlices {
    std::vector<Batch> parts;
    std::vector<std::vector<uint64_t>> hashes;
  };

  std::vector<size_t> keys_;
  size_t num_partitions_;
  BudgetLease* lease_;
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
      s->rows.ResetLike(*batch);
      s->first = false;
    }
    // A copy: the worker recycles batch storage. Charged: what the
    // copied rows hold plus their 8-byte seq tags; an over-budget sort
    // fails fast here.
    const size_t bytes =
        AppendPlainRows(&s->rows, *batch) + 8 * batch->num_rows();
    return lease_ != nullptr ? lease_->Charge(bytes) : Status::OK();
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
  return Add(std::make_unique<FilterOp>(std::move(predicate)));
}

Pipeline& Pipeline::Project(std::vector<ColumnExpr> exprs) {
  return Add(MakeProjectOp(std::move(exprs)));
}

Pipeline& Pipeline::Probe(std::shared_ptr<JoinBuildHandle> build,
                          std::vector<size_t> probe_keys, JoinKind kind) {
  return Add(std::make_unique<JoinProbeOp>(std::move(build),
                                           std::move(probe_keys), kind));
}

Pipeline& Pipeline::Add(std::unique_ptr<PipelineOp> op) {
  ops_.push_back(std::move(op));
  return *this;
}

std::unique_ptr<BatchSource> Pipeline::SerialTree() && {
  std::unique_ptr<BatchSource> tree = std::move(plan_.serial);
  for (auto& op : ops_) tree = std::move(*op).IntoSerial(std::move(tree));
  ops_.clear();
  return tree;
}

std::unique_ptr<BatchSource> Pipeline::Exchange() && {
  if (plan_.serial != nullptr) return std::move(*this).SerialTree();
  return std::make_unique<ParallelScanSource>(
      std::move(plan_.morsels), std::move(plan_.factory), plan_.options,
      std::move(ops_));
}

std::unique_ptr<BatchSource> Pipeline::Aggregate(
    std::vector<size_t> group_by, std::vector<AggSpec> aggs) && {
  if (plan_.serial != nullptr) {
    return std::make_unique<HashAggNode>(std::move(*this).SerialTree(),
                                         std::move(group_by),
                                         std::move(aggs));
  }
  return std::make_unique<ParallelAggSource>(std::move(plan_),
                                             std::move(ops_),
                                             std::move(group_by),
                                             std::move(aggs));
}

std::unique_ptr<BatchSource> Pipeline::IntoSortBuild(
    std::vector<SortKey> keys, size_t limit) && {
  if (plan_.serial != nullptr) {
    return std::make_unique<SortNode>(std::move(*this).SerialTree(),
                                      std::move(keys), limit);
  }
  return std::make_unique<ParallelSortSource>(
      std::move(plan_), std::move(ops_), std::move(keys), limit);
}

std::shared_ptr<JoinBuildHandle> Pipeline::IntoJoinBuild(
    std::unique_ptr<Pipeline> pipeline, std::vector<size_t> build_keys,
    size_t num_partitions) {
  if (pipeline->plan_.serial != nullptr) {
    // The serial join's build: a single partition.
    return std::make_shared<JoinBuildHandle>(
        std::move(*pipeline).SerialTree(), std::move(build_keys));
  }
  std::shared_ptr<Pipeline> pipe = std::move(pipeline);
  // Budget captured here, on the query thread (the producer may run
  // later, possibly deep inside Prepare).
  auto lease = std::make_shared<BudgetLease>(CurrentBudget());
  auto producer = [pipe, lease, keys = std::move(build_keys),
                   num_partitions]() -> StatusOr<PartitionedJoinTable> {
    const int threads = pipe->plan_.options.num_threads;
    const size_t parts =
        num_partitions > 0 ? num_partitions : AutoJoinPartitions(threads);
    PartitionedCollectSink sink(keys, parts, lease.get());
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
