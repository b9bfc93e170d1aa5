// Parallel pipeline execution, morsel-driven in the spirit of Leis et
// al. ("Morsel-Driven Parallelism", SIGMOD 2014), grafted onto the
// paper's X100-style block engine: a Pipeline is a morsel scan plus a
// chain of worker-local operators (filter, project, join probe) that run
// *inside* whichever worker claimed the morsel. Threads meet only at
// pipeline breakers:
//   * Exchange       — the bounded-queue exchange handing fragment
//                      output to a pulling consumer as it completes;
//   * Aggregate      — per-worker partial (pre-)aggregation tables,
//                      merged into one result at finalize;
//   * IntoJoinBuild  — per-worker hash-partitioned build-side
//                      collection: workers route rows into P partitions
//                      during collect, the P JoinTable partitions
//                      finalize in parallel, and the published
//                      immutable table is probed lock-free with rows
//                      routed by the same partition function;
//   * IntoSortBuild  — per-worker sorted runs (each worker sorts its
//                      own collected rows before the merge barrier),
//                      merged by a k-way loser tree that breaks key
//                      ties by source morsel order — the exact sequence
//                      of the serial stable sort.
//
// Stateful operators are split into shared, read-only-after-publish
// state (predicates, expressions, the join table) and per-worker
// PipelineOpState (scratch buffers, partial tables). All workers come
// from the process-wide ThreadPool::Global(); the driving thread always
// participates, so pipelines finish even when the pool is saturated by
// concurrent queries. A serial plan (one thread, or a VDT table's scan,
// which is never split) lowers each op to its serial node — FilterNode,
// ProjectNode, HashJoinNode — under the breaker's serial node, so a
// one-thread Pipeline is exactly the serial operator tree.
#ifndef PDTSTORE_EXEC_PIPELINE_H_
#define PDTSTORE_EXEC_PIPELINE_H_

#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/parallel_scan.h"
#include "exec/project.h"
#include "exec/sort.h"

namespace pdtstore {

/// Per-worker operator state: scratch buffers, partial aggregation
/// tables, collected build rows. Created once per worker and reused for
/// every morsel that worker claims.
class PipelineOpState {
 public:
  virtual ~PipelineOpState() = default;
};

/// One operator fragment pushed into the scan workers. Shared members
/// are read-only once workers run; everything mutable lives in the
/// per-worker PipelineOpState.
class PipelineOp {
 public:
  virtual ~PipelineOp() = default;

  /// Called once, on the consuming thread, before any worker starts.
  /// Upstream pipeline breakers resolve here (e.g. the join build side
  /// runs its own pipeline to completion — the publish barrier).
  virtual Status Prepare() { return Status::OK(); }

  /// Fresh per-worker state.
  virtual std::unique_ptr<PipelineOpState> MakeState() const = 0;

  /// Transforms *batch in place (possibly to zero rows). Must be
  /// thread-safe across distinct `state` objects.
  virtual Status Execute(Batch* batch, PipelineOpState* state) const = 0;

  /// Build-time fusion hook: a filter op absorbs `predicate` into its
  /// word-wise conjunction and returns true; every other op declines.
  /// Called only while the pipeline is under construction (before any
  /// worker exists), so no synchronization is needed.
  virtual bool FuseFilter(VecPredicate* predicate) {
    (void)predicate;
    return false;
  }

  /// Lowers the op to its serial operator node pulling from `input`:
  /// the serial form of a one-thread Pipeline.
  virtual std::unique_ptr<BatchSource> IntoSerial(
      std::unique_ptr<BatchSource> input) && = 0;
};

/// Projection / expression evaluation (ProjectNode's kernel).
std::unique_ptr<PipelineOp> MakeProjectOp(std::vector<ColumnExpr> exprs);

/// A run-to-completion sink: the pipeline-breaker side of Aggregate /
/// IntoJoinBuild / IntoSortBuild. Sink() runs on workers with
/// per-worker state (`morsel` is the index of the morsel the batch came
/// from — monotone per worker, and morsels partition the scan in SID
/// order, so (morsel, arrival) reconstructs the serial sequence);
/// Finish() runs once per worker after its last morsel, still on the
/// worker and still unserialized — per-worker post-processing (e.g.
/// sorting a run) parallelizes here; Combine() then merges the worker's
/// state into the shared result under the runner's serialization.
class PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  virtual std::unique_ptr<PipelineOpState> MakeState() const = 0;
  virtual Status Sink(Batch* batch, PipelineOpState* state,
                      size_t morsel) = 0;
  virtual Status Finish(PipelineOpState* state) {
    (void)state;
    return Status::OK();
  }
  virtual Status Combine(PipelineOpState* state) = 0;
};

/// Drives `plan` through `ops` into `sink` with up to
/// plan.options.num_threads workers (global pool + the calling thread,
/// which always participates). Parallel plans only: a serial plan
/// (plan.serial set) lowers to the serial operator tree instead. Calls
/// every op's Prepare() first. Returns the first error.
Status RunPipeline(MorselPlan* plan,
                   const std::vector<std::unique_ptr<PipelineOp>>& ops,
                   PipelineSink* sink);

/// A pipeline under construction: a planned morsel scan plus the
/// fragment ops appended so far. Ends in exactly one breaker call.
class Pipeline {
 public:
  explicit Pipeline(MorselPlan plan);
  ~Pipeline();

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Appends a filter fragment. Consecutive Filter calls fuse into one
  /// op whose predicates fold word-wise on the keep bitmap with a
  /// single compaction — so a later predicate may be evaluated on rows
  /// an earlier one rejected (predicates must be total over the batch;
  /// see the VecPredicate contract in exec/filter.h).
  Pipeline& Filter(VecPredicate predicate);
  Pipeline& Project(std::vector<ColumnExpr> exprs);
  /// Appends a hash-join probe against a deferred build side; the op's
  /// Prepare() resolves the handle (running the build pipeline if
  /// needed) before workers start.
  Pipeline& Probe(std::shared_ptr<JoinBuildHandle> build,
                  std::vector<size_t> probe_keys,
                  JoinKind kind = JoinKind::kInner);

  /// Breaker: stream the fragment's output to the pulling consumer
  /// through the exchange, as workers complete it (the serial multiset,
  /// in no promised order).
  std::unique_ptr<BatchSource> Exchange() &&;

  /// Breaker: grouped aggregation with per-worker pre-aggregation
  /// tables, merged at finalize. Runs lazily on the first Next() pull,
  /// like the serial HashAggNode.
  std::unique_ptr<BatchSource> Aggregate(std::vector<size_t> group_by,
                                         std::vector<AggSpec> aggs) &&;

  /// Breaker: full sort of the fragment's output (optional LIMIT /
  /// top-k, 0 = unlimited). Workers collect rows tagged with their
  /// source morsel order and sort their runs in parallel; the consumer
  /// merges with a loser tree whose key ties fall back to the tags, so
  /// the emitted sequence equals the serial SortNode's stable sort of
  /// the serial fragment — exactly, when the fragment itself is
  /// order-deterministic (filter / project / semi- and anti-probe
  /// are). An upstream parallel *inner* probe is not: its batch output
  /// is grouped by build partition, so any key-tie group may come out
  /// permuted (and a LIMIT cutting through such a tie group may pick
  /// different tied rows than the serial tree) — only the multiset is
  /// guaranteed there. Runs lazily on the first Next() pull. A serial
  /// plan gets the SortNode over the serial tree.
  std::unique_ptr<BatchSource> IntoSortBuild(std::vector<SortKey> keys,
                                             size_t limit = 0) &&;

  /// Breaker: collect the fragment's rows as a hash-partitioned join
  /// build side. Workers route rows into `num_partitions` partitions
  /// (0 = auto: scales with the pipeline's worker count) while
  /// collecting; the partitions are finalized (concatenated + hashed)
  /// in parallel and published on first use of the returned handle.
  /// A serial plan gets the single-partition build over the serial tree.
  static std::shared_ptr<JoinBuildHandle> IntoJoinBuild(
      std::unique_ptr<Pipeline> pipeline, std::vector<size_t> build_keys,
      size_t num_partitions = 0);

 private:
  Pipeline& Add(std::unique_ptr<PipelineOp> op);
  /// A serial plan's operator tree: plan_.serial wrapped in each op's
  /// serial node, in pipeline order.
  std::unique_ptr<BatchSource> SerialTree() &&;

  MorselPlan plan_;
  std::vector<std::unique_ptr<PipelineOp>> ops_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_PIPELINE_H_
