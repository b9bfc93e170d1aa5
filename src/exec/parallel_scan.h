// Morsel-driven parallel scan: an exchange operator that runs one merge
// cursor per worker over a shared queue of consecutive SID-range morsels
// cut from the scan's one stable interval (PDT layers are read-only
// during scans, so workers share them lock-free).
//
// The exchange is also the spine of parallel *pipelines*
// (exec/pipeline.h): each worker may run a chain of PipelineOps
// (filter, project, join probe) over every batch it merges before
// handing it to the pulling consumer, so whole pipeline fragments
// execute inside the workers and the exchange is the pipeline breaker,
// not the scan.
//
// The consumer stays a plain single-threaded BatchSource: pull-based
// operators sit on top unchanged, and the breakers have parallel forms
// of their own (exec/pipeline.h): per-worker pre-aggregation, the
// hash-partitioned join build, and per-worker sorted runs merged by a
// loser tree. Batches are delivered as workers finish them, as in
// morsel-driven dispatch: the consumer sees the serial scan's multiset
// of rows, not its sequence. A raw PDT merge batch carries the
// serial RID of its first row. Order is the job of the breakers that
// promise it (the sort).
//
// Workers are tasks on the process-wide ThreadPool::Global(), so
// concurrent queries share threads. Liveness never depends on the pool:
// whenever the consumer would block with unclaimed morsels remaining, it
// claims and processes one itself (morsel-driven "help"), so every scan
// completes even if the pool is saturated by other queries.
#ifndef PDTSTORE_EXEC_PARALLEL_SCAN_H_
#define PDTSTORE_EXEC_PARALLEL_SCAN_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "columnstore/batch.h"
#include "storage/sparse_index.h"
#include "util/thread_pool.h"

namespace pdtstore {

class PipelineOp;
class PipelineOpState;

/// Default morsel granularity: ~64K SIDs amortize per-morsel setup
/// (cursor seek, source construction) to noise while leaving plenty of
/// morsels for dynamic load balancing on skewed update distributions.
/// Also the upper bound of the auto-tuned size (AutoMorselRows).
constexpr size_t kDefaultMorselRows = 64 * 1024;

/// Scan execution knobs, plumbed through Table::Scan and the transaction
/// scan paths. The default (1 thread) is the unchanged serial scan.
struct ScanOptions {
  /// Worker threads; <= 0 means ThreadPool::DefaultThreads(). 1 = serial.
  /// This is a per-query cap on workers drawn from the shared process
  /// pool, not a dedicated thread count.
  int num_threads = 1;
  /// Morsel granularity in stable SIDs. 0 (the default) auto-tunes from
  /// the chunk size and the observed delta entry density (AutoMorselRows).
  size_t morsel_rows = 0;
};

/// Derives a morsel granularity from the storage chunk size, the scanned
/// SID span, the delta entry count and the worker count (the ROADMAP's
/// "morsel auto-tuning"): morsels are whole-chunk multiples when
/// possible, fine enough that every worker gets several units to load
/// balance, and shrink when the differential structure is dense so one
/// update-heavy morsel cannot dominate a worker. Clamped to
/// [min(chunk_rows, kDefaultMorselRows), kDefaultMorselRows].
size_t AutoMorselRows(size_t chunk_rows, uint64_t scan_sids,
                      size_t delta_entries, int num_threads);

/// Splits `range` into consecutive morsels of at most `morsel_rows` SIDs
/// (none for an empty range).
std::vector<SidRange> SplitIntoMorsels(SidRange range, size_t morsel_rows);

struct MorselPlan;

/// Shared planning prologue of Table::PlanMorsels and the layered scan
/// plan: resolves plan->options (default thread count; morsel_rows == 0
/// auto-tunes via AutoMorselRows from `chunk_rows`, the scanned span and
/// `delta_entries`) and splits `range` into plan->morsels (always at
/// least one, so trailing inserts have a home). Returns false when the
/// resolved thread count is 1: the caller then fills plan->serial
/// instead.
bool ResolveMorselPlan(SidRange range, size_t chunk_rows,
                       size_t delta_entries, MorselPlan* plan);

/// Builds the per-morsel merge cursor: called once per morsel, on a
/// worker thread. `final_morsel` is true for the scan's last morsel (the
/// one that emits trailing inserts). Must be thread-safe (the sources it
/// returns only read shared immutable state).
using MorselSourceFactory = std::function<std::unique_ptr<BatchSource>(
    size_t morsel_idx, const SidRange& morsel, bool final_morsel)>;

/// A planned merge scan, produced by Table::PlanMorsels /
/// Transaction::PlanMorsels and consumed by pipelines (exec/pipeline.h)
/// or turned directly into a BatchSource via MakeScanSource. Either
/// `serial` is set (single-threaded request, or a source that cannot be
/// split) or `morsels` + `factory` describe the parallel form.
struct MorselPlan {
  std::vector<SidRange> morsels;
  MorselSourceFactory factory;
  /// Resolved options (num_threads / morsel_rows no longer 0).
  ScanOptions options;
  /// Set => the scan runs serially through this source.
  std::unique_ptr<BatchSource> serial;
};

/// The exchange: N workers claim morsels from a shared queue, run the
/// factory-built merge cursor (plus the optional PipelineOp chain) over
/// each, and hand batches to the pulling consumer. Workers pull into
/// recycled batches (Batch::ResetLike inside the sources) drawn from a
/// free list that consumed batches return to, so the steady state
/// allocates nothing. Batches are handed on as they complete, through a
/// bounded ready queue that applies backpressure.
///
/// The first error from any worker or operator aborts the scan and is
/// returned from Next(). Destruction aborts, waits only for workers that
/// already started (queued tasks keep the shared state alive and exit as
/// soon as the pool runs them), and never blocks on other queries.
class ParallelScanSource : public BatchSource {
 public:
  ParallelScanSource(std::vector<SidRange> morsels,
                     MorselSourceFactory factory, ScanOptions options,
                     std::vector<std::unique_ptr<PipelineOp>> ops = {});
  ~ParallelScanSource() override;

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  // Everything the workers touch. Held by shared_ptr from every
  // submitted task, so a consumer that abandons the scan frees nothing a
  // late-starting task still needs.
  struct Shared {
    std::vector<SidRange> morsels;
    MorselSourceFactory factory;
    std::vector<std::unique_ptr<PipelineOp>> ops;
    ScanOptions opts;
    size_t num_workers = 0;

    std::mutex mu;
    std::condition_variable producer_cv;  // workers: ready queue room
    std::condition_variable consumer_cv;  // consumer: output available
    std::deque<Batch> ready;              // completed batches
    std::vector<Batch> freelist;          // recycled batch storage
    size_t next_morsel = 0;               // next morsel to claim
    size_t queue_cap = 0;                 // backpressure bound
    size_t morsels_done = 0;              // fully processed morsels
    size_t active_workers = 0;            // tasks past their start check
    Status error = Status::OK();          // first failure
    bool abort = false;

    // Body of one worker task (also reused by the consumer-help path
    // via ProcessMorsel).
    void RunWorker();
    // Merges one claimed morsel through the op chain into the ready
    // queue.
    // Returns false on abort/error.
    bool ProcessMorsel(size_t m,
                       std::vector<std::unique_ptr<PipelineOpState>>* st,
                       bool helper);
    void GrabRecycledBatch(Batch* b);
  };

  void Start();
  // Refills drained_ with every batch currently available (one lock
  // acquisition amortized over many batches) and returns spent consumer
  // batches to the free list; claims + processes a morsel itself when it
  // would otherwise block with unclaimed morsels left; false at end of
  // stream.
  StatusOr<bool> Refill();
  // Emits up to max_rows of pending_ into out (batch larger than the
  // consumer's budget, sliced across several Next calls).
  bool EmitPendingSlice(Batch* out, size_t max_rows);

  std::shared_ptr<Shared> sh_;
  bool started_ = false;

  // Consumer-side state (only touched by the pulling thread).
  std::vector<std::unique_ptr<PipelineOpState>> help_states_;
  std::deque<Batch> drained_;  // batches taken from the exchange in bulk
  std::vector<Batch> spent_;   // consumed storage awaiting bulk recycle
  Batch pending_;
  size_t pending_off_ = 0;
};

/// Turns a MorselPlan into a BatchSource: the serial source as-is, or a
/// ParallelScanSource over the morsels.
std::unique_ptr<BatchSource> MakeScanSource(MorselPlan plan);

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_PARALLEL_SCAN_H_
