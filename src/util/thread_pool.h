// A small fixed-size worker pool plus a dynamic ParallelFor, the execution
// substrate of the morsel-driven parallel scan (exec/parallel_scan.h).
// Deliberately work-stealing-free: scan morsels are claimed from a shared
// atomic queue, so a plain task pool with dynamic (counter-based) index
// claiming already load-balances skewed morsels.
//
// Scheduling: one FIFO queue shared by every query. Workers claim tasks
// in submission order and never preempt them. Fairness between
// concurrent queries comes from admission control (exec/workload.h),
// which bounds how many queries can submit work at once and admits them
// in arrival order. Per-query lanes in the pool were measured against
// this single queue and won nothing (DESIGN.md, "Workload management").
// Every submitter also works on its own thread (the consumer-help loop
// in exec/parallel_scan.cc, the pipeline driver, ParallelFor's caller),
// so a long queue costs throughput, never liveness.
#ifndef PDTSTORE_UTIL_THREAD_POOL_H_
#define PDTSTORE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdtstore {

/// Fixed set of worker threads executing submitted tasks in FIFO order.
/// The destructor drains all submitted tasks
/// before joining, so long-running tasks must observe their own
/// cancellation flag (as the parallel scan's workers do via its abort
/// flag).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues `fn` at the back of the queue.
  void Submit(std::function<void()> fn);

  /// Enqueues `n` copies of `fn` under one lock acquisition and a
  /// single wake-all — the fan-out path of pipeline runners and
  /// ParallelFor, which otherwise pay one lock + notify per helper.
  void SubmitMany(size_t n, const std::function<void()>& fn);

  /// Blocks until every submitted task has finished.
  void WaitIdle();

  /// Hardware concurrency, with a floor of 1 (hardware_concurrency() may
  /// report 0 on exotic platforms).
  static int DefaultThreads();

  /// The process-wide worker pool shared by every parallel scan and
  /// pipeline (lazily constructed, sized to the hardware). Scans no
  /// longer spawn a private pool: `ScanOptions::num_threads` caps how
  /// many of these workers one query fragment occupies, so concurrent
  /// queries share the same threads. Submitted tasks must tolerate
  /// running arbitrarily late (they queue behind every query's earlier
  /// tasks) and must observe their own cancellation flags;
  /// progress-critical work additionally runs on the submitting thread
  /// (see the consumer-help loop in exec/parallel_scan.cc), so a busy
  /// pool degrades throughput, never liveness.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or shutdown
  std::condition_variable idle_cv_;   // signals WaitIdle: all drained
  std::deque<std::function<void()>> queue_;
  size_t running_ = 0;
  bool shutdown_ = false;
};

/// Applies `fn` to every index in [begin, end) using up to `num_threads`
/// workers (<= 0: DefaultThreads()) drawn from the shared global pool,
/// with the calling thread participating — every index completes even if
/// the pool is fully occupied by other queries. Indices are claimed
/// dynamically from a shared atomic counter, so unevenly-sized work items
/// still balance. Runs inline when one worker suffices. `fn` must be
/// thread-safe.
void ParallelFor(int num_threads, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

}  // namespace pdtstore

#endif  // PDTSTORE_UTIL_THREAD_POOL_H_
