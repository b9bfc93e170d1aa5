// Multi-query workload management: admission control with bounded FIFO
// queueing in front of the shared worker pool, per-query memory budgets
// (util/mem_budget.h) drawn from one process pool, and a WorkloadStats
// snapshot for observability (shell `.stats`).
//
// Admission semantics: at most `max_concurrent` queries run at once.
// Arrivals beyond that wait in strict FIFO order; when the wait queue is
// itself full (`max_queued`), Admit fails immediately with
// ResourceExhausted — bounded queueing, so a flood degrades into fast
// rejections instead of an unbounded backlog. Each admitted query gets a
// QueryTicket carrying a unique scheduling token (the ThreadPool
// fairness lane) and a MemoryBudget; ScopedQuery installs both in the
// thread-local query context for the duration of the query, where the
// exchange / pipeline / breaker code picks them up.
#ifndef PDTSTORE_EXEC_WORKLOAD_H_
#define PDTSTORE_EXEC_WORKLOAD_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "util/mem_budget.h"
#include "util/status.h"

namespace pdtstore {

class WorkloadManager;

/// Tuning knobs of one WorkloadManager.
struct WorkloadOptions {
  /// Queries running at once; <= 0 defaults to 2x hardware threads
  /// (queries block on I/O-free CPU work here, so a small multiple of
  /// the core count keeps the pool busy without thrashing).
  int max_concurrent = 0;
  /// Arrivals allowed to wait beyond max_concurrent before Admit
  /// rejects; 0 = reject as soon as concurrency is saturated.
  size_t max_queued = 256;
  /// Process-wide memory cap shared by all admitted queries (bytes);
  /// 0 = unlimited.
  size_t process_memory_cap = 0;
  /// Per-query memory cap (bytes); 0 = only the process cap applies.
  size_t per_query_memory_cap = 0;
  /// Directory for join-build partition spills; empty = fail-fast
  /// (ResourceExhausted) instead of spilling.
  std::string spill_dir;
};

/// Point-in-time counters of a WorkloadManager.
struct WorkloadStats {
  uint64_t admitted = 0;        // tickets handed out so far
  uint64_t completed = 0;       // tickets returned
  uint64_t rejected = 0;        // Admit failures (queue full)
  uint64_t active = 0;          // currently running
  uint64_t queued = 0;          // currently waiting
  uint64_t queued_peak = 0;     // max simultaneous waiters seen
  size_t memory_used = 0;       // pool bytes currently charged
  size_t memory_peak = 0;       // max pool bytes ever charged
  size_t memory_cap = 0;        // pool capacity (0 = unlimited)
};

/// One admitted query's run permit. Returned by WorkloadManager::Admit
/// as a shared_ptr so long-lived helpers (queued pool tasks) can keep it
/// alive; the slot is released when the last reference drops.
class QueryTicket {
 public:
  ~QueryTicket();

  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  uint64_t token() const { return token_; }
  const std::shared_ptr<MemoryBudget>& budget() const { return budget_; }
  const std::string& label() const { return budget_->label(); }
  /// Spill directory captured at admission (empty = fail fast).
  const std::string& spill_dir() const { return spill_dir_; }

 private:
  friend class WorkloadManager;
  QueryTicket(WorkloadManager* mgr, uint64_t token,
              std::shared_ptr<MemoryBudget> budget, std::string spill_dir)
      : mgr_(mgr),
        token_(token),
        budget_(std::move(budget)),
        spill_dir_(std::move(spill_dir)) {}

  WorkloadManager* mgr_;
  uint64_t token_;
  std::shared_ptr<MemoryBudget> budget_;
  std::string spill_dir_;
};

/// The admission gate + shared memory pool. Thread-safe. One process
/// normally uses Global(), tests construct their own.
class WorkloadManager {
 public:
  explicit WorkloadManager(WorkloadOptions options = {});
  ~WorkloadManager();

  /// Blocks until a run slot is free (FIFO among waiters) and returns
  /// the query's ticket, or fails fast with ResourceExhausted when the
  /// bounded wait queue is full. Destroying the ticket frees the slot.
  StatusOr<std::shared_ptr<QueryTicket>> Admit(std::string label);

  WorkloadStats GetStats() const;
  MemoryPool* memory_pool() { return &pool_; }
  const WorkloadOptions& options() const { return options_; }

  /// Reconfigures caps (shell `.workload`, tests). Only affects queries
  /// admitted afterwards (memory caps additionally re-bound the shared
  /// pool immediately).
  void Configure(const WorkloadOptions& options);

  /// Process-wide manager (lazily constructed, default options: no
  /// memory caps, concurrency 2x hardware).
  static WorkloadManager& Global();

 private:
  friend class QueryTicket;
  void Done();
  int ResolvedMaxConcurrent() const;

  WorkloadOptions options_;
  MemoryPool pool_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint64_t> waiters_;  // FIFO admission order (by seq)
  uint64_t next_seq_ = 1;         // also the scheduling token source
  uint64_t active_ = 0;
  uint64_t admitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t queued_peak_ = 0;
};

/// Binds an admitted query to the current thread for a scope: installs
/// the ticket's budget + token in the thread-local query context (so
/// plans, pipelines and breakers constructed in the scope account to
/// this query and submit to its fairness lane) and keeps the ticket
/// alive for the duration.
class ScopedQuery {
 public:
  explicit ScopedQuery(std::shared_ptr<QueryTicket> ticket)
      : ticket_(std::move(ticket)),
        ctx_(QueryContext{ticket_ ? ticket_->budget() : nullptr,
                          ticket_ ? ticket_->token() : 0,
                          ticket_ ? ticket_->spill_dir() : std::string()}) {}

 private:
  std::shared_ptr<QueryTicket> ticket_;
  ScopedQueryContext ctx_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_WORKLOAD_H_
