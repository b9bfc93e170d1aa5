#include "exec/workload.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace pdtstore {

QueryTicket::~QueryTicket() { mgr_->Done(); }

WorkloadManager::WorkloadManager(WorkloadOptions options)
    : options_(std::move(options)), pool_(options_.process_memory_cap) {}

WorkloadManager::~WorkloadManager() = default;

WorkloadManager& WorkloadManager::Global() {
  static WorkloadManager mgr;
  return mgr;
}

int WorkloadManager::ResolvedMaxConcurrent() const {
  if (options_.max_concurrent > 0) return options_.max_concurrent;
  return 2 * ThreadPool::DefaultThreads();
}

void WorkloadManager::Configure(const WorkloadOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  pool_.set_capacity(options_.process_memory_cap);
  cv_.notify_all();  // a raised concurrency cap may unblock waiters
}

StatusOr<std::shared_ptr<QueryTicket>> WorkloadManager::Admit(
    std::string label) {
  size_t per_query_cap;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // An arrival queues behind any existing waiter even when a slot is
    // free: a finishing query wakes the head waiter, and without this
    // check the finisher's next Admit would take the slot first.
    const bool must_wait =
        active_ >= static_cast<size_t>(ResolvedMaxConcurrent()) ||
        !waiters_.empty();
    if (must_wait && waiters_.size() >= options_.max_queued) {
      ++rejected_;
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(active_) +
          " active, " + std::to_string(waiters_.size()) +
          " queued) rejecting query '" + label + "'");
    }
    if (must_wait) {
      const uint64_t seq = next_seq_++;
      waiters_.push_back(seq);
      queued_peak_ = std::max(queued_peak_, waiters_.size());
      // Strict FIFO: a waiter runs only when it is the oldest waiter
      // AND a slot is free. notify_all below wakes everyone; only the
      // head's predicate passes, so admission order is arrival order.
      cv_.wait(lock, [&] {
        return waiters_.front() == seq &&
               active_ < static_cast<size_t>(ResolvedMaxConcurrent());
      });
      waiters_.pop_front();
      // The next head may also have a free slot (e.g. the cap was
      // raised): keep the wave going.
      cv_.notify_all();
    }
    ++active_;
    ++admitted_;
    // Snapshot under the lock: Configure may swap options_ concurrently.
    per_query_cap = options_.per_query_memory_cap;
  }
  auto budget = std::make_shared<MemoryBudget>(std::move(label),
                                               per_query_cap, &pool_);
  return std::shared_ptr<QueryTicket>(
      new QueryTicket(this, std::move(budget)));
}

void WorkloadManager::Done() {
  std::lock_guard<std::mutex> lock(mu_);
  --active_;
  ++completed_;
  cv_.notify_all();
}

WorkloadStats WorkloadManager::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkloadStats s;
  s.admitted = admitted_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.active = active_;
  s.queued = waiters_.size();
  s.queued_peak = queued_peak_;
  s.memory_used = pool_.used();
  s.memory_peak = pool_.peak();
  s.memory_cap = pool_.capacity();
  return s;
}

}  // namespace pdtstore
