// Per-query memory accounting: a process-wide MemoryPool with an atomic
// cap, per-query MemoryBudget objects charging it, and a thread-local
// current budget so deep operator code (sort materialization, join build
// collect, agg tables) can find the budget of the query it works for
// without threading it through every constructor signature.
//
// Charge discipline: the budget pointer is captured ONCE, on the query
// thread, when an operator / sink is constructed (all breakers are
// constructed on the consuming thread, before workers start). Charges
// and releases may then happen from any worker — both MemoryPool and
// MemoryBudget are atomic. A failed charge returns ResourceExhausted;
// nothing is charged on failure, so the caller aborts cleanly.
// BudgetLease is the RAII holder: whatever it charged is released in its
// destructor, including every error path.
#ifndef PDTSTORE_UTIL_MEM_BUDGET_H_
#define PDTSTORE_UTIL_MEM_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"

namespace pdtstore {

/// Process-wide memory cap shared by every query's budget. Lock-free:
/// TryCharge is a CAS loop that never overshoots the cap.
class MemoryPool {
 public:
  /// `capacity` == 0 means unlimited.
  explicit MemoryPool(size_t capacity = 0) : capacity_(capacity) {}

  /// Atomically reserves `bytes`; false if that would exceed capacity.
  bool TryCharge(size_t bytes) {
    const size_t cap = capacity_.load(std::memory_order_relaxed);
    size_t cur = used_.load(std::memory_order_relaxed);
    while (true) {
      if (cap != 0 && cur + bytes > cap) return false;
      if (used_.compare_exchange_weak(cur, cur + bytes,
                                      std::memory_order_relaxed)) {
        // Peak tracking is advisory (stats display), relaxed is fine.
        size_t peak = peak_.load(std::memory_order_relaxed);
        while (cur + bytes > peak &&
               !peak_.compare_exchange_weak(peak, cur + bytes,
                                            std::memory_order_relaxed)) {
        }
        return true;
      }
    }
  }

  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Reconfigures the cap (tests, shell). Does not evict anything; an
  /// over-cap pool simply rejects further charges.
  void set_capacity(size_t capacity) {
    capacity_.store(capacity, std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t> capacity_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// One query's memory account: a per-query cap layered over the shared
/// pool. Charges hit the query cap first, then reserve from the pool;
/// a rejected pool reservation rolls the query-local charge back, so
/// used() only ever counts bytes actually held in the pool.
class MemoryBudget {
 public:
  /// `query_cap` == 0 means only the pool cap applies. `pool` may be
  /// null (accounting without any shared cap — used by unit tests).
  MemoryBudget(std::string label, size_t query_cap, MemoryPool* pool)
      : label_(std::move(label)), query_cap_(query_cap), pool_(pool) {}

  ~MemoryBudget() {
    // The budget's own charges were all released (BudgetLease guarantees
    // it); return nothing to the pool here. assert-level invariant only:
    // a leak would show up as used() != 0 in the accounting tests.
  }

  Status Charge(size_t bytes) {
    size_t cur = used_.load(std::memory_order_relaxed);
    while (true) {
      if (query_cap_ != 0 && cur + bytes > query_cap_) {
        return Exhausted(bytes, "query memory cap");
      }
      if (used_.compare_exchange_weak(cur, cur + bytes,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    if (pool_ != nullptr && !pool_->TryCharge(bytes)) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return Exhausted(bytes, "process memory pool");
    }
    size_t peak = peak_.load(std::memory_order_relaxed);
    const size_t now = used_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    return Status::OK();
  }

  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    if (pool_ != nullptr) pool_->Release(bytes);
  }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t query_cap() const { return query_cap_; }
  const std::string& label() const { return label_; }
  MemoryPool* pool() const { return pool_; }

 private:
  Status Exhausted(size_t bytes, const char* which) const {
    return Status::ResourceExhausted(
        "query '" + label_ + "' " + which + " exceeded charging " +
        std::to_string(bytes) + " bytes (query used " +
        std::to_string(used()) + "/" + std::to_string(query_cap_) +
        ", pool used " +
        std::to_string(pool_ ? pool_->used() : 0) + "/" +
        std::to_string(pool_ ? pool_->capacity() : 0) + ")");
  }

  std::string label_;
  size_t query_cap_;
  MemoryPool* pool_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// RAII charge holder: operators charge through the lease as they
/// materialize and the destructor releases every byte — error paths
/// included, which is the whole point. Thread-safe: workers of one sink
/// share a lease. A lease with a null budget charges nothing (the code
/// path runs outside any managed query).
class BudgetLease {
 public:
  explicit BudgetLease(std::shared_ptr<MemoryBudget> budget = nullptr)
      : budget_(std::move(budget)) {}
  ~BudgetLease() { ReleaseAll(); }

  BudgetLease(const BudgetLease&) = delete;
  BudgetLease& operator=(const BudgetLease&) = delete;

  Status Charge(size_t bytes) {
    if (budget_ == nullptr || bytes == 0) return Status::OK();
    PDT_RETURN_NOT_OK(budget_->Charge(bytes));
    held_.fetch_add(bytes, std::memory_order_relaxed);
    return Status::OK();
  }

  void ReleaseAll() {
    if (budget_ == nullptr) return;
    const size_t h = held_.exchange(0, std::memory_order_relaxed);
    if (h > 0) budget_->Release(h);
  }

  size_t held() const { return held_.load(std::memory_order_relaxed); }
  const std::shared_ptr<MemoryBudget>& budget() const { return budget_; }

 private:
  std::shared_ptr<MemoryBudget> budget_;
  std::atomic<size_t> held_{0};
};

// ---------------------------------------------------------------------
// Thread-local current budget.
// ---------------------------------------------------------------------

/// The budget installed on this thread by ScopedBudget (null if none:
/// the code runs outside any managed query and charges nothing).
/// Operator constructors read it on the query's own thread; worker
/// threads never read it — budgets reach them by captured pointer.
std::shared_ptr<MemoryBudget> CurrentBudget();

/// Installs `budget` as the current thread's budget for a scope;
/// restores the previous one on destruction (nests).
class ScopedBudget {
 public:
  explicit ScopedBudget(std::shared_ptr<MemoryBudget> budget);
  ~ScopedBudget();

  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  std::shared_ptr<MemoryBudget> prev_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_UTIL_MEM_BUDGET_H_
