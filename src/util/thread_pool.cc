#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace pdtstore {

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Global() {
  // Function-local static: constructed on first parallel scan, drained
  // and joined during static destruction (all scans are gone by then —
  // sources are owned by query objects destroyed before exit).
  static ThreadPool pool(DefaultThreads());
  return pool;
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::SubmitMany(size_t n, const std::function<void()>& fn) {
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.end(), n, fn);
  }
  if (n == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    // Destroy the task's captures before it stops counting as running:
    // WaitIdle callers rely on everything a finished task owned (exchange
    // state, join builds, budget leases) already being released.
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

void ParallelFor(int num_threads, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  size_t workers = num_threads <= 0
                       ? static_cast<size_t>(ThreadPool::DefaultThreads())
                       : static_cast<size_t>(num_threads);
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Tasks own this state by shared_ptr and check `finished` before
  // touching anything, so the caller waits only for tasks that actually
  // started — a pool saturated by other queries cannot stall the return
  // (the caller has already drained every index itself by then).
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<size_t> next;
    size_t end;
    std::function<void(size_t)> fn;
    size_t active = 0;
    bool finished = false;
  };
  auto sh = std::make_shared<Shared>();
  sh->next = begin;
  sh->end = end;
  sh->fn = fn;
  auto drain = [](Shared* s) {
    for (size_t i;
         (i = s->next.fetch_add(1, std::memory_order_relaxed)) < s->end;) {
      s->fn(i);
    }
  };
  ThreadPool::Global().SubmitMany(workers - 1, [sh, drain] {
    {
      std::lock_guard<std::mutex> lock(sh->mu);
      if (sh->finished) return;
      ++sh->active;
    }
    drain(sh.get());
    std::lock_guard<std::mutex> lock(sh->mu);
    if (--sh->active == 0) sh->cv.notify_all();
  });
  // The caller participates, so the loop completes even when the global
  // pool is saturated by other queries.
  drain(sh.get());
  std::unique_lock<std::mutex> lock(sh->mu);
  sh->cv.wait(lock, [&sh] { return sh->active == 0; });
  sh->finished = true;
}

}  // namespace pdtstore
