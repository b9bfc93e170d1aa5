#include "exec/parallel_scan.h"

#include <algorithm>

#include "exec/pipeline.h"

namespace pdtstore {

size_t AutoMorselRows(size_t chunk_rows, uint64_t scan_sids,
                      size_t delta_entries, int num_threads) {
  if (chunk_rows == 0 || chunk_rows > kDefaultMorselRows) {
    chunk_rows = kDefaultMorselRows;
  }
  if (num_threads <= 0) num_threads = ThreadPool::DefaultThreads();
  size_t rows = kDefaultMorselRows;
  // Load balancing: aim for at least ~4 morsels per worker so a slow
  // (update-dense) morsel can be compensated by idle workers claiming
  // the rest.
  if (scan_sids > 0) {
    size_t balanced = static_cast<size_t>(
        scan_sids / (4 * static_cast<uint64_t>(num_threads)) + 1);
    rows = std::min(rows, balanced);
  }
  // Density: bound the expected delta entries per morsel (~4K) so the
  // per-morsel merge cost stays comparable across a skewed PDT.
  if (delta_entries > 0 && scan_sids > 0) {
    double per_sid =
        static_cast<double>(delta_entries) / static_cast<double>(scan_sids);
    if (per_sid > 0) {
      size_t dense = static_cast<size_t>(4096.0 / per_sid) + 1;
      rows = std::min(rows, dense);
    }
  }
  // Chunk alignment: a morsel should cover whole decoded chunks (the
  // unit of I/O) whenever it spans at least one.
  const size_t floor_rows = std::min(chunk_rows, kDefaultMorselRows);
  if (rows >= chunk_rows) {
    rows -= rows % chunk_rows;
  }
  return std::max(rows, floor_rows);
}

std::vector<SidRange> SplitIntoMorsels(SidRange range, size_t morsel_rows) {
  if (morsel_rows == 0) morsel_rows = kDefaultMorselRows;
  std::vector<SidRange> morsels;
  for (Sid b = range.begin; b < range.end; b += morsel_rows) {
    morsels.push_back(SidRange{b, std::min<Sid>(b + morsel_rows, range.end)});
  }
  return morsels;
}

bool ResolveMorselPlan(SidRange range, size_t chunk_rows,
                       size_t delta_entries, MorselPlan* plan) {
  if (plan->options.num_threads <= 0) {
    plan->options.num_threads = ThreadPool::DefaultThreads();
  }
  if (plan->options.num_threads <= 1) {
    plan->options.num_threads = 1;
    return false;
  }
  if (plan->options.morsel_rows == 0) {
    plan->options.morsel_rows =
        AutoMorselRows(chunk_rows, range.end - range.begin, delta_entries,
                       plan->options.num_threads);
  }
  plan->morsels = SplitIntoMorsels(range, plan->options.morsel_rows);
  if (plan->morsels.empty()) {
    // No stable rows to scan (empty table): keep one empty morsel at the
    // end position so trailing/pending inserts still have a final morsel
    // to ride with.
    plan->morsels.push_back(SidRange{range.end, range.end});
  }
  return true;
}

// ---------------------------------------------------------------------
// ParallelScanSource.
// ---------------------------------------------------------------------

ParallelScanSource::ParallelScanSource(
    std::vector<SidRange> morsels, MorselSourceFactory factory,
    ScanOptions options, std::vector<std::unique_ptr<PipelineOp>> ops)
    : sh_(std::make_shared<Shared>()) {
  sh_->morsels = std::move(morsels);
  sh_->factory = std::move(factory);
  sh_->ops = std::move(ops);
  sh_->opts = options;
  if (sh_->opts.num_threads <= 0) {
    sh_->opts.num_threads = ThreadPool::DefaultThreads();
  }
  sh_->num_workers = std::min<size_t>(
      static_cast<size_t>(sh_->opts.num_threads), sh_->morsels.size());
  sh_->queue_cap = std::max<size_t>(4 * sh_->num_workers, 2);
}

ParallelScanSource::~ParallelScanSource() {
  std::unique_lock<std::mutex> lock(sh_->mu);
  sh_->abort = true;
  sh_->producer_cv.notify_all();
  sh_->consumer_cv.notify_all();
  // Wait only for workers that already started (they may be touching the
  // factory's underlying table). Queued tasks own the Shared state via
  // shared_ptr and exit on their start check whenever the pool runs them.
  sh_->consumer_cv.wait(lock, [this] { return sh_->active_workers == 0; });
}

void ParallelScanSource::Start() {
  started_ = true;
  for (const auto& op : sh_->ops) {
    Status st = op->Prepare();
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(sh_->mu);
      if (sh_->error.ok()) sh_->error = st;
      sh_->abort = true;
      return;
    }
  }
  std::shared_ptr<Shared> sh = sh_;
  ThreadPool::Global().SubmitMany(sh_->num_workers,
                                  [sh] { sh->RunWorker(); });
}

void ParallelScanSource::Shared::GrabRecycledBatch(Batch* b) {
  std::lock_guard<std::mutex> lock(mu);
  if (!freelist.empty()) {
    *b = std::move(freelist.back());
    freelist.pop_back();
  }
}

void ParallelScanSource::Shared::RunWorker() {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (abort) return;  // scan already over: don't touch the factory
    ++active_workers;
  }
  std::vector<std::unique_ptr<PipelineOpState>> op_states;
  op_states.reserve(ops.size());
  for (const auto& op : ops) op_states.push_back(op->MakeState());
  while (true) {
    size_t m;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (abort || next_morsel >= morsels.size()) break;
      m = next_morsel++;
    }
    if (!ProcessMorsel(m, &op_states, /*helper=*/false)) break;
  }
  std::lock_guard<std::mutex> lock(mu);
  if (--active_workers == 0) consumer_cv.notify_all();
}

bool ParallelScanSource::Shared::ProcessMorsel(
    size_t m, std::vector<std::unique_ptr<PipelineOpState>>* op_states,
    bool helper) {
  std::unique_ptr<BatchSource> src =
      factory(m, morsels[m], m + 1 == morsels.size());
  Batch local;
  while (true) {
    GrabRecycledBatch(&local);
    StatusOr<bool> more = src->Next(&local, kDefaultBatchSize);
    Status op_status = Status::OK();
    bool produced = false;
    if (more.ok() && *more) {
      // Run the pipeline fragment on this worker, outside the lock.
      for (size_t i = 0; i < ops.size() && op_status.ok(); ++i) {
        op_status = ops[i]->Execute(&local, (*op_states)[i].get());
      }
      produced = op_status.ok() && local.num_rows() > 0;
    }
    std::unique_lock<std::mutex> lock(mu);
    if (abort) return false;
    if (!more.ok() || !op_status.ok()) {
      if (error.ok()) error = more.ok() ? op_status : more.status();
      abort = true;
      producer_cv.notify_all();
      consumer_cv.notify_all();
      return false;
    }
    if (!*more) {
      ++morsels_done;
      consumer_cv.notify_all();
      return true;
    }
    if (!produced) continue;  // fragment filtered the whole batch out
    if (!helper) {
      // Backpressure. The helper is the consumer itself, about to
      // drain — it may exceed the cap rather than deadlock on it.
      producer_cv.wait(lock, [this] {
        return abort || ready.size() < queue_cap;
      });
      if (abort) return false;
    }
    ready.push_back(std::move(local));
    consumer_cv.notify_one();
    local = Batch();
  }
}

bool ParallelScanSource::EmitPendingSlice(Batch* out, size_t max_rows) {
  const size_t take =
      std::min(max_rows, pending_.num_rows() - pending_off_);
  out->ResetLike(pending_);
  out->set_start_rid(pending_.start_rid() + pending_off_);
  for (size_t i = 0; i < pending_.num_columns(); ++i) {
    out->column(i).AppendRange(pending_.column(i), pending_off_,
                               pending_off_ + take);
  }
  pending_off_ += take;
  if (pending_off_ >= pending_.num_rows()) {
    spent_.push_back(std::move(pending_));
    pending_ = Batch();
    pending_off_ = 0;
  }
  return true;
}

StatusOr<bool> ParallelScanSource::Refill() {
  Shared& s = *sh_;
  std::unique_lock<std::mutex> lock(s.mu);
  // Return consumed batch storage to the workers in bulk.
  for (Batch& b : spent_) {
    if (s.freelist.size() >= 2 * s.num_workers + 2) break;
    s.freelist.push_back(std::move(b));
  }
  spent_.clear();
  while (true) {
    if (!s.error.ok()) return s.error;
    if (!s.ready.empty()) {
      drained_.swap(s.ready);
      s.producer_cv.notify_all();  // queue has room
      return true;
    }
    if (s.morsels_done >= s.morsels.size()) return false;
    // Nothing ready: claim the next unclaimed morsel and process it on
    // this thread, so the scan progresses even when the shared pool is
    // busy elsewhere.
    if (s.next_morsel < s.morsels.size()) {
      const size_t claim = s.next_morsel++;
      if (help_states_.empty() && !s.ops.empty()) {
        help_states_.reserve(s.ops.size());
        for (const auto& op : s.ops) help_states_.push_back(op->MakeState());
      }
      lock.unlock();
      s.ProcessMorsel(claim, &help_states_, /*helper=*/true);
      lock.lock();
      continue;  // re-evaluate (the morsel's output, an error, ...)
    }
    s.consumer_cv.wait(lock);
  }
}

StatusOr<bool> ParallelScanSource::Next(Batch* out, size_t max_rows) {
  if (!started_) Start();
  if (max_rows == 0) max_rows = kDefaultBatchSize;
  if (pending_off_ < pending_.num_rows()) {
    return EmitPendingSlice(out, max_rows);
  }
  if (drained_.empty()) {
    PDT_ASSIGN_OR_RETURN(bool more, Refill());
    if (!more) return false;
  }
  Batch got = std::move(drained_.front());
  drained_.pop_front();
  if (got.num_rows() <= max_rows) {
    spent_.push_back(std::move(*out));  // recycle the consumer's storage
    *out = std::move(got);
    return true;
  }
  // Worker batch exceeds the consumer's budget: serve it in slices.
  pending_ = std::move(got);
  pending_off_ = 0;
  return EmitPendingSlice(out, max_rows);
}

std::unique_ptr<BatchSource> MakeScanSource(MorselPlan plan) {
  if (plan.serial != nullptr) return std::move(plan.serial);
  return std::make_unique<ParallelScanSource>(
      std::move(plan.morsels), std::move(plan.factory), plan.options);
}

}  // namespace pdtstore
