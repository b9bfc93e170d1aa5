#include "txn/multi_txn.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "txn/layered.h"

namespace pdtstore {

namespace internal {

// A sealed transaction waiting in the manager's commit FIFO. The owner
// thread fills every field before Publish() appends it under the
// manager lock; afterwards all fields are touched only under that lock
// (the committer that decides the FIFO, or the owner's abort).
struct MultiDeltaRecord {
  enum State { kPublished, kCommitted, kAborted };

  uint64_t txn_id = 0;
  uint64_t start_time = 0;
  // The sealed Trans-PDTs, keyed by table name. The verdict covers all
  // of them together: a conflict on any table aborts every table.
  std::map<std::string, std::unique_ptr<Pdt>> trans;

  // The WAL frames (begin, ops, commit), encoded by Publish() outside
  // every lock; the commit appends the finished bytes under it.
  std::vector<std::string> payloads;

  State state = kPublished;
  Status result = Status::OK();
  uint64_t durable_upto = 0;  ///< WAL offset the owner must sync to
};

}  // namespace internal

using internal::MultiDeltaRecord;

namespace {

// A source whose first Next() fails with a fixed status. Scan() returns
// it instead of null — callers do not check — for a published (sealed)
// transaction, whose Trans-PDTs have moved into the delta record where a
// concurrent commit may be serializing them, and for an unmanaged table.
class ErrorSource : public BatchSource {
 public:
  explicit ErrorSource(Status status) : status_(std::move(status)) {}
  StatusOr<bool> Next(Batch*, size_t) override { return status_; }

 private:
  Status status_;
};

// The one Write→Read fold (Algorithm 7): Read ▷ write as a new PDT. It
// builds on a clone of `read` (which Clone() compacts) instead of
// mutating it — an installed Read-PDT may be pinned by driverless scans
// and snapshots.
StatusOr<std::unique_ptr<Pdt>> FoldLayers(const Pdt& read,
                                          const Pdt& write) {
  std::unique_ptr<Pdt> merged = read.Clone();
  if (!write.Empty()) PDT_RETURN_NOT_OK(merged->Propagate(write));
  return merged;
}

}  // namespace

// ---------------------------------------------------------------------
// MultiTransaction.
// ---------------------------------------------------------------------

MultiTransaction::MultiTransaction(MultiTxnManager* mgr, uint64_t id,
                                   uint64_t start_time)
    : mgr_(mgr), id_(id), start_time_(start_time) {}

MultiTransaction::~MultiTransaction() {
  if (!finished_) Abort();
}

MultiTransaction::TableView MultiTxnManager::MakeViewLocked(
    TableState* st) {
  // Caller holds mu_. Share the Write-PDT copy when no commit happened
  // since it was taken ("copying is not always required", Sec. 3.3).
  if (!st->write_snapshot || st->write_snapshot_time != clock_) {
    st->write_snapshot =
        std::shared_ptr<const Pdt>(st->write->Clone().release());
    st->write_snapshot_time = clock_;
  }
  MultiTransaction::TableView view;
  view.table = st->table;
  // Pin the Read-PDT: a fold installs a replacement via ReplacePdt while
  // this snapshot lives, and the shared_ptr keeps the pre-fold layer —
  // which this snapshot's RIDs are defined over — alive.
  view.read = st->table->SharedPdt();
  view.write = st->write_snapshot;
  view.trans = std::make_unique<Pdt>(st->table->shared_schema());
  return view;
}

StatusOr<MultiTransaction::TableView*> MultiTransaction::View(
    const std::string& table) const {
  // All views were materialized together at Begin() — the snapshot is
  // one instant across every managed table.
  auto it = views_.find(table);
  if (it != views_.end()) return &it->second;
  return Status::NotFound("table not managed: " + table);
}

StatusOr<MultiTransaction::TableView*> MultiTransaction::OpenView(
    const std::string& table) const {
  if (finished_ || rec_ != nullptr) {
    return Status::InvalidArgument("transaction finished or published");
  }
  return View(table);
}

std::vector<const Pdt*> MultiTransaction::Layers(const TableView& v) {
  std::vector<const Pdt*> layers;
  layers.reserve(4);
  layers.push_back(v.read.get());
  layers.push_back(v.write.get());
  layers.push_back(v.trans.get());
  return layers;
}

std::vector<const Pdt*> MultiTransaction::UpdateLayers(const TableView& v) {
  std::vector<const Pdt*> layers = Layers(v);
  if (v.query != nullptr) layers.push_back(v.query.get());
  return layers;
}

// The positional work of every update lives in txn/layered.h; these
// wrappers only pick the update stack and record the logical redo.

Status MultiTransaction::Insert(const std::string& table,
                                const Tuple& tuple) {
  PDT_ASSIGN_OR_RETURN(TableView * v, OpenView(table));
  PDT_RETURN_NOT_OK(internal::LayeredInsert(
      v->table->store(), UpdateLayers(*v), UpdateTarget(*v), tuple));
  WalRecord r;
  r.type = WalRecordType::kInsert;
  r.table = table;
  r.tuple = tuple;
  redo_.push_back(std::move(r));
  return Status::OK();
}

Status MultiTransaction::DeleteByKey(const std::string& table,
                                     const std::vector<Value>& key) {
  PDT_ASSIGN_OR_RETURN(TableView * v, OpenView(table));
  PDT_RETURN_NOT_OK(internal::LayeredDelete(
      v->table->store(), UpdateLayers(*v), UpdateTarget(*v), key));
  WalRecord r;
  r.type = WalRecordType::kDelete;
  r.table = table;
  r.key = key;
  redo_.push_back(std::move(r));
  return Status::OK();
}

Status MultiTransaction::ModifyByKey(const std::string& table,
                                     const std::vector<Value>& key,
                                     ColumnId col, const Value& value) {
  PDT_ASSIGN_OR_RETURN(TableView * v, OpenView(table));
  PDT_RETURN_NOT_OK(internal::LayeredModify(v->table->store(),
                                            UpdateLayers(*v),
                                            UpdateTarget(*v), key, col,
                                            value));
  // One record even for an SK column: replay re-runs ModifyByKey, which
  // repeats the delete + insert.
  WalRecord r;
  r.type = WalRecordType::kModify;
  r.table = table;
  r.key = key;
  r.column = col;
  r.value = value;
  redo_.push_back(std::move(r));
  return Status::OK();
}

StatusOr<Tuple> MultiTransaction::GetByKey(
    const std::string& table, const std::vector<Value>& key) const {
  PDT_ASSIGN_OR_RETURN(TableView * v, OpenView(table));
  const std::vector<const Pdt*> layers = UpdateLayers(*v);
  PDT_ASSIGN_OR_RETURN(
      Rid rid, internal::LayeredFindRid(v->table->store(), layers, key));
  return internal::LayeredTuple(v->table->store(), layers, rid);
}

std::unique_ptr<BatchSource> MultiTransaction::Scan(
    const std::string& table, std::vector<ColumnId> projection,
    const KeyBounds* bounds, const ScanOptions& scan_opts) const {
  return MakeScanSource(
      PlanMorsels(table, std::move(projection), bounds, scan_opts));
}

MorselPlan MultiTransaction::PlanMorsels(const std::string& table,
                                         std::vector<ColumnId> projection,
                                         const KeyBounds* bounds,
                                         const ScanOptions& scan_opts) const {
  auto view = View(table);
  if (rec_ != nullptr || !view.ok()) {
    MorselPlan plan;
    plan.serial = std::make_unique<ErrorSource>(
        rec_ != nullptr
            ? Status::InvalidArgument(
                  "transaction is published: no reads until the commit "
                  "verdict")
            : view.status());
    return plan;
  }
  const TableView& v = **view;
  const SidRange range = v.table->ScanRange(bounds, projection);
  return internal::LayeredMorselPlan(v.table->store(), Layers(v),
                                     std::move(projection), range, scan_opts);
}

StatusOr<uint64_t> MultiTransaction::RowCount(
    const std::string& table) const {
  if (rec_ != nullptr) {
    // Sealed by Publish(): report the count as of sealing (the
    // Trans-PDTs are off-limits — a commit may be serializing them).
    auto it = sealed_counts_.find(table);
    if (it == sealed_counts_.end()) {
      return Status::NotFound("table not managed: " + table);
    }
    return it->second;
  }
  PDT_ASSIGN_OR_RETURN(TableView * v, View(table));
  return internal::LayeredRowCount(v->table->store().num_rows(), Layers(*v));
}

Status MultiTransaction::BeginQueryPdt(const std::string& table) {
  PDT_ASSIGN_OR_RETURN(TableView * v, OpenView(table));
  if (v->query != nullptr) {
    return Status::InvalidArgument("Query-PDT already active");
  }
  v->query = std::make_unique<Pdt>(v->table->shared_schema());
  return Status::OK();
}

Status MultiTransaction::EndQueryPdt(const std::string& table) {
  PDT_ASSIGN_OR_RETURN(TableView * v, View(table));
  if (v->query == nullptr) {
    return Status::InvalidArgument("no Query-PDT active");
  }
  // "When such a query finishes, its Query-PDT is propagated to its
  // Trans-PDT and removed." (footnote 5)
  PDT_RETURN_NOT_OK(v->trans->Propagate(*v->query));
  v->query.reset();
  return Status::OK();
}

bool MultiTransaction::query_pdt_active(const std::string& table) const {
  auto v = View(table);
  return v.ok() && (*v)->query != nullptr;
}

Status MultiTransaction::Publish() {
  if (finished_) return Status::InvalidArgument("transaction finished");
  if (rec_ != nullptr) return Status::InvalidArgument("already published");
  for (const auto& [name, v] : views_) {
    if (v.query != nullptr) {
      return Status::InvalidArgument(
          "finish the active Query-PDT before committing");
    }
  }
  rec_ = std::make_unique<MultiDeltaRecord>();
  rec_->txn_id = id_;
  rec_->start_time = start_time_;
  // Seal: record per-table row counts, then move every table's
  // Trans-PDT into the record (a commit may serialize them concurrently).
  for (auto& [name, v] : views_) {
    sealed_counts_[name] = internal::LayeredRowCount(
        v.table->store().num_rows(), Layers(v));
    rec_->trans.emplace(name, std::move(v.trans));
  }
  if (mgr_->wal_ != nullptr) {
    // Encode the commit's WAL frames here, outside every lock; the
    // commit appends the finished bytes under the lock.
    rec_->payloads.reserve(redo_.size() + 2);
    WalRecord b;
    b.type = WalRecordType::kBegin;
    b.txn_id = id_;
    rec_->payloads.push_back(Wal::EncodeRecordPayload(b));
    for (WalRecord& r : redo_) {
      r.txn_id = id_;
      rec_->payloads.push_back(Wal::EncodeRecordPayload(r));
    }
    WalRecord c;
    c.type = WalRecordType::kCommit;
    c.txn_id = id_;
    rec_->payloads.push_back(Wal::EncodeRecordPayload(c));
  }
  redo_.clear();
  std::lock_guard<std::mutex> lock(mgr_->mu_);
  mgr_->sealed_.push_back(rec_.get());
  return Status::OK();
}

Status MultiTransaction::AwaitCommit() {
  if (finished_) return Status::InvalidArgument("transaction finished");
  if (rec_ == nullptr) {
    return Status::InvalidArgument("transaction not published");
  }
  uint64_t durable_upto = 0;
  Status st = mgr_->AwaitVerdict(rec_.get(), &durable_upto);
  finished_ = true;
  if (!st.ok()) return st;
  // Group commit: wait for the WAL to reach disk outside the commit
  // lock, so concurrent committers pile into one fsync.
  if (durable_upto > 0) return mgr_->wal_->SyncTo(durable_upto);
  return Status::OK();
}

Status MultiTransaction::Commit() {
  PDT_RETURN_NOT_OK(Publish());
  return AwaitCommit();
}

void MultiTransaction::Abort() {
  if (finished_) return;
  if (rec_ != nullptr) {
    mgr_->AbortPublished(this);
    return;
  }
  std::lock_guard<std::mutex> lock(mgr_->mu_);
  mgr_->FinishActiveLocked(start_time_);
  finished_ = true;
  mgr_->aborted_count_.fetch_add(1, std::memory_order_relaxed);
  if (mgr_->wal_ != nullptr) mgr_->wal_->LogAbort(id_);
}

// ---------------------------------------------------------------------
// MultiTxnManager.
// ---------------------------------------------------------------------

MultiTxnManager::MultiTxnManager(std::vector<Table*> tables, Wal* wal,
                                 TxnManagerOptions opts)
    : opts_(opts), wal_(wal) {
  for (Table* t : tables) {
    assert(t->pdt() != nullptr &&
           "transaction management requires the PDT backend");
    // A table is driven by exactly one manager: this one claims the
    // driver slot, so every layer install (folds, checkpoints) happens
    // under this manager's mu_.
    bool claimed = t->AcquireTxnDriver();
    assert(claimed &&
           "table is already driven by another transaction manager");
    if (claimed) claimed_.push_back(t);
    TableState st;
    st.table = t;
    st.write = std::make_unique<Pdt>(t->shared_schema());
    state_.emplace(t->name(), std::move(st));
  }
}

MultiTxnManager::~MultiTxnManager() {
  for (Table* t : claimed_) t->ReleaseTxnDriver();
}

std::unique_ptr<MultiTransaction> MultiTxnManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  ++active_;
  uint64_t id = opts_.txn_id_counter != nullptr
                    ? opts_.txn_id_counter->fetch_add(1) + 1
                    : next_txn_id_++;
  auto txn = std::unique_ptr<MultiTransaction>(
      new MultiTransaction(this, id, clock_));
  // Snapshot every managed table NOW, at the same clock the conflict
  // check will serialize against. Lazy per-table snapshots would let
  // one transaction observe the tables at different commit horizons —
  // a reader could see a child-table row whose parent-table row isn't
  // visible yet — and would double-translate commits that landed
  // between Begin and the first touch.
  for (auto& [name, st] : state_) {
    txn->views_.emplace(name, MakeViewLocked(&st));
  }
  return txn;
}

size_t MultiTxnManager::active_transactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void MultiTxnManager::SetWalWriter(WalWriter* writer) {
  std::lock_guard<std::mutex> lock(mu_);
  // The durability watermark itself lives in the (possibly shared) Wal
  // and is established by whoever loaded or truncated it (RecoverFrom,
  // Truncate, MarkAllFlushed) — resetting it here could falsely mark
  // another manager's in-flight commit durable. The writer pointer also
  // lives in the Wal (shared by every manager on this log, and kept
  // stable under in-flight flushes); writer_ here only records that
  // this manager commits durably.
  writer_ = writer;
  if (wal_ != nullptr) wal_->SetWriter(writer);
}

Status MultiTxnManager::wal_status() const {
  return wal_ != nullptr ? wal_->health() : Status::OK();
}

void MultiTxnManager::FinishActiveLocked(uint64_t start_time) {
  // Drop references on every overlapping committed transaction.
  for (auto& z : tz_) {
    if (start_time < z.commit_time) --z.refcnt;
  }
  tz_.erase(std::remove_if(
                tz_.begin(), tz_.end(),
                [](const CommittedTxn& z) { return z.refcnt <= 0; }),
            tz_.end());
  --active_;
}

Status MultiTxnManager::AwaitVerdict(MultiDeltaRecord* rec,
                                     uint64_t* durable_upto) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rec->state == MultiDeltaRecord::kPublished) {
    // Undecided under the lock means the record is still in the FIFO:
    // decide every sealed record ahead of it, and any behind it, in
    // publication order. Committers that queued on mu_ behind this one
    // find their verdict already in the record.
    const auto t0 = std::chrono::steady_clock::now();
    ++fold_batches_;
    for (MultiDeltaRecord* r : sealed_) {
      CommitRecordLocked(r);
      ++folded_records_;
    }
    sealed_.clear();
    commit_lock_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  *durable_upto = rec->durable_upto;
  return rec->result;
}

void MultiTxnManager::CommitRecordLocked(MultiDeltaRecord* rec) {
  rec->durable_upto = 0;
  auto abort = [&](Status why, bool counted) {
    FinishActiveLocked(rec->start_time);
    if (counted) aborted_count_.fetch_add(1, std::memory_order_relaxed);
    rec->result = std::move(why);
    rec->state = MultiDeltaRecord::kAborted;
  };
  if (writer_ != nullptr) {
    // A manager whose WAL sink failed can no longer promise durability:
    // refuse the commit up front.
    Status health = wal_->health();
    if (!health.ok()) return abort(health, true);
  }
  // Serialize against every overlapping committed transaction, in
  // commit order (Alg. 9 lines 2-9), per overlapping table. A conflict
  // on any table aborts the whole record — the all-or-nothing verdict.
  Status conflict = Status::OK();
  for (auto& z : tz_) {
    if (rec->start_time >= z.commit_time) continue;  // not overlapping
    for (auto& [name, trans] : rec->trans) {
      auto zit = z.pdts.find(name);
      if (zit == z.pdts.end()) continue;
      conflict = trans->SerializeAgainst(*zit->second);
      if (!conflict.ok()) break;
    }
    if (!conflict.ok()) break;
  }
  if (!conflict.ok()) {
    // Internal failure, not a write-write conflict: surface as-is.
    if (conflict.code() != StatusCode::kConflict) {
      return abort(conflict, false);
    }
    if (wal_ != nullptr) wal_->LogAbort(rec->txn_id);
    return abort(conflict, true);
  }
  // Durability first: the WAL append is the commit point (footnote 2).
  // One begin / ops / commit frame sequence covers every table of the
  // record, so replay reapplies it atomically too.
  if (wal_ != nullptr) {
    const uint64_t end = wal_->AppendEncoded(rec->payloads);
    rec->payloads.clear();
    // The owner waits for durability up to this offset outside the
    // commit lock (group commit).
    if (writer_ != nullptr) rec->durable_upto = end;
  }
  // Atomic visibility: fold every touched table's Trans-PDT into that
  // table's master Write-PDT under this one lock (Alg. 9 line 12).
  for (auto& [name, trans] : rec->trans) {
    if (trans->Empty()) continue;
    Status st = state_.at(name).write->Propagate(*trans);
    // Invariant failure; state may be inconsistent.
    if (!st.ok()) return abort(st, false);
  }
  ++clock_;
  committed_count_.fetch_add(1, std::memory_order_relaxed);
  // Release this transaction's own references first, so its freshly
  // committed Trans-PDTs are not self-decremented below.
  FinishActiveLocked(rec->start_time);
  // Keep the serialized Trans-PDTs alive for the transactions that are
  // still running (they overlap this commit) — including the later
  // records of this FIFO drain, which are still counted active.
  if (active_ > 0) {
    CommittedTxn entry;
    entry.commit_time = clock_;
    entry.refcnt = static_cast<int>(active_);
    for (auto& [name, trans] : rec->trans) {
      if (trans->Empty()) continue;
      entry.pdts.emplace(name, std::shared_ptr<Pdt>(trans.release()));
    }
    if (!entry.pdts.empty()) tz_.push_back(std::move(entry));
  }
  rec->trans.clear();
  // Write->Read propagation: fold any over-cap Write-PDT inline. A
  // failure is this commit's result; the Write-PDT stays unfolded and
  // the next commit retries.
  rec->result = MaybePropagateLocked();
  rec->state = MultiDeltaRecord::kCommitted;
}

void MultiTxnManager::AbortPublished(MultiTransaction* txn) {
  MultiDeltaRecord* rec = txn->rec_.get();
  std::lock_guard<std::mutex> lock(mu_);
  if (rec->state == MultiDeltaRecord::kPublished) {
    // Still undecided, so still in the FIFO: withdraw it and abort.
    auto it = std::find(sealed_.begin(), sealed_.end(), rec);
    assert(it != sealed_.end() && "undecided record missing from the FIFO");
    sealed_.erase(it);
    FinishActiveLocked(rec->start_time);
    aborted_count_.fetch_add(1, std::memory_order_relaxed);
    if (wal_ != nullptr) wal_->LogAbort(rec->txn_id);
    rec->result = Status::InvalidArgument("transaction aborted");
    rec->state = MultiDeltaRecord::kAborted;
  }
  // Otherwise a commit already decided it; the verdict stands (a commit
  // is a commit — Abort after the fact is a no-op).
  txn->finished_ = true;
}

Status MultiTxnManager::FoldIntoReadLocked(TableState* st) {
  PDT_ASSIGN_OR_RETURN(std::unique_ptr<Pdt> merged,
                       FoldLayers(*st->table->SharedPdt(), *st->write));
  // Snapshots (and driverless scans) taken before this instant keep the
  // pre-fold Read-PDT alive through their shared_ptrs; new ones see
  // [merged, empty write] — the same image.
  st->table->ReplacePdt(std::move(merged));
  st->write->Clear();
  st->write_snapshot.reset();
  st->write_snapshot_time = 0;
  ++st->folds;
  return Status::OK();
}

Status MultiTxnManager::MaybePropagateLocked() {
  for (auto& [name, st] : state_) {
    if (st.write->EntryCount() > opts_.write_pdt_max_entries) {
      PDT_RETURN_NOT_OK(FoldIntoReadLocked(&st));
    }
  }
  return Status::OK();
}

MultiTxnStats MultiTxnManager::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MultiTxnStats s;
  s.committed = committed_count_.load(std::memory_order_relaxed);
  s.aborted = aborted_count_.load(std::memory_order_relaxed);
  s.active = active_;
  s.pending_deltas = sealed_.size();
  s.fold_batches = fold_batches_;
  s.folded_records = folded_records_;
  s.commit_lock_ns = commit_lock_ns_;
  if (wal_ != nullptr) s.wal_records = wal_->RecordCount();
  if (writer_ != nullptr) s.wal_syncs = writer_->sync_count();
  for (const auto& [name, st] : state_) {
    MultiTxnTableStats t;
    t.table = name;
    t.read_pdt_entries = st.table->pdt()->EntryCount();
    t.write_pdt_entries = st.write->EntryCount();
    t.background_merges = st.folds;
    s.tables.push_back(std::move(t));
  }
  return s;
}

Status MultiTxnManager::PropagateAndMaybeCheckpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ > 0) {
    // Published-but-undecided commits still count as active, so a
    // non-empty commit FIFO also lands here.
    return Status::InvalidArgument(
        "cannot propagate/checkpoint with active transactions");
  }
  for (auto& [name, st] : state_) {
    if (!st.write->Empty()) {
      PDT_RETURN_NOT_OK(FoldIntoReadLocked(&st));
    }
    // With a durable WAL attached, in-place checkpointing here would
    // rewrite the stable image without the manifest commit protocol —
    // replaying the (still durable) log over the new image would apply
    // every absorbed update twice. Durable checkpointing is
    // Database::Save's job; this fast path is for in-memory managers.
    // The log is NOT truncated: other tables' redo may share it.
    if (writer_ == nullptr &&
        st.table->pdt()->EntryCount() > opts_.read_pdt_max_entries) {
      PDT_RETURN_NOT_OK(st.table->Checkpoint());
      if (wal_ != nullptr) wal_->LogCheckpoint(name);
    }
  }
  return Status::OK();
}

Status MultiTxnManager::Recover(const Wal& wal) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (&wal == wal_) {
      // Replaying a WAL through a manager that appends to that same WAL
      // would grow the log under the replay cursor.
      return Status::InvalidArgument(
          "cannot recover from the manager's own WAL");
    }
    // Recovery only makes sense into a pristine manager: a second run,
    // or a run after transaction activity, would apply updates twice.
    if (recovered_) {
      return Status::InvalidArgument("Recover already ran on this manager");
    }
    bool pristine = committed_count_.load() + aborted_count_.load() == 0 &&
                    active_ == 0;
    for (const auto& [name, st] : state_) {
      pristine = pristine && st.write->Empty() && st.table->pdt()->Empty();
    }
    if (!pristine) {
      return Status::InvalidArgument(
          "Recover requires a pristine transaction manager");
    }
    recovered_ = true;
  }
  // Group records per transaction; apply committed ones in commit order.
  std::map<uint64_t, std::vector<WalRecord>> pending;
  return wal.Replay([&](const WalRecord& r) -> Status {
    switch (r.type) {
      case WalRecordType::kBegin:
        pending[r.txn_id] = {};
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
      case WalRecordType::kModify:
        // Several managers can share one log; each replays only the
        // records addressed to its tables.
        if (state_.count(r.table) > 0) pending[r.txn_id].push_back(r);
        break;
      case WalRecordType::kAbort:
        pending.erase(r.txn_id);
        break;
      case WalRecordType::kCommit: {
        auto it = pending.find(r.txn_id);
        if (it == pending.end()) break;
        if (it->second.empty()) {
          // The transaction touched no managed table.
          pending.erase(it);
          break;
        }
        auto txn = Begin();
        for (const WalRecord& op : it->second) {
          Status st;
          switch (op.type) {
            case WalRecordType::kInsert:
              st = txn->Insert(op.table, op.tuple);
              break;
            case WalRecordType::kDelete:
              st = txn->DeleteByKey(op.table, op.key);
              break;
            case WalRecordType::kModify:
              st = txn->ModifyByKey(op.table, op.key, op.column, op.value);
              break;
            default:
              break;
          }
          if (!st.ok()) return st;
        }
        PDT_RETURN_NOT_OK(txn->Commit());
        pending.erase(it);
        break;
      }
      case WalRecordType::kCheckpoint:
        break;
    }
    return Status::OK();
  });
}

}  // namespace pdtstore
