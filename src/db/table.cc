#include "db/table.h"

#include <algorithm>

#include "txn/layered.h"
#include "util/string_util.h"

namespace pdtstore {

Table::Table(std::string name, std::shared_ptr<const Schema> schema,
             TableOptions options, std::shared_ptr<BufferPool> pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      pool_(pool ? std::move(pool) : std::make_shared<BufferPool>()) {
  store_ = std::make_unique<ColumnStore>(*schema_, options_.store, pool_);
  if (options_.backend == DeltaBackend::kPdt) {
    pdt_ = std::make_shared<Pdt>(schema_, options_.pdt);
  } else {
    vdt_ = std::make_unique<Vdt>(schema_);
  }
}

Status Table::Load(const std::vector<Tuple>& rows) {
  if (loaded_) return Status::InvalidArgument("table already loaded");
  PDT_RETURN_NOT_OK(store_->BulkLoad(rows));
  PDT_ASSIGN_OR_RETURN(sparse_index_, SparseIndex::Build(*store_));
  loaded_ = true;
  return Status::OK();
}

Status Table::LoadColumns(std::vector<ColumnVector> columns) {
  if (loaded_) return Status::InvalidArgument("table already loaded");
  PDT_RETURN_NOT_OK(store_->BulkLoadColumns(std::move(columns)));
  PDT_ASSIGN_OR_RETURN(sparse_index_, SparseIndex::Build(*store_));
  loaded_ = true;
  return Status::OK();
}

uint64_t Table::RowCount() const {
  auto pdt = PinPdt();
  int64_t delta = pdt ? pdt->TotalDelta() : vdt_->TotalDelta();
  return static_cast<uint64_t>(static_cast<int64_t>(store_->num_rows()) +
                               delta);
}

// ---------------------------------------------------------------------
// Merged-image access and updates. The PDT branch pins the Read-PDT
// once per operation and runs the shared positional helpers
// (txn/layered.h) over that one-layer stack; the VDT branch probes the
// stable image as the empty stack {}.
// ---------------------------------------------------------------------

namespace {
Status ReadOnlyError(const std::string& name) {
  return Status::InvalidArgument("table " + name +
                                 " is read-only (recovery degraded)");
}
}  // namespace

StatusOr<Tuple> Table::GetMergedTuple(Rid rid) const {
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional access needs PDT");
  const Pdt* stack[] = {pdt.get()};
  if (rid >= internal::LayeredRowCount(store_->num_rows(), stack)) {
    return Status::OutOfRange("rid out of range");
  }
  return internal::LayeredTuple(*store_, stack, rid);
}

StatusOr<Rid> Table::FindRidByKey(const std::vector<Value>& key) const {
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional access needs PDT");
  const Pdt* stack[] = {pdt.get()};
  return internal::LayeredFindRid(*store_, stack, key);
}

StatusOr<bool> Table::ContainsKey(const std::vector<Value>& key) const {
  if (auto pdt = PinPdt()) {
    const Pdt* stack[] = {pdt.get()};
    return internal::LayeredHasKey(*store_, stack, key);
  }
  if (vdt_->FindInsert(key) != nullptr) return true;
  if (vdt_->IsDeleted(key)) return false;
  return internal::LayeredHasKey(*store_, {}, key);
}

Status Table::Insert(const Tuple& tuple) {
  if (read_only_) return ReadOnlyError(name_);
  if (auto pdt = PinPdt()) {
    const Pdt* stack[] = {pdt.get()};
    return internal::LayeredInsert(*store_, stack, pdt.get(), tuple);
  }
  PDT_RETURN_NOT_OK(schema_->ValidateTuple(tuple));
  PDT_ASSIGN_OR_RETURN(bool exists,
                       ContainsKey(schema_->ExtractSortKey(tuple)));
  if (exists) return Status::AlreadyExists("duplicate sort key");
  return vdt_->AddInsert(tuple);
}

Status Table::DeleteAt(Rid rid) {
  if (read_only_) return ReadOnlyError(name_);
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional delete needs PDT");
  const Pdt* stack[] = {pdt.get()};
  if (rid >= internal::LayeredRowCount(store_->num_rows(), stack)) {
    return Status::OutOfRange("rid out of range");
  }
  PDT_ASSIGN_OR_RETURN(auto key,
                       internal::LayeredSortKey(*store_, stack, rid));
  return pdt->AddDelete(rid, key);
}

Status Table::ModifyAt(Rid rid, ColumnId col, const Value& v) {
  if (read_only_) return ReadOnlyError(name_);
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional modify needs PDT");
  const Pdt* stack[] = {pdt.get()};
  if (rid >= internal::LayeredRowCount(store_->num_rows(), stack)) {
    return Status::OutOfRange("rid out of range");
  }
  return internal::LayeredModifyAt(*store_, stack, pdt.get(), rid, col, v);
}

Status Table::DeleteByKey(const std::vector<Value>& key) {
  if (read_only_) return ReadOnlyError(name_);
  if (auto pdt = PinPdt()) {
    const Pdt* stack[] = {pdt.get()};
    return internal::LayeredDelete(*store_, stack, pdt.get(), key);
  }
  PDT_ASSIGN_OR_RETURN(bool stable, internal::LayeredHasKey(*store_, {}, key));
  if (vdt_->FindInsert(key) == nullptr && (!stable || vdt_->IsDeleted(key))) {
    return Status::NotFound("key not found");
  }
  return vdt_->AddDelete(key, stable);
}

Status Table::ModifyByKey(const std::vector<Value>& key, ColumnId col,
                          const Value& v) {
  if (read_only_) return ReadOnlyError(name_);
  if (auto pdt = PinPdt()) {
    const Pdt* stack[] = {pdt.get()};
    return internal::LayeredModify(*store_, stack, pdt.get(), key, col, v);
  }
  if (col >= schema_->num_columns()) {
    return Status::InvalidArgument("modify: column out of range");
  }
  // VDT: the current tuple is the insert-table copy, else the stable row
  // (unless deleted).
  PDT_ASSIGN_OR_RETURN(Rid ub, internal::LayeredUpperBound(*store_, {}, key));
  PDT_ASSIGN_OR_RETURN(bool stable,
                       internal::LayeredKeyBelow(*store_, {}, ub, key));
  Tuple t;
  if (const Tuple* ins = vdt_->FindInsert(key)) {
    t = *ins;
  } else if (stable && !vdt_->IsDeleted(key)) {
    PDT_ASSIGN_OR_RETURN(t, store_->GetTuple(ub - 1));
  } else {
    return Status::NotFound("key not found");
  }
  t[col] = v;
  PDT_RETURN_NOT_OK(schema_->ValidateTuple(t));
  if (!schema_->IsSortKeyColumn(col)) return vdt_->AddModify(t, stable);
  // SK modify = delete + insert, checked first like LayeredModifyAt: a
  // key held by another row fails before anything changes.
  std::vector<Value> new_key = schema_->ExtractSortKey(t);
  if (CompareTuples(new_key, key) != 0) {
    PDT_ASSIGN_OR_RETURN(bool taken, ContainsKey(new_key));
    if (taken) return Status::AlreadyExists("duplicate sort key");
  }
  PDT_RETURN_NOT_OK(vdt_->AddDelete(key, stable));
  return vdt_->AddInsert(t);
}

// ---------------------------------------------------------------------
// Scan.
// ---------------------------------------------------------------------

std::unique_ptr<BatchSource> Table::Scan(std::vector<ColumnId> projection,
                                         const KeyBounds* bounds,
                                         const ScanOptions& scan_opts) const {
  return MakeScanSource(PlanMorsels(std::move(projection), bounds,
                                    scan_opts));
}

SidRange Table::ScanRange(const KeyBounds* bounds,
                          const std::vector<ColumnId>& projection) const {
  if (bounds == nullptr) return store_->FullRange();
  const SidRange range = sparse_index_.LookupRange(bounds->lo, bounds->hi);
  uint64_t chunks = 0;
  uint64_t bytes = 0;
  for (size_t ci = 0; ci < store_->num_chunks(); ++ci) {
    const auto [begin, end] = store_->ChunkSidRange(ci);
    if (begin >= range.begin && end <= range.end) continue;
    chunks += projection.size();
    for (ColumnId col : projection) {
      bytes += store_->chunk_meta(col, ci).DiskBytes();
    }
  }
  if (chunks > 0) store_->buffer_pool()->NoteSkipped(chunks, bytes);
  return range;
}

MorselPlan Table::PlanMorsels(std::vector<ColumnId> projection,
                              const KeyBounds* bounds,
                              const ScanOptions& scan_opts) const {
  const SidRange range = ScanRange(bounds, projection);
  // Pin the Read-PDT for the whole plan: the plan's sources carry the
  // pin (LayeredMorselPlan's `pins`), so a background merge installing
  // a replacement mid-scan cannot free the layer under the cursors.
  std::shared_ptr<const Pdt> pdt = SharedPdt();
  if (pdt) {
    // Serial or morsel-parallel over the single-layer stack — the same
    // shared planning step the transaction scan paths use.
    return internal::LayeredMorselPlan(*store_, {pdt.get()},
                                       std::move(projection), range,
                                       scan_opts, {pdt});
  }
  MorselPlan plan;
  plan.options = scan_opts;
  if (!ResolveMorselPlan(range, store_->options().chunk_rows,
                         vdt_->InsertCount() + vdt_->DeleteCount(),
                         &plan)) {
    plan.serial = std::make_unique<VdtMergeScan>(
        store_.get(), vdt_.get(), std::move(projection), range,
        bounds ? *bounds : KeyBounds{});
    return plan;
  }

  // VDT: the delta has no positions, so morsel ownership of differential
  // entries is by key — each morsel's fences are the stable SKs at its
  // begin and at the next morsel's begin (see VdtMergeScan).
  std::vector<std::vector<Value>> begin_keys(plan.morsels.size());
  for (size_t i = 1; i < plan.morsels.size(); ++i) {
    auto key = store_->GetSortKey(plan.morsels[i].begin);
    if (!key.ok()) {
      // Cannot fence: fall back to the serial scan.
      plan.morsels.clear();
      plan.serial = std::make_unique<VdtMergeScan>(
          store_.get(), vdt_.get(), std::move(projection), range,
          bounds ? *bounds : KeyBounds{});
      return plan;
    }
    begin_keys[i] = std::move(*key);
  }
  const ColumnStore* store = store_.get();
  const Vdt* vdt = vdt_.get();
  KeyBounds user_bounds = bounds ? *bounds : KeyBounds{};
  plan.factory =
      [store, vdt, projection = std::move(projection), user_bounds,
       begin_keys = std::move(begin_keys)](
          size_t idx, const SidRange& morsel, bool final_morsel) {
        std::vector<Value> fence_lo =
            idx == 0 ? std::vector<Value>{} : begin_keys[idx];
        std::vector<Value> fence_hi =
            final_morsel ? std::vector<Value>{} : begin_keys[idx + 1];
        return std::make_unique<VdtMergeScan>(
            store, vdt, projection, morsel, user_bounds,
            std::move(fence_lo), std::move(fence_hi));
      };
  // VDT batches carry morsel-local RIDs; the ordered exchange renumbers
  // them (pipeline fragments ignore RIDs).
  plan.renumber_rids = true;
  return plan;
}

// ---------------------------------------------------------------------
// Checkpoint.
// ---------------------------------------------------------------------

Status Table::Checkpoint(int num_threads) {
  if (read_only_) return ReadOnlyError(name_);
  // Materialize the merged image column-wise. With num_threads > 1 the
  // merge runs as ordered morsels on the shared worker pool — the
  // ordered exchange reproduces the serial scan's exact row sequence,
  // so the rebuilt image is byte-identical to the serial one.
  std::vector<ColumnId> all_cols(schema_->num_columns());
  for (ColumnId i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  ScanOptions scan_opts;
  scan_opts.num_threads = num_threads;
  scan_opts.ordered = true;
  auto scan = Scan(all_cols, nullptr, scan_opts);
  std::vector<ColumnVector> cols;
  cols.reserve(all_cols.size());
  for (ColumnId c = 0; c < all_cols.size(); ++c) {
    cols.emplace_back(schema_->column(c).type);
  }
  Batch batch;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, scan->Next(&batch, kDefaultBatchSize));
    if (!more) break;
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c].AppendRange(batch.column(c), 0, batch.num_rows());
    }
  }
  // ...swap in a fresh stable image and reset the delta. The old store's
  // chunks fall out of the buffer pool lazily (their keys are unique).
  auto fresh = std::make_unique<ColumnStore>(*schema_, options_.store, pool_);
  PDT_RETURN_NOT_OK(fresh->BulkLoadColumns(std::move(cols)));
  store_ = std::move(fresh);
  PDT_ASSIGN_OR_RETURN(sparse_index_, SparseIndex::Build(*store_));
  if (auto pdt = PinPdt()) pdt->Clear();
  if (vdt_) vdt_->Clear();
  return Status::OK();
}

size_t Table::DeltaMemoryBytes() const {
  auto pdt = PinPdt();
  return pdt ? pdt->MemoryBytes() : vdt_->MemoryBytes();
}

}  // namespace pdtstore
