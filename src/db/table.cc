#include "db/table.h"

#include <algorithm>

#include "txn/layered.h"  // internal::LayeredMorselPlan
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
// Merged-image access (PDT). The public entry points pin the Read-PDT
// once and run every probe against that snapshot (see PinPdt()).
// ---------------------------------------------------------------------

uint64_t Table::RowCountIn(const Pdt& pdt) const {
  return static_cast<uint64_t>(static_cast<int64_t>(store_->num_rows()) +
                               pdt.TotalDelta());
}

StatusOr<Tuple> Table::GetMergedTupleIn(const Pdt& pdt, Rid rid) const {
  if (rid >= RowCountIn(pdt)) return Status::OutOfRange("rid out of range");
  Pdt::RidLookup lookup = pdt.LookupRid(rid);
  if (lookup.is_insert) {
    return pdt.value_space().GetInsertTuple(lookup.insert_offset);
  }
  PDT_ASSIGN_OR_RETURN(Tuple t, store_->GetTuple(lookup.sid));
  for (auto [col, off] : lookup.mods) {
    t[col] = pdt.value_space().GetModifyValue(col, off);
  }
  return t;
}

StatusOr<Tuple> Table::GetMergedTuple(Rid rid) const {
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional access needs PDT");
  return GetMergedTupleIn(*pdt, rid);
}

StatusOr<std::vector<Value>> Table::MergedSortKeyIn(const Pdt& pdt,
                                                    Rid rid) const {
  Pdt::RidLookup lookup = pdt.LookupRid(rid);
  if (lookup.is_insert) {
    return pdt.value_space().GetInsertSortKey(lookup.insert_offset);
  }
  // SK columns are never modified in place (SK modifies are delete +
  // insert), so the stable key is authoritative.
  return store_->GetSortKey(lookup.sid);
}

StatusOr<std::vector<Value>> Table::MergedSortKey(Rid rid) const {
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional access needs PDT");
  return MergedSortKeyIn(*pdt, rid);
}

StatusOr<Rid> Table::UpperBoundRidIn(const Pdt& pdt,
                                     const std::vector<Value>& key) const {
  Rid lo = 0, hi = RowCountIn(pdt);
  while (lo < hi) {
    Rid mid = lo + (hi - lo) / 2;
    PDT_ASSIGN_OR_RETURN(auto mid_key, MergedSortKeyIn(pdt, mid));
    // Compare on the shorter prefix; ties resolve upward (upper bound).
    int cmp = 0;
    for (size_t i = 0; i < mid_key.size() && i < key.size(); ++i) {
      cmp = mid_key[i].Compare(key[i]);
      if (cmp != 0) break;
    }
    if (cmp <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<Rid> Table::UpperBoundRid(const std::vector<Value>& key) const {
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional access needs PDT");
  return UpperBoundRidIn(*pdt, key);
}

StatusOr<Rid> Table::FindRidByKeyIn(const Pdt& pdt,
                                    const std::vector<Value>& key) const {
  PDT_ASSIGN_OR_RETURN(Rid ub, UpperBoundRidIn(pdt, key));
  if (ub == 0) return Status::NotFound("key not found");
  PDT_ASSIGN_OR_RETURN(auto prev_key, MergedSortKeyIn(pdt, ub - 1));
  if (CompareTuples(prev_key, key) != 0) {
    return Status::NotFound("key not found");
  }
  return ub - 1;
}

StatusOr<Rid> Table::FindRidByKey(const std::vector<Value>& key) const {
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional access needs PDT");
  return FindRidByKeyIn(*pdt, key);
}

StatusOr<bool> Table::ContainsKey(const std::vector<Value>& key) const {
  if (auto pdt = PinPdt()) {
    auto rid = FindRidByKeyIn(*pdt, key);
    if (rid.ok()) return true;
    if (rid.status().code() == StatusCode::kNotFound) return false;
    return rid.status();
  }
  if (vdt_->FindInsert(key) != nullptr) return true;
  if (vdt_->IsDeleted(key)) return false;
  return StableHasKey(key);
}

// ---------------------------------------------------------------------
// Stable-image search helpers.
// ---------------------------------------------------------------------

StatusOr<Sid> Table::StableLowerBound(const std::vector<Value>& key) const {
  Sid lo = 0, hi = store_->num_rows();
  while (lo < hi) {
    Sid mid = lo + (hi - lo) / 2;
    PDT_ASSIGN_OR_RETURN(auto mid_key, store_->GetSortKey(mid));
    if (CompareTuples(mid_key, key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<bool> Table::StableHasKey(const std::vector<Value>& key) const {
  PDT_ASSIGN_OR_RETURN(Sid lb, StableLowerBound(key));
  if (lb >= store_->num_rows()) return false;
  PDT_ASSIGN_OR_RETURN(auto lb_key, store_->GetSortKey(lb));
  return CompareTuples(lb_key, key) == 0;
}

StatusOr<Tuple> Table::GetTupleByKey(const std::vector<Value>& key) const {
  if (auto pdt = PinPdt()) {
    PDT_ASSIGN_OR_RETURN(Rid rid, FindRidByKeyIn(*pdt, key));
    return GetMergedTupleIn(*pdt, rid);
  }
  if (const Tuple* t = vdt_->FindInsert(key)) return *t;
  if (vdt_->IsDeleted(key)) return Status::NotFound("key deleted");
  PDT_ASSIGN_OR_RETURN(Sid lb, StableLowerBound(key));
  if (lb >= store_->num_rows()) return Status::NotFound("key not found");
  PDT_ASSIGN_OR_RETURN(auto lb_key, store_->GetSortKey(lb));
  if (CompareTuples(lb_key, key) != 0) {
    return Status::NotFound("key not found");
  }
  return store_->GetTuple(lb);
}

// ---------------------------------------------------------------------
// Updates.
// ---------------------------------------------------------------------

namespace {
Status ReadOnlyError(const std::string& name) {
  return Status::InvalidArgument("table " + name +
                                 " is read-only (recovery degraded)");
}
}  // namespace

Status Table::Insert(const Tuple& tuple) {
  if (read_only_) return ReadOnlyError(name_);
  PDT_RETURN_NOT_OK(schema_->ValidateTuple(tuple));
  std::vector<Value> key = schema_->ExtractSortKey(tuple);
  if (auto pdt = PinPdt()) {
    auto existing = FindRidByKeyIn(*pdt, key);
    if (existing.ok()) {
      return Status::AlreadyExists("duplicate sort key on insert");
    }
    if (existing.status().code() != StatusCode::kNotFound) {
      return existing.status();
    }
    // The paper's positioning query: min RID whose tuple has a larger SK,
    // then Algorithm 6 to respect ghost order.
    PDT_ASSIGN_OR_RETURN(Rid rid, UpperBoundRidIn(*pdt, key));
    Sid sid = pdt->SKRidToSid(key, rid);
    return pdt->AddInsert(sid, rid, tuple);
  }
  PDT_ASSIGN_OR_RETURN(bool exists, ContainsKey(key));
  if (exists) {
    return Status::AlreadyExists("duplicate sort key on insert");
  }
  return vdt_->AddInsert(tuple);
}

Status Table::DeleteAt(Rid rid) {
  if (read_only_) return ReadOnlyError(name_);
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional delete needs PDT");
  if (rid >= RowCountIn(*pdt)) return Status::OutOfRange("rid out of range");
  PDT_ASSIGN_OR_RETURN(auto key, MergedSortKeyIn(*pdt, rid));
  return pdt->AddDelete(rid, key);
}

Status Table::ModifyAt(Rid rid, ColumnId col, const Value& v) {
  if (read_only_) return ReadOnlyError(name_);
  auto pdt = PinPdt();
  if (!pdt) return Status::InvalidArgument("positional modify needs PDT");
  if (rid >= RowCountIn(*pdt)) return Status::OutOfRange("rid out of range");
  if (schema_->IsSortKeyColumn(col)) {
    // SK modify = delete + insert (Sec. 2.1).
    PDT_ASSIGN_OR_RETURN(Tuple t, GetMergedTupleIn(*pdt, rid));
    PDT_RETURN_NOT_OK(DeleteAt(rid));
    t[col] = v;
    return Insert(t);
  }
  return pdt->AddModify(rid, col, v);
}

Status Table::DeleteByKey(const std::vector<Value>& key) {
  if (read_only_) return ReadOnlyError(name_);
  if (auto pdt = PinPdt()) {
    PDT_ASSIGN_OR_RETURN(Rid rid, FindRidByKeyIn(*pdt, key));
    return pdt->AddDelete(rid, key);
  }
  PDT_ASSIGN_OR_RETURN(bool exists, ContainsKey(key));
  if (!exists) return Status::NotFound("key not found");
  PDT_ASSIGN_OR_RETURN(bool stable, StableHasKey(key));
  return vdt_->AddDelete(key, stable);
}

Status Table::ModifyByKey(const std::vector<Value>& key, ColumnId col,
                          const Value& v) {
  if (read_only_) return ReadOnlyError(name_);
  if (auto pdt = PinPdt()) {
    PDT_ASSIGN_OR_RETURN(Rid rid, FindRidByKeyIn(*pdt, key));
    return ModifyAt(rid, col, v);
  }
  PDT_ASSIGN_OR_RETURN(Tuple t, GetTupleByKey(key));
  PDT_ASSIGN_OR_RETURN(bool stable, StableHasKey(key));
  if (schema_->IsSortKeyColumn(col)) {
    PDT_RETURN_NOT_OK(vdt_->AddDelete(key, stable));
    t[col] = v;
    return vdt_->AddInsert(t);
  }
  t[col] = v;
  return vdt_->AddModify(t, stable);
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

MorselPlan Table::PlanMorsels(std::vector<ColumnId> projection,
                              const KeyBounds* bounds,
                              const ScanOptions& scan_opts) const {
  std::vector<SidRange> ranges;
  if (bounds != nullptr) {
    ranges = sparse_index_.LookupRange(bounds->lo, bounds->hi);
  }
  // Pin the Read-PDT for the whole plan: the plan's sources carry the
  // pin (LayeredMorselPlan's `pins`), so a background merge installing
  // a replacement mid-scan cannot free the layer under the cursors.
  std::shared_ptr<const Pdt> pdt = SharedPdt();
  if (!pdt) {
    // VDT: zone pruning needs no entry check — the insert map carries
    // full tuples and its drain is key-fenced, never positional (the
    // PDT path prunes inside LayeredMorselPlan, entry-checked).
    ranges = PruneRangesWithZoneMaps(*store_, {}, std::move(ranges),
                                     scan_opts.zone_filters, projection);
  }
  if (pdt) {
    // Serial or morsel-parallel over the single-layer stack — the same
    // shared planning step the transaction scan paths use.
    return internal::LayeredMorselPlan(*store_, {pdt.get()},
                                       std::move(projection),
                                       std::move(ranges), scan_opts, {pdt});
  }
  // Parallel VDT path (ResolveMorselPlan: an empty range list means "no
  // pruning" — both the unbounded scan and the conservative LookupRange
  // fallback — i.e. the whole table).
  MorselPlan plan;
  plan.options = scan_opts;
  if (!ResolveMorselPlan(&ranges, store_->num_rows(),
                         store_->options().chunk_rows,
                         vdt_->InsertCount() + vdt_->DeleteCount(),
                         &plan)) {
    plan.serial = std::make_unique<VdtMergeScan>(
        store_.get(), vdt_.get(), std::move(projection), std::move(ranges),
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
          store_.get(), vdt_.get(), std::move(projection),
          std::move(ranges), bounds ? *bounds : KeyBounds{});
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
            store, vdt, projection, std::vector<SidRange>{morsel},
            user_bounds, std::move(fence_lo), std::move(fence_hi));
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
