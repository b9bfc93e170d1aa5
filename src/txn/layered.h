// The positional engine shared by the transaction layer and Table:
// resolving sort keys / full tuples through a stack of PDT layers
// (bottom..top), the merged binary search that locates a sort key in
// that stack, the SK-addressed updates built on it (Sec. 2.1, Alg. 3-6),
// and planning the serial-or-parallel layered merge scan. A Table's
// Read-PDT is the one-layer stack; its stable image alone is the empty
// stack.
#ifndef PDTSTORE_TXN_LAYERED_H_
#define PDTSTORE_TXN_LAYERED_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "exec/parallel_scan.h"
#include "pdt/merge_scan.h"
#include "pdt/pdt.h"
#include "storage/column_store.h"

namespace pdtstore {
namespace internal {

/// A PDT layer stack, bottom..top. A span, so a one-layer caller (a
/// Table's pinned Read-PDT) passes a local array instead of building a
/// vector on every lookup.
using LayerStack = std::span<const Pdt* const>;

/// Sort key of the merged tuple at `rid` (top-domain position). SK
/// columns are never modified in place, so only inserts redirect the key
/// source.
inline StatusOr<std::vector<Value>> LayeredSortKey(
    const ColumnStore& store, LayerStack layers,
    Rid rid) {
  Rid cur = rid;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    Pdt::RidLookup lk = (*it)->LookupRid(cur);
    if (lk.is_insert) {
      return (*it)->value_space().GetInsertSortKey(lk.insert_offset);
    }
    cur = lk.sid;
  }
  return store.GetSortKey(cur);
}

/// Full merged tuple at `rid`, honoring modify entries with higher layers
/// taking precedence.
inline StatusOr<Tuple> LayeredTuple(const ColumnStore& store,
                                    LayerStack layers,
                                    Rid rid) {
  Rid cur = rid;
  std::vector<std::pair<ColumnId, Value>> mods;  // top-most first
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    const Pdt* layer = *it;
    Pdt::RidLookup lk = layer->LookupRid(cur);
    if (lk.is_insert) {
      Tuple t = layer->value_space().GetInsertTuple(lk.insert_offset);
      for (auto mit = mods.rbegin(); mit != mods.rend(); ++mit) {
        t[mit->first] = mit->second;
      }
      return t;
    }
    for (auto [col, off] : lk.mods) {
      mods.emplace_back(col, layer->value_space().GetModifyValue(col, off));
    }
    cur = lk.sid;
  }
  PDT_ASSIGN_OR_RETURN(Tuple t, store.GetTuple(cur));
  for (auto mit = mods.rbegin(); mit != mods.rend(); ++mit) {
    t[mit->first] = mit->second;
  }
  return t;
}

/// Merged row count of a layer stack over `stable_rows`.
inline uint64_t LayeredRowCount(uint64_t stable_rows,
                                LayerStack layers) {
  int64_t delta = 0;
  for (const Pdt* layer : layers) delta += layer->TotalDelta();
  return static_cast<uint64_t>(static_cast<int64_t>(stable_rows) + delta);
}

/// First RID whose merged SK is > `key` (the row count if none). Keys
/// compare on their common prefix, so a key prefix bounds its whole
/// group.
inline StatusOr<Rid> LayeredUpperBound(const ColumnStore& store,
                                       LayerStack layers,
                                       const std::vector<Value>& key) {
  Rid lo = 0;
  Rid hi = LayeredRowCount(store.num_rows(), layers);
  while (lo < hi) {
    Rid mid = lo + (hi - lo) / 2;
    PDT_ASSIGN_OR_RETURN(auto mid_key, LayeredSortKey(store, layers, mid));
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

/// True if the row just below upper bound `ub` holds exactly `key`.
inline StatusOr<bool> LayeredKeyBelow(const ColumnStore& store,
                                      LayerStack layers,
                                      Rid ub, const std::vector<Value>& key) {
  if (ub == 0) return false;
  PDT_ASSIGN_OR_RETURN(auto prev_key, LayeredSortKey(store, layers, ub - 1));
  return CompareTuples(prev_key, key) == 0;
}

/// RID of the row with exactly `key`; NotFound if absent.
inline StatusOr<Rid> LayeredFindRid(const ColumnStore& store,
                                    LayerStack layers,
                                    const std::vector<Value>& key) {
  PDT_ASSIGN_OR_RETURN(Rid ub, LayeredUpperBound(store, layers, key));
  PDT_ASSIGN_OR_RETURN(bool found, LayeredKeyBelow(store, layers, ub, key));
  if (!found) return Status::NotFound("key not found");
  return ub - 1;
}

/// True if some merged row holds exactly `key`.
inline StatusOr<bool> LayeredHasKey(const ColumnStore& store,
                                    LayerStack layers,
                                    const std::vector<Value>& key) {
  PDT_ASSIGN_OR_RETURN(Rid ub, LayeredUpperBound(store, layers, key));
  return LayeredKeyBelow(store, layers, ub, key);
}

// SK-addressed updates. `target` is the top of `layers` and receives the
// update; every position is in its RID domain, the stack's merged image.

/// Inserts `tuple` at its sort-key position: one upper-bound search
/// finds both a duplicate (AlreadyExists) and the insert RID, then
/// Algorithm 6 places it among ghosts.
inline Status LayeredInsert(const ColumnStore& store,
                            LayerStack layers,
                            Pdt* target, const Tuple& tuple) {
  const Schema& schema = target->schema();
  PDT_RETURN_NOT_OK(schema.ValidateTuple(tuple));
  std::vector<Value> key = schema.ExtractSortKey(tuple);
  PDT_ASSIGN_OR_RETURN(Rid ub, LayeredUpperBound(store, layers, key));
  PDT_ASSIGN_OR_RETURN(bool dup, LayeredKeyBelow(store, layers, ub, key));
  if (dup) return Status::AlreadyExists("duplicate sort key");
  return target->AddInsert(target->SKRidToSid(key, ub), ub, tuple);
}

/// Deletes the row with exactly `key`; NotFound if absent.
inline Status LayeredDelete(const ColumnStore& store,
                            LayerStack layers,
                            Pdt* target, const std::vector<Value>& key) {
  PDT_ASSIGN_OR_RETURN(Rid rid, LayeredFindRid(store, layers, key));
  return target->AddDelete(rid, key);
}

/// Sets column `col` of the row at `rid`. An SK-column modify runs as
/// delete + insert (Sec. 2.1) and is atomic: the new key is checked
/// before the delete, so a collision with another row (AlreadyExists)
/// or an ill-typed value changes nothing. Re-setting a key column to
/// its own value is legal.
inline Status LayeredModifyAt(const ColumnStore& store,
                              LayerStack layers,
                              Pdt* target, Rid rid, ColumnId col,
                              const Value& v) {
  const Schema& schema = target->schema();
  if (!schema.IsSortKeyColumn(col)) return target->AddModify(rid, col, v);
  PDT_ASSIGN_OR_RETURN(Tuple t, LayeredTuple(store, layers, rid));
  std::vector<Value> old_key = schema.ExtractSortKey(t);
  t[col] = v;
  PDT_RETURN_NOT_OK(schema.ValidateTuple(t));
  std::vector<Value> key = schema.ExtractSortKey(t);
  PDT_ASSIGN_OR_RETURN(Rid ub, LayeredUpperBound(store, layers, key));
  if (ub != rid + 1) {  // ub - 1 == rid: the row itself is no collision
    PDT_ASSIGN_OR_RETURN(bool dup, LayeredKeyBelow(store, layers, ub, key));
    if (dup) return Status::AlreadyExists("duplicate sort key");
  }
  PDT_RETURN_NOT_OK(target->AddDelete(rid, old_key));
  // The delete shifts every later row down by one.
  Rid pos = ub > rid ? ub - 1 : ub;
  return target->AddInsert(target->SKRidToSid(key, pos), pos, t);
}

/// LayeredModifyAt on the row with exactly `key`; NotFound if absent.
inline Status LayeredModify(const ColumnStore& store,
                            LayerStack layers,
                            Pdt* target, const std::vector<Value>& key,
                            ColumnId col, const Value& v) {
  PDT_ASSIGN_OR_RETURN(Rid rid, LayeredFindRid(store, layers, key));
  return LayeredModifyAt(store, layers, target, rid, col, v);
}

/// BatchSource wrapper that keeps a set of PDT layers alive exactly as
/// long as the wrapped source. Table-level (non-transactional) scans
/// pin the Read-PDT this way: a background merge's ReplacePdt then
/// never frees the layer under a running serial cursor.
class PinnedLayerSource : public BatchSource {
 public:
  PinnedLayerSource(std::unique_ptr<BatchSource> inner,
                    std::vector<std::shared_ptr<const Pdt>> pins)
      : inner_(std::move(inner)), pins_(std::move(pins)) {}
  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    return inner_->Next(out, max_rows);
  }

 private:
  std::unique_ptr<BatchSource> inner_;
  std::vector<std::shared_ptr<const Pdt>> pins_;
};

/// Plans the merge scan of stable interval `range` under a snapshot layer
/// stack: the serial merge cursor at one thread, or morsels + a
/// per-morsel source factory for the parallel pipelines — the shared
/// planning step of the transaction
/// Scan() paths and Table::PlanMorsels. A zero `morsel_rows` auto-tunes
/// the granularity from the chunk size and the stack's delta entry
/// density (AutoMorselRows). All layers must stay unmodified while the
/// plan's sources are consumed.
///
/// `pins` carries shared ownership of any `layers` whose lifetime is
/// not otherwise tied to the plan's consumer: the serial source is
/// wrapped to hold them and the parallel factory captures them, so the
/// layers live as long as anything built from this plan. Transaction
/// scans pass none (the transaction object owns its snapshot for the
/// scan's duration); Table::PlanMorsels pins the Read-PDT against a
/// concurrent background-merge ReplacePdt.
inline MorselPlan LayeredMorselPlan(
    const ColumnStore& store, std::vector<const Pdt*> layers,
    std::vector<ColumnId> projection, SidRange range,
    const ScanOptions& scan_opts,
    std::vector<std::shared_ptr<const Pdt>> pins = {}) {
  MorselPlan plan;
  plan.options = scan_opts;
  size_t entries = 0;
  for (const Pdt* layer : layers) entries += layer->EntryCount();
  if (!ResolveMorselPlan(range, store.options().chunk_rows, entries,
                         &plan)) {
    plan.serial = MakeMergeScan(store, layers, projection, range);
    if (!pins.empty()) {
      plan.serial = std::make_unique<PinnedLayerSource>(
          std::move(plan.serial), std::move(pins));
    }
    return plan;
  }
  const ColumnStore* store_ptr = &store;
  plan.factory =
      [store_ptr, layers = std::move(layers),
       projection = std::move(projection), pins = std::move(pins)](
          size_t, const SidRange& morsel, bool final_morsel) {
        return MakeMergeScan(*store_ptr, layers, projection, morsel,
                             final_morsel);
      };
  return plan;
}

}  // namespace internal
}  // namespace pdtstore

#endif  // PDTSTORE_TXN_LAYERED_H_
