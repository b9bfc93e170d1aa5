// Internal helpers shared by the transaction engine and Table::Scan:
// resolving sort keys / full tuples through a stack of PDT layers
// (bottom..top), walking RIDs downward through each layer's SID domain,
// and planning the serial-or-parallel layered merge scan.
#ifndef PDTSTORE_TXN_LAYERED_H_
#define PDTSTORE_TXN_LAYERED_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/parallel_scan.h"
#include "exec/zone_prune.h"
#include "pdt/merge_scan.h"
#include "pdt/pdt.h"
#include "storage/column_store.h"

namespace pdtstore {
namespace internal {

/// Sort key of the merged tuple at `rid` (top-domain position). SK
/// columns are never modified in place, so only inserts redirect the key
/// source.
inline StatusOr<std::vector<Value>> LayeredSortKey(
    const ColumnStore& store, const std::vector<const Pdt*>& layers,
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
                                    const std::vector<const Pdt*>& layers,
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
                                const std::vector<const Pdt*>& layers) {
  int64_t delta = 0;
  for (const Pdt* layer : layers) delta += layer->TotalDelta();
  return static_cast<uint64_t>(static_cast<int64_t>(stable_rows) + delta);
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

/// Plans the merge scan over a snapshot layer stack: the serial merge
/// cursor at one thread, or morsels + a per-morsel source factory for
/// the parallel pipelines — the shared planning step of the transaction
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
    std::vector<ColumnId> projection, std::vector<SidRange> ranges,
    const ScanOptions& scan_opts,
    std::vector<std::shared_ptr<const Pdt>> pins = {}) {
  MorselPlan plan;
  plan.options = scan_opts;
  size_t entries = 0;
  for (const Pdt* layer : layers) entries += layer->EntryCount();
  // Zone-map pruning first, so skipped chunks shape the morsel split
  // (dead chunks are never fetched — serial or parallel).
  ranges = PruneRangesWithZoneMaps(store, layers, std::move(ranges),
                                   scan_opts.zone_filters, projection);
  if (!ResolveMorselPlan(&ranges, store.num_rows(),
                         store.options().chunk_rows, entries, &plan)) {
    if (ranges.size() == 1 && ranges[0].begin == ranges[0].end) {
      // Everything pruned: MakeMergeScan would start the layer cursors
      // at position 0 (the stable scan never emits a batch to re-seek
      // on), so build the one empty-range source positioned at the scan
      // end directly — it emits exactly the trailing inserts.
      plan.serial = MakeMorselMergeScan(store, layers, projection,
                                        ranges[0], /*final_morsel=*/true);
    } else {
      plan.serial = MakeMergeScan(store, std::move(layers),
                                  std::move(projection), std::move(ranges));
    }
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
        return MakeMorselMergeScan(*store_ptr, layers, projection, morsel,
                                   final_morsel);
      };
  return plan;
}

}  // namespace internal
}  // namespace pdtstore

#endif  // PDTSTORE_TXN_LAYERED_H_
