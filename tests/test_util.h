// Shared helpers for the test suite: quick schema/table construction and a
// row-store reference model that updates are mirrored into, so merged
// output can be compared against ground truth.
#ifndef PDTSTORE_TESTS_TEST_UTIL_H_
#define PDTSTORE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "columnstore/schema.h"
#include "pdt/merge_scan.h"
#include "pdt/pdt.h"
#include "storage/column_store.h"

namespace pdtstore {
namespace testutil {

/// The paper's running-example schema: inventory(store, prod, new, qty)
/// with SK (store, prod) — Figure 1.
inline std::shared_ptr<const Schema> InventorySchema() {
  auto schema = Schema::Make({{"store", TypeId::kString},
                              {"prod", TypeId::kString},
                              {"new", TypeId::kString},
                              {"qty", TypeId::kInt64}},
                             {0, 1});
  return std::make_shared<const Schema>(std::move(*schema));
}

/// Figure 1's TABLE0 rows.
inline std::vector<Tuple> InventoryRows() {
  return {
      {"London", "chair", "N", 30},
      {"London", "stool", "N", 10},
      {"London", "table", "N", 20},
      {"Paris", "rug", "N", 1},
      {"Paris", "stool", "N", 5},
  };
}

/// Builds a loaded ColumnStore from rows.
inline std::unique_ptr<ColumnStore> BuildStore(
    std::shared_ptr<const Schema> schema, const std::vector<Tuple>& rows,
    ColumnStoreOptions options = {}) {
  auto store = std::make_unique<ColumnStore>(*schema, options,
                                             std::make_shared<BufferPool>());
  Status st = store->BulkLoad(rows);
  if (!st.ok()) return nullptr;
  return store;
}

/// All column ids of a schema.
inline std::vector<ColumnId> AllColumns(const Schema& schema) {
  std::vector<ColumnId> cols(schema.num_columns());
  for (ColumnId i = 0; i < cols.size(); ++i) cols[i] = i;
  return cols;
}

/// Merged image through the PDT stack, as rows.
inline std::vector<Tuple> MergedRows(const ColumnStore& store,
                                     std::vector<const Pdt*> layers,
                                     std::vector<ColumnId> projection = {},
                                     size_t batch_size = kDefaultBatchSize) {
  if (projection.empty()) projection = AllColumns(store.schema());
  auto scan = MakeMergeScan(store, layers, projection, store.FullRange());
  auto rows = CollectRows(scan.get(), batch_size);
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

/// A reference row-store image plus a PDT kept in sync through the
/// SK-based update API; used by property tests. The PDT's RID domain is
/// the model vector's index space.
class ModelTable {
 public:
  ModelTable(std::shared_ptr<const Schema> schema, std::vector<Tuple> rows)
      : schema_(schema),
        rows_(std::move(rows)),
        pdt_(std::make_unique<Pdt>(schema)) {}

  const std::vector<Tuple>& rows() const { return rows_; }
  Pdt* pdt() { return pdt_.get(); }
  const Schema& schema() const { return *schema_; }

  /// First RID whose row's SK is > key (== rows.size() if none).
  Rid UpperBoundRid(const std::vector<Value>& key) const {
    Rid lo = 0, hi = rows_.size();
    while (lo < hi) {
      Rid mid = (lo + hi) / 2;
      if (schema_->CompareTupleToKey(rows_[mid], key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// True if a row with exactly this SK exists; sets *rid.
  bool FindKey(const std::vector<Value>& key, Rid* rid) const {
    Rid ub = UpperBoundRid(key);
    if (ub == 0) return false;
    if (schema_->CompareTupleToKey(rows_[ub - 1], key) != 0) return false;
    *rid = ub - 1;
    return true;
  }

  Status Insert(const Tuple& tuple) {
    std::vector<Value> key = schema_->ExtractSortKey(tuple);
    Rid rid;
    if (FindKey(key, &rid)) return Status::AlreadyExists("duplicate SK");
    Rid pos = UpperBoundRid(key);
    Sid sid = pdt_->SKRidToSid(key, pos);
    PDT_RETURN_NOT_OK(pdt_->AddInsert(sid, pos, tuple));
    rows_.insert(rows_.begin() + pos, tuple);
    return Status::OK();
  }

  Status DeleteAt(Rid rid) {
    PDT_RETURN_NOT_OK(
        pdt_->AddDelete(rid, schema_->ExtractSortKey(rows_[rid])));
    rows_.erase(rows_.begin() + rid);
    return Status::OK();
  }

  Status ModifyAt(Rid rid, ColumnId col, const Value& v) {
    PDT_RETURN_NOT_OK(pdt_->AddModify(rid, col, v));
    rows_[rid][col] = v;
    return Status::OK();
  }

  size_t size() const { return rows_.size(); }

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<Tuple> rows_;
  std::unique_ptr<Pdt> pdt_;
};

}  // namespace testutil
}  // namespace pdtstore

#endif  // PDTSTORE_TESTS_TEST_UTIL_H_
