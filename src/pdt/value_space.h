// The PDT's value space (Sec. 2.1, "Value Space"): the side tables that
// update entries reference by offset —
//   ins<col1..coln>   full newly-inserted tuples (columnar),
//   del<SK>           sort-key values of deleted stable ("ghost") tuples,
//   colk<colk>        per-column modified values.
// Offsets are stable; removing an update (e.g. delete-of-insert, or a
// delete that collapses a tuple's modify entries) leaves a hole. Compact()
// drops the holes: Pdt::Clone() copies through it, so every Write→Read
// fold starts from a hole-free Read-PDT, and a checkpoint drops the
// whole value space.
#ifndef PDTSTORE_PDT_VALUE_SPACE_H_
#define PDTSTORE_PDT_VALUE_SPACE_H_

#include <memory>
#include <vector>

#include "columnstore/column_vector.h"
#include "columnstore/schema.h"
#include "pdt/update_entry.h"
#include "util/status.h"

namespace pdtstore {

/// Columnar side storage for one PDT.
class ValueSpace {
 public:
  explicit ValueSpace(std::shared_ptr<const Schema> schema);

  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> shared_schema() const { return schema_; }

  // --- insert table ---

  /// Appends a full tuple; returns its offset.
  uint64_t AddInsertTuple(const Tuple& tuple);
  /// In-place modify of one column of an inserted tuple.
  void SetInsertColumn(uint64_t offset, ColumnId col, const Value& v);
  Value GetInsertColumn(uint64_t offset, ColumnId col) const;
  Tuple GetInsertTuple(uint64_t offset) const;
  /// SK values (in sort-key order) of an inserted tuple.
  std::vector<Value> GetInsertSortKey(uint64_t offset) const;

  // --- delete table ---

  /// Appends the SK of a deleted stable tuple; returns its offset.
  uint64_t AddDeleteKey(const std::vector<Value>& sk_values);
  std::vector<Value> GetDeleteKey(uint64_t offset) const;

  // --- per-column modify tables ---

  /// Appends a modified value for column `col`; returns its offset.
  uint64_t AddModifyValue(ColumnId col, const Value& v);
  void SetModifyValue(ColumnId col, uint64_t offset, const Value& v);
  Value GetModifyValue(ColumnId col, uint64_t offset) const;

  /// Raw insert-table columns (hot path of MergeScan materialization).
  const ColumnVector& insert_column(ColumnId col) const {
    return insert_cols_[col];
  }

  /// Raw per-column modify table (hot path of MergeScan patching:
  /// typed SetFrom instead of boxing each value through Value).
  const ColumnVector& modify_column(ColumnId col) const {
    return modify_cols_[col];
  }

  /// Lexicographic comparison helpers used by AddInsert positioning and
  /// Serialize (INS-INS ordering).
  int CompareInsertKeys(uint64_t offset_a, const ValueSpace& other,
                        uint64_t offset_b) const;
  int CompareInsertKeyToKey(uint64_t offset,
                            const std::vector<Value>& key) const;
  int CompareDeleteKeyToKey(uint64_t offset,
                            const std::vector<Value>& key) const;

  size_t insert_count() const {
    return insert_cols_.empty() ? 0 : insert_cols_[0].size();
  }
  size_t delete_count() const {
    return delete_cols_.empty() ? 0 : delete_cols_[0].size();
  }

  /// A copy holding only the rows `*entries` reference, each table's
  /// rows kept in increasing old-offset order; rewrites every entry's
  /// offset to its row in the copy. Each row must be referenced at most
  /// once (as every PDT entry owns its value).
  ValueSpace Compact(std::vector<UpdateEntry>* entries) const;

  /// Approximate heap footprint.
  size_t MemoryBytes() const;

  void Clear();

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<ColumnVector> insert_cols_;  // one per schema column
  std::vector<ColumnVector> delete_cols_;  // one per SK column
  std::vector<ColumnVector> modify_cols_;  // one per schema column
};

}  // namespace pdtstore

#endif  // PDTSTORE_PDT_VALUE_SPACE_H_
