// The Positional Delta Tree (PDT) — the paper's core contribution.
//
// A counted-B+-tree-like structure whose leaves hold differential updates
// (INS/DEL/modify triplets referencing a ValueSpace), keyed by the two
// non-unique but jointly-unique monotonically increasing keys SID and RID
// (Theorem 1). Internal nodes store, per child, the minimum SID of the
// child's subtree and the subtree's `delta` (= #inserts - #deletes), so
// that summing deltas on a root-to-leaf path converts between SIDs
// (positions in the underlying/stable image) and RIDs (positions in the
// current image) in O(log n).
//
// Deviations from the paper's sketch, documented here and in DESIGN.md:
//  * Fan-out is fixed at kFanout = 8 (Sec. 3.1) and node arrays are sized
//    to it exactly; there is no slack slot, so growth paths assert room.
//  * Leaves are doubly linked; algorithms operate on a bidirectional
//    cursor, which makes the "jump to successor leaf" details the paper
//    omits explicit (and handles update chains spanning leaf boundaries).
//  * Under-full leaves are not rebalanced; a leaf that becomes empty
//    (delete-of-insert) is unlinked immediately. PDTs are short-lived
//    (bounded by Propagate/checkpoint), so rebalancing buys nothing.
//  * Removing an update leaves a hole in the value space; Clone() copies
//    only the values live entries reference, so every Write→Read fold
//    (which clones the Read-PDT) drops the holes of the folds before it.
//  * AddModify of a column whose tuple already has a *different* column's
//    modify entry appends a separate entry (one entry per modified
//    column), matching Merge (Alg. 2 lines 15-18).
//  * SerializeAgainst flattens, transforms and rebuilds rather than
//    mutating separator keys in place; same O(n) commit-time cost, far
//    simpler to reason about.
#ifndef PDTSTORE_PDT_PDT_H_
#define PDTSTORE_PDT_PDT_H_

#include <memory>
#include <string>
#include <vector>

#include "pdt/update_entry.h"
#include "pdt/value_space.h"
#include "util/status.h"

namespace pdtstore {

/// Entries per leaf / children per internal node. The paper picks 8 so a
/// leaf spans two cache lines (Sec. 3.1).
constexpr int kFanout = 8;

/// A single PDT layer. Thread-compatible (external synchronization; the
/// transaction manager clones PDTs for snapshot isolation instead of
/// locking them).
class Pdt {
 private:
  struct LeafNode;
  struct InternNode;
  struct NodeHeader;

 public:
  explicit Pdt(std::shared_ptr<const Schema> schema);
  ~Pdt();

  Pdt(const Pdt&) = delete;
  Pdt& operator=(const Pdt&) = delete;

  /// Deep copy: the same entries over a compacted value space that holds
  /// only the values live entries reference, renumbered in increasing
  /// old-offset order (a PDT without holes clones to identical entries).
  /// Used to snapshot the Write-PDT at transaction start and as the base
  /// of every Write→Read fold (Sec. 3.3).
  std::unique_ptr<Pdt> Clone() const;

  const Schema& schema() const { return value_space_.schema(); }
  const ValueSpace& value_space() const { return value_space_; }
  ValueSpace& value_space() { return value_space_; }

  // ----------------------------------------------------------------
  // Update operations (Sec. 3.2). Positions are in *this* PDT's RID
  // domain; `sid` of AddInsert is in its SID domain (obtained via
  // SKRidToSid so inserts respect ghost order).
  // ----------------------------------------------------------------

  /// Algorithm 3: records the insertion of `tuple` at position `rid`;
  /// `sid` determines its order relative to ghost tuples.
  Status AddInsert(Sid sid, Rid rid, const Tuple& tuple);

  /// Algorithm 4: records setting column `col` of the tuple currently at
  /// `rid` to `v`. In-place if that tuple is a PDT insert or already has a
  /// modify entry for `col`.
  Status AddModify(Rid rid, ColumnId col, const Value& v);

  /// Algorithm 5: records the deletion of the tuple currently at `rid`;
  /// `sk_values` (the tuple's sort key) populate the ghost entry. Deleting
  /// a PDT insert erases it; deleting a modified stable tuple collapses
  /// its modify entries into one DEL.
  Status AddDelete(Rid rid, const std::vector<Value>& sk_values);

  /// Algorithm 6: maps (`sk`, `rid`) to the SID where an insert should go,
  /// placing it correctly among ghost tuples by comparing sort keys.
  Sid SKRidToSid(const std::vector<Value>& sk, Rid rid) const;

  // ----------------------------------------------------------------
  // Lookup.
  // ----------------------------------------------------------------

  /// What occupies position `rid` of the merged image.
  struct RidLookup {
    bool is_insert = false;  ///< true: a PDT-inserted tuple
    uint64_t insert_offset = 0;
    Sid sid = 0;  ///< stable SID when !is_insert
    /// (column, modify-space offset) entries applying to the stable tuple.
    std::vector<std::pair<ColumnId, uint64_t>> mods;
  };
  RidLookup LookupRid(Rid rid) const;

  /// Net RID shift of all updates (#inserts - #deletes).
  int64_t TotalDelta() const {
    return static_cast<int64_t>(insert_count_) -
           static_cast<int64_t>(delete_count_);
  }

  size_t EntryCount() const { return entry_count_; }
  size_t InsertCount() const { return insert_count_; }
  size_t DeleteCount() const { return delete_count_; }
  size_t ModifyCount() const {
    return entry_count_ - insert_count_ - delete_count_;
  }
  bool Empty() const { return entry_count_ == 0; }

  /// Heap footprint of tree nodes + value space.
  size_t MemoryBytes() const;

  // ----------------------------------------------------------------
  // Iteration. A Cursor walks entries in (SID, RID) order and knows the
  // running delta, hence each entry's RID. An exhausted cursor parks at
  // (last leaf, count): !Valid(), but still a usable insertion point.
  // ----------------------------------------------------------------

  class Cursor {
   public:
    Cursor() = default;
    bool Valid() const;
    void Next();
    Sid sid() const;
    Rid rid() const { return sid() + static_cast<Rid>(delta_before_); }
    uint16_t type() const;
    uint64_t value() const;
    /// Sum of deltas of all entries strictly before this one.
    int64_t delta_before() const { return delta_before_; }
    UpdateEntry entry() const { return {sid(), type(), value()}; }

   private:
    friend class Pdt;
    LeafNode* leaf_ = nullptr;
    int pos_ = 0;
    int64_t delta_before_ = 0;
  };

  /// Cursor at the first entry (!Valid() if empty).
  Cursor Begin() const;

  /// Cursor at the first entry with entry.sid >= `sid` (!Valid() if none).
  /// Used by MergeScan range scans.
  Cursor SeekSid(Sid sid) const;

  /// All entries in order. O(n); for tests, Serialize and rebuilds.
  std::vector<UpdateEntry> Flatten() const;

  /// Bulk-builds from (SID,RID)-ordered entries into an empty PDT. The
  /// value space is not touched: entries must already reference it.
  Status BuildFromSorted(const std::vector<UpdateEntry>& entries);

  /// Drops all entries and the value space.
  void Clear();

  /// Verifies structural invariants (delta sums, min-SID separators,
  /// (SID,RID) ordering & uniqueness (Thm. 1), chain shapes (Cor. 3-4),
  /// leaf-chain consistency). Test-only; O(n).
  Status CheckInvariants() const;

  /// Debug dump of the tree.
  std::string DebugString() const;

  // Implemented in propagate.cc / serialize.cc:

  /// Algorithm 7: folds consecutive PDT `w` (whose SID domain equals this
  /// PDT's RID domain) into this PDT.
  Status Propagate(const Pdt& w);

  /// Algorithm 8: makes this (newer, aligned) PDT consecutive to `ty` by
  /// converting its SIDs into ty's RID domain. Returns Status::Conflict
  /// on a write-write conflict (caller aborts the transaction).
  Status SerializeAgainst(const Pdt& ty);

 private:
  // --- navigation ---
  // All Descend* return a cursor at position 0 of the located leaf with
  // delta_before set to the delta of everything left of that leaf.
  Cursor DescendRightmostByRid(Rid rid) const;
  Cursor DescendRightmostBySidRid(Sid sid, Rid rid) const;
  Cursor DescendLeftmostBySid(Sid sid) const;

  // Steps the cursor back one entry; false at the beginning.
  static bool PrevCursor(Cursor* c);

  // --- structural editing ---
  void InsertEntryAt(Cursor* c, Sid sid, uint16_t type, uint64_t value);
  // Removes the entry under the cursor, re-pointing the cursor at the
  // following entry (delta_before unchanged for MOD removals only if the
  // removed entry contributed 0; callers re-derive deltas as needed).
  void RemoveEntryAt(Cursor* c);
  void AddNodeDeltas(LeafNode* leaf, int64_t val);
  void UpdateMinSidUpward(NodeHeader* node);
  LeafNode* SplitLeaf(LeafNode* leaf);
  InternNode* SplitIntern(InternNode* node);
  void LinkSibling(NodeHeader* left, NodeHeader* right, Sid right_min,
                   int64_t right_delta);
  void RemoveFromParent(NodeHeader* node);
  void FreeSubtree(NodeHeader* node);
  void ClearTree();
  int64_t SubtreeDelta(const NodeHeader* node) const;
  Sid SubtreeMinSid(const NodeHeader* node) const;
  void BumpCounters(uint16_t type, int dir);

  Status CheckSubtree(const NodeHeader* node, size_t* entries_seen,
                      int depth, int leaf_depth, int64_t* deep_delta) const;
  int LeafDepth() const;

  ValueSpace value_space_;
  NodeHeader* root_ = nullptr;  // a LeafNode when the tree has height 1
  LeafNode* first_leaf_ = nullptr;
  LeafNode* last_leaf_ = nullptr;
  size_t entry_count_ = 0;
  size_t insert_count_ = 0;
  size_t delete_count_ = 0;
  size_t node_count_ = 0;
};

}  // namespace pdtstore

#endif  // PDTSTORE_PDT_PDT_H_
