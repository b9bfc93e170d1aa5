// Sparse index (zone map) on the stable table's sort key: per chunk, the
// min/max SK prefix and the starting SID. Because PDT SIDs respect ghost
// tuples (Sec. 2, "Respecting Deletes"), an index built on TABLE0 stays
// valid ("stale") across any number of PDT updates — a property this
// module's tests verify.
#ifndef PDTSTORE_STORAGE_SPARSE_INDEX_H_
#define PDTSTORE_STORAGE_SPARSE_INDEX_H_

#include <vector>

#include "columnstore/schema.h"
#include "storage/column_store.h"

namespace pdtstore {

/// Zone-map entry of one chunk.
struct ZoneEntry {
  Sid start_sid = 0;
  Sid end_sid = 0;                 ///< exclusive
  std::vector<Value> min_key;      ///< SK prefix min within chunk
  std::vector<Value> max_key;      ///< SK prefix max within chunk
};

/// Sparse min/max index over the SK of one stable table image.
class SparseIndex {
 public:
  SparseIndex() = default;

  /// Builds from a loaded ColumnStore by decoding the SK columns once.
  static StatusOr<SparseIndex> Build(const ColumnStore& store);

  /// The SID interval of the chunks possibly containing keys in [lo, hi]
  /// (prefix comparison, both bounds inclusive; empty `lo`/`hi` =
  /// unbounded on that side) — a superset of the true range, since zone
  /// maps are conservative. The image is SK-ordered, so the chunks with
  /// max >= lo form a suffix and those with min <= hi a prefix: the
  /// qualifying chunks are always contiguous, and one interval covers
  /// them exactly (asserted in debug builds). When no chunk qualifies
  /// the result is the whole table, which keeps out-of-range inserts
  /// reachable at either end of the image.
  SidRange LookupRange(const std::vector<Value>& lo,
                       const std::vector<Value>& hi) const;

  /// First SID at which a tuple with SK >= key could reside (start of the
  /// first chunk whose max >= key); num_rows if none.
  Sid LowerBoundSid(const std::vector<Value>& key) const;

  const std::vector<ZoneEntry>& entries() const { return entries_; }
  uint64_t num_rows() const { return num_rows_; }

 private:
  // Compares a zone key against a (possibly shorter) prefix bound.
  static int ComparePrefix(const std::vector<Value>& zone_key,
                           const std::vector<Value>& bound);

  std::vector<ZoneEntry> entries_;
  uint64_t num_rows_ = 0;
};

}  // namespace pdtstore

#endif  // PDTSTORE_STORAGE_SPARSE_INDEX_H_
