// Typed, densely packed column of values. This is the in-memory unit of
// vectorized execution (a column of a Batch), of decoded storage chunks,
// and of the PDT value space tables.
//
// Compressed execution (see DESIGN.md "Compressed execution"): a column
// has one of three representations, transparent to the kernel API.
//   owned-plain    values live in this vector's typed storage (legacy).
//   owned-dict     string columns only: a uint32 code per row plus a
//                  shared, immutable StringDict (values + precomputed
//                  hashes). Hash/compare degrade to int operations.
//   borrowed       a [view_offset, view_offset+len) window over another
//                  *owned* vector, pinned by shared_ptr. Zero-copy scan
//                  batches borrow directly from buffer-pool chunk storage.
// Read kernels (AppendRange/Gather/Filtered, HashColumn, CompareAt,
// GetValue) resolve the representation internally. Mutating entry points
// (Append*, SetValue/SetFrom, mutable typed accessors) first detach a
// borrow into owned storage — and, where the operation cannot be
// expressed on codes, decay dictionary columns to plain strings — so a
// writer can never scribble on pool-owned chunk memory shared with
// concurrent readers. An optional RLE run sidecar (decode-time metadata)
// accelerates predicate kernels; it is dropped on any mutation.
#ifndef PDTSTORE_COLUMNSTORE_COLUMN_VECTOR_H_
#define PDTSTORE_COLUMNSTORE_COLUMN_VECTOR_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnstore/sel_vector.h"
#include "columnstore/types.h"
#include "columnstore/value.h"

namespace pdtstore {

/// Seed for the bulk HashColumn kernel: callers initialize every slot of
/// the output array to this before mixing in the first column.
constexpr uint64_t kHashSeed = 0x9E3779B97F4A7C15ULL;

// --- hash primitives (shared by HashColumn and decode-time dictionary
// hash precomputation; dict-path hashes must equal plain-path hashes) ---

/// splitmix64 finalizer: full-avalanche mixing of a 64-bit word.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Folds a new element hash into the running per-row hash.
inline uint64_t CombineHash(uint64_t acc, uint64_t h) {
  return Mix64(acc ^ h);
}

/// FNV-1a over the bytes, finalized through Mix64 for avalanche.
inline uint64_t HashBytes(const char* data, size_t n) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<uint8_t>(data[i])) * 0x100000001B3ULL;
  }
  return Mix64(h);
}

/// Double key equality as CompareAt sees it: 0.0 equals -0.0, and a NaN
/// equals anything (it is neither less nor greater). The typed verify
/// kernels of hash aggregation and the join probe both use this rule.
inline bool DoubleKeysEqual(double a, double b) {
  return !(a < b) & !(a > b);
}

/// Immutable string dictionary shared between a decoded chunk and every
/// batch column borrowing from it. `values` is in *appearance order* (the
/// on-disk dict encoding), NOT sorted: codes must never be compared for
/// order, only for equality. `hashes[i] == HashBytes(values[i])`,
/// precomputed once per chunk so per-batch group-by hashing is an array
/// lookup instead of a byte scan.
struct StringDict {
  std::vector<std::string> values;
  std::vector<uint64_t> hashes;
};

/// RLE run layout of an owned vector's rows: run i covers rows
/// [i == 0 ? 0 : ends[i-1], ends[i]). Pure accelerator metadata — the
/// plain values are always materialized alongside — so predicate kernels
/// may use it (one compare per run) or ignore it. Borrowed views inherit
/// the owner's runs; run bounds are in *owner* row coordinates, shifted
/// by view_offset().
struct RleRuns {
  std::vector<uint32_t> ends;
};

/// A typed growable column. Typed span accessors are the hot path; the
/// Value-based API is for boundaries and tests.
class ColumnVector {
 public:
  ColumnVector() : type_(TypeId::kInt64) {}
  explicit ColumnVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const {
    if (owner_) return view_len_;
    if (dict_) return codes_.size();
    switch (type_) {
      case TypeId::kInt64:
        return ints_.size();
      case TypeId::kDouble:
        return doubles_.size();
      case TypeId::kString:
        return strings_.size();
    }
    return 0;
  }
  bool empty() const { return size() == 0; }

  /// Drops all rows AND all representation state (borrow pin, dictionary,
  /// run sidecar); the column reverts to owned-plain-empty. Batch reuse
  /// via ResetLike therefore releases chunk pins every pull cycle.
  void Clear();
  void Reserve(size_t n);

  // --- zero-copy borrow (scan fast path) ---

  /// Makes this column a read-only view of rows [off, off+len) of `*src`
  /// without copying. `src` must outlive nothing: the shared_ptr pins it
  /// (and, transitively, the buffer-pool chunk that owns it) until this
  /// column is Cleared, mutated (copy-on-write detach) or destroyed.
  /// Borrowing from an already-borrowed column re-borrows from its owner,
  /// so borrow chains are always depth 1.
  void BorrowFrom(std::shared_ptr<const ColumnVector> src, size_t off,
                  size_t len);
  /// Replaces this column with rows [off, off+len) of `src`. A borrowed
  /// `src` is re-borrowed from its owner (zero-copy, so borrows pass up
  /// stacked merge layers unchanged); an owned `src` is copied.
  void SliceFrom(const ColumnVector& src, size_t off, size_t len);
  bool is_borrowed() const { return owner_ != nullptr; }

  // --- dictionary representation (string columns) ---

  /// True if rows are stored as dictionary codes (possibly via a borrow).
  bool is_dict() const { return payload().dict_ != nullptr; }
  /// The shared dictionary; null unless is_dict().
  const std::shared_ptr<const StringDict>& dict() const {
    return payload().dict_;
  }
  /// Switches an empty owned string column to dictionary mode; fill rows
  /// through codes(). Decode-time API.
  void AdoptDict(std::shared_ptr<const StringDict> dict);
  /// Mutable code storage of an owned dictionary column (decode-time).
  std::vector<uint32_t>& codes() {
    assert(dict_ && !owner_);
    return codes_;
  }

  // --- RLE run sidecar ---

  /// Attaches run metadata describing the current rows (decode-time).
  void SetRleRuns(std::shared_ptr<const RleRuns> runs);
  /// Run layout of the *owning* payload, or null. Bounds are payload row
  /// indices; this view covers payload rows
  /// [view_offset(), view_offset() + size()).
  const RleRuns* rle_runs() const { return payload().runs_.get(); }
  size_t view_offset() const { return owner_ ? view_off_ : 0; }

  // --- read-side span accessors (resolve borrow + representation) ---

  const int64_t* ints_data() const {
    assert(type_ == TypeId::kInt64);
    return payload().ints_.data() + payload_off();
  }
  const double* doubles_data() const {
    assert(type_ == TypeId::kDouble);
    return payload().doubles_.data() + payload_off();
  }
  /// Plain string rows; must not be in dictionary mode.
  const std::string* strings_data() const {
    assert(type_ == TypeId::kString && !is_dict());
    return payload().strings_.data() + payload_off();
  }
  /// Dictionary codes; only valid when is_dict().
  const uint32_t* codes_data() const {
    assert(is_dict());
    return payload().codes_.data() + payload_off();
  }
  /// String value of row i regardless of representation.
  const std::string& StringAt(size_t i) const {
    assert(type_ == TypeId::kString);
    const ColumnVector& p = payload();
    size_t j = payload_off() + i;
    return p.dict_ ? p.dict_->values[p.codes_[j]] : p.strings_[j];
  }

  /// Appends a dynamically typed value; type must match.
  void Append(const Value& v);
  /// Appends a run of the same value `count` times.
  void AppendRun(const Value& v, size_t count);
  /// Appends element `i` of `other` (same type).
  void AppendFrom(const ColumnVector& other, size_t i);
  /// Appends elements [begin, end) of `other` (same type).
  void AppendRange(const ColumnVector& other, size_t begin, size_t end);

  // --- selection-vector kernels (see DESIGN.md) ---
  // Each dispatches on TypeId once per call and runs a tight typed inner
  // loop; these are the hot paths of filter/join/sort compaction. When
  // both sides share a dictionary (or this column is empty and adopts
  // other's), string gathers move uint32 codes instead of std::strings.

  /// Appends other[sel[0]], other[sel[1]], ... (same type).
  void AppendGather(const ColumnVector& other, const SelVector& sel);
  /// Appends every kept row of `other` (same type); keep.size() must be
  /// <= other.size().
  void AppendFiltered(const ColumnVector& other, const KeepBitmap& keep);
  /// Byte-per-row reference path (tests / bench ablation only).
  void AppendFiltered(const ColumnVector& other, const uint8_t* keep,
                      size_t n);
  /// Mixes a hash of element i into out[i] for all i in [0, size()).
  /// Callers seed out[] with kHashSeed, then call once per key column;
  /// equal key tuples yield equal combined hashes regardless of
  /// representation (dict hashes are precomputed HashBytes values). Not
  /// order-invariant across columns (hash(a,b) != hash(b,a) in general).
  void HashColumn(uint64_t* out) const;

  Value GetValue(size_t i) const;
  void SetValue(size_t i, const Value& v);
  /// this[i] = other[j] without boxing through Value (same type).
  void SetFrom(size_t i, const ColumnVector& other, size_t j);

  /// Three-way comparison of element i with element j of `other`. Equal
  /// codes under a shared dictionary short-circuit to 0; everything else
  /// compares lexically (dictionaries are appearance-ordered, so code
  /// order is meaningless). Doubles are equal exactly when
  /// DoubleKeysEqual says so.
  int CompareAt(size_t i, const ColumnVector& other, size_t j) const;

  // Typed hot-path accessors. Caller must respect type(). The mutable
  // overloads detach borrows and decay dictionaries to plain storage
  // (copy-on-write); the const overloads require owned-plain — readers
  // of scan output must use the *_data() / StringAt spans instead.
  std::vector<int64_t>& ints() {
    EnsureOwnedPlain();
    return ints_;
  }
  const std::vector<int64_t>& ints() const {
    assert(!owner_ && !dict_);
    return ints_;
  }
  std::vector<double>& doubles() {
    EnsureOwnedPlain();
    return doubles_;
  }
  const std::vector<double>& doubles() const {
    assert(!owner_ && !dict_);
    return doubles_;
  }
  std::vector<std::string>& strings() {
    EnsureOwnedPlain();
    return strings_;
  }
  const std::vector<std::string>& strings() const {
    assert(!owner_ && !dict_);
    return strings_;
  }

  /// Converts to owned-plain storage in place (detaches borrows, decodes
  /// dictionary codes). Exposed for boundary code and tests.
  void EnsureOwnedPlain();

  /// Approximate heap footprint in bytes (used for buffer-pool sizing and
  /// I/O accounting of uncompressed data). Borrowed views report the
  /// footprint of the window they pin; dictionary columns count codes
  /// plus the shared dictionary.
  size_t ByteSize() const;

 private:
  // Resolves a borrow to the vector that owns the rows.
  const ColumnVector& payload() const { return owner_ ? *owner_ : *this; }
  size_t payload_off() const { return owner_ ? view_off_ : 0; }
  uint32_t CodeAt(size_t i) const {
    const ColumnVector& p = payload();
    return p.codes_[payload_off() + i];
  }

  // Copy-on-write: turns a borrow into owned storage (dictionary columns
  // keep their codes + shared dict). Drops the run sidecar — mutation
  // invalidates it.
  void DetachToOwned();
  // Decays an owned dictionary column to plain strings.
  void DecayDictToPlain();
  // If this is an empty plain string column and `other` is in dictionary
  // mode, adopt other's dictionary so appends copy codes. Returns true
  // if this column is (now) in dictionary mode sharing other's dict.
  bool MatchDictFor(const ColumnVector& other);

  TypeId type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  // Dictionary representation: one code per row + shared dict.
  std::vector<uint32_t> codes_;
  std::shared_ptr<const StringDict> dict_;
  // Optional RLE layout of the owned rows (accelerator metadata only).
  std::shared_ptr<const RleRuns> runs_;
  // Borrowed mode: non-null owner pins the payload; this vector's own
  // storage is empty and reads resolve to owner rows
  // [view_off_, view_off_ + view_len_).
  std::shared_ptr<const ColumnVector> owner_;
  size_t view_off_ = 0;
  size_t view_len_ = 0;
};

}  // namespace pdtstore

#endif  // PDTSTORE_COLUMNSTORE_COLUMN_VECTOR_H_
