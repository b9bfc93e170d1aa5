// The stable table (TABLE0 of the paper): immutable, SK-ordered, chunked
// columnar storage. All reads go through a BufferPool so that scans can be
// run "cold" (counting simulated I/O) or "hot". Updates never touch this
// structure — they live in a PDT or VDT until a checkpoint rebuilds it.
#ifndef PDTSTORE_STORAGE_COLUMN_STORE_H_
#define PDTSTORE_STORAGE_COLUMN_STORE_H_

#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "columnstore/schema.h"
#include "storage/buffer_pool.h"
#include "storage/chunk.h"

namespace pdtstore {

/// Half-open SID range [begin, end) of a stable image: the one interval
/// every scan covers.
struct SidRange {
  Sid begin = 0;
  Sid end = 0;
  bool operator==(const SidRange&) const = default;
};

/// Configuration of stable storage.
struct ColumnStoreOptions {
  size_t chunk_rows = 16384;   ///< values per chunk per column
  bool compression = true;     ///< choose encodings vs always-plain
  /// Decode chunks to the compressed-execution representation (live
  /// dictionary codes, RLE run sidecars) instead of plain copies. False
  /// is the decoded differential-reference path; results are identical.
  bool encoded_exec = true;
  /// Per-column encoding overrides for bulk load (empty = ChooseEncoding
  /// per chunk). Columns beyond the vector's size auto-choose; an
  /// encoding a chunk cannot support (type mismatch, FOR range too wide)
  /// falls back to plain. Used by the differential fuzzer to force
  /// plain/RLE/dict/FOR coverage.
  std::vector<Encoding> forced_encodings;
};

/// Immutable chunked columnar table image.
class ColumnStore {
 public:
  ColumnStore(Schema schema, ColumnStoreOptions options,
              std::shared_ptr<BufferPool> pool);

  /// Bulk-loads SK-ordered rows. Fails if rows are not sorted on the SK or
  /// contain SK duplicates (the SK is a key). Callable once.
  Status BulkLoad(const std::vector<Tuple>& rows);

  /// Column-wise bulk load (one ColumnVector per schema column, equal
  /// sizes, SK-ordered). This is the fast path used by generators and
  /// checkpoints.
  Status BulkLoadColumns(std::vector<ColumnVector> columns);

  const Schema& schema() const { return schema_; }
  const ColumnStoreOptions& options() const { return options_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return chunk_bounds_.size(); }
  /// Every SID of the image: the range of an unbounded scan.
  SidRange FullRange() const { return SidRange{0, num_rows_}; }

  /// [start_sid, start_sid + rows) of chunk `ci`.
  std::pair<Sid, Sid> ChunkSidRange(size_t ci) const;

  /// Chunk index containing `sid`.
  size_t ChunkIndexForSid(Sid sid) const;

  /// Decoded values of column `col` in chunk `ci` (through the pool).
  StatusOr<std::shared_ptr<const ColumnVector>> FetchChunk(ColumnId col,
                                                           size_t ci) const;

  /// Chunk metadata (SID range, encoding, payload) of column `col`, chunk
  /// `ci`.
  const Chunk& chunk_meta(ColumnId col, size_t ci) const {
    return columns_[col][ci];
  }

  /// Random access to a single value (through the pool; O(1) amortized on
  /// repeated nearby access). Used for SK positioning of updates.
  StatusOr<Value> GetValue(ColumnId col, Sid sid) const;

  /// Materializes the full stable tuple at `sid`.
  StatusOr<Tuple> GetTuple(Sid sid) const;

  /// Extracts the SK of the stable tuple at `sid`.
  StatusOr<std::vector<Value>> GetSortKey(Sid sid) const;

  /// Total encoded ("on disk") bytes, per column and overall.
  uint64_t DiskBytes() const;
  uint64_t DiskBytesForColumn(ColumnId col) const;

  BufferPool* buffer_pool() const { return pool_.get(); }
  std::shared_ptr<BufferPool> shared_buffer_pool() const { return pool_; }

 private:
  uint64_t ChunkKey(ColumnId col, size_t ci) const;

  Schema schema_;
  ColumnStoreOptions options_;
  std::shared_ptr<BufferPool> pool_;
  // columns_[col][chunk]
  std::vector<std::vector<Chunk>> columns_;
  std::vector<Sid> chunk_bounds_;  // start SID of each chunk
  uint64_t num_rows_ = 0;
  uint64_t store_id_ = 0;  // distinguishes pool keys across store versions
  bool loaded_ = false;
};

}  // namespace pdtstore

#endif  // PDTSTORE_STORAGE_COLUMN_STORE_H_
