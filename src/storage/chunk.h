// A Chunk is the unit of stable columnar storage and I/O: one column's
// values for a contiguous SID range, encoded to bytes. The encoded payload
// models the on-disk block; decoding through the BufferPool models a disk
// read (and is what the I/O accounting of Fig. 19 counts).
#ifndef PDTSTORE_STORAGE_CHUNK_H_
#define PDTSTORE_STORAGE_CHUNK_H_

#include <string>

#include "columnstore/column_vector.h"
#include "storage/encoding.h"
#include "util/status.h"

namespace pdtstore {

/// One encoded column chunk plus its metadata.
struct Chunk {
  Sid start_sid = 0;        ///< SID of the first value
  size_t row_count = 0;     ///< number of values
  Encoding encoding = Encoding::kPlain;
  std::string data;         ///< encoded payload ("on disk")
  TypeId type = TypeId::kInt64;

  /// Size of the on-disk representation in bytes.
  size_t DiskBytes() const { return data.size(); }
};

/// Encodes `values` into a chunk starting at `start_sid`, choosing an
/// encoding per ChooseEncoding (always plain when `compression` is false).
StatusOr<Chunk> BuildChunk(const ColumnVector& values, Sid start_sid,
                           bool compression);

/// As BuildChunk but with a caller-chosen encoding (fuzz / test hook).
/// Falls back to plain when the encoding cannot represent the values
/// (wrong type, FOR range too wide).
StatusOr<Chunk> BuildChunkForced(const ColumnVector& values, Sid start_sid,
                                 Encoding forced);

/// Decodes a chunk's payload back to values. With `keep_encoded`, the
/// output keeps the compressed-execution representation (dictionary
/// codes, RLE run sidecar) where the encoding supports it.
Status DecodeChunk(const Chunk& chunk, ColumnVector* out,
                   bool keep_encoded = false);

}  // namespace pdtstore

#endif  // PDTSTORE_STORAGE_CHUNK_H_
