// Lightweight columnar chunk encodings. The paper's evaluation contrasts
// compressed (server, Fig. 19 plots 1-2) against uncompressed (workstation,
// plots 3-5) storage; sorted sort-key columns compress very well (delta),
// which is why the VDT's extra key I/O is smaller on the compressed config.
#ifndef PDTSTORE_STORAGE_ENCODING_H_
#define PDTSTORE_STORAGE_ENCODING_H_

#include <cstdint>
#include <string>

#include "columnstore/column_vector.h"
#include "util/status.h"

namespace pdtstore {

/// Physical encoding of one column chunk.
enum class Encoding : uint8_t {
  kPlain = 0,        ///< fixed-width values / length-prefixed strings
  kRle = 1,          ///< run-length (run_len varint + one plain value)
  kDeltaVarint = 2,  ///< int64 only: zig-zag varint deltas (sorted keys)
  kDict = 3,         ///< string only: dictionary + varint codes
  kForBitPack = 4,   ///< int64 only: frame-of-reference + bit packing
};

const char* EncodingToString(Encoding e);

/// Serializes `col` with the requested encoding into `out` (replaced).
Status EncodeColumn(const ColumnVector& col, Encoding encoding,
                    std::string* out);

/// Decodes `bytes` (produced by EncodeColumn with the same encoding and a
/// column of `count` values of type `type`) into `*out` (replaced).
/// With `keep_encoded`, dictionary chunks decode to live code vectors
/// (shared StringDict + precomputed hashes) and RLE chunks carry an
/// RleRuns sidecar, RLE strings as codes over a dictionary of their
/// distinct run values — the compressed-execution representations; values
/// are identical either way. `count` comes from chunk and image headers and is
/// not trusted: a payload that cannot hold `count` values is Corruption,
/// found before `out` is sized.
Status DecodeColumn(const std::string& bytes, TypeId type, Encoding encoding,
                    size_t count, ColumnVector* out,
                    bool keep_encoded = false);

/// Picks a cheap, effective encoding for the chunk by sampling: sorted
/// int64 -> delta-varint; heavy runs -> RLE; low-cardinality strings ->
/// dict; otherwise plain. With `compression_enabled == false` always plain.
Encoding ChooseEncoding(const ColumnVector& col, bool compression_enabled);

// --- fixed-width helpers (exposed for the WAL and checkpoint formats) ---
// All fixed-width on-disk integers are explicit little-endian, so WAL
// segments, MANIFESTs and table images mean the same bytes on every
// host. The byte-shift codecs compile to single loads/stores on LE.

inline void PutFixed32(std::string* out, uint32_t v) {
  const char buf[4] = {
      static_cast<char>(v), static_cast<char>(v >> 8),
      static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(buf, 4);
}

inline void PutFixed64(std::string* out, uint64_t v) {
  const char buf[8] = {
      static_cast<char>(v),       static_cast<char>(v >> 8),
      static_cast<char>(v >> 16), static_cast<char>(v >> 24),
      static_cast<char>(v >> 32), static_cast<char>(v >> 40),
      static_cast<char>(v >> 48), static_cast<char>(v >> 56)};
  out->append(buf, 8);
}

/// Reads a little-endian u32/u64 at `p` (caller checks bounds).
inline uint32_t DecodeFixed32(const char* p) {
  const uint8_t* b = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

inline uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

// --- varint helpers (exposed for tests and the WAL) ---

/// Appends an unsigned LEB128 varint.
void PutVarint64(std::string* out, uint64_t v);
/// Reads a varint at *pos, advancing it. Returns Corruption on truncation.
Status GetVarint64(const std::string& in, size_t* pos, uint64_t* v);
/// Zig-zag encode/decode signed 64-bit.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace pdtstore

#endif  // PDTSTORE_STORAGE_ENCODING_H_
