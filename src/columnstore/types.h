// Core scalar type system of the column store.
#ifndef PDTSTORE_COLUMNSTORE_TYPES_H_
#define PDTSTORE_COLUMNSTORE_TYPES_H_

#include <cstdint>
#include <string>

namespace pdtstore {

/// Scalar types supported by the store. The paper's evaluation needs
/// integers (sort keys, quantities), strings (sort keys, flags, names) and
/// decimals (prices, modelled as double).
enum class TypeId : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Name of a TypeId ("INT64" etc).
const char* TypeIdToString(TypeId t);

/// Row position within the current (merged) table image. Volatile: shifts
/// with every insert/delete before it.
using Rid = uint64_t;

/// Stable position within TABLE0 (the checkpointed on-disk image).
/// Non-unique for inserts, never changes until the next checkpoint.
using Sid = uint64_t;

/// Logical commit timestamp (LSN-like monotonically increasing number).
using LogicalTime = uint64_t;

/// Column index within a schema.
using ColumnId = uint32_t;

constexpr Rid kInvalidRid = ~0ULL;
constexpr Sid kInvalidSid = ~0ULL;

}  // namespace pdtstore

#endif  // PDTSTORE_COLUMNSTORE_TYPES_H_
