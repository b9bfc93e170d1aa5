#include "columnstore/types.h"

namespace pdtstore {

const char* TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kInt64:
      return "INT64";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

}  // namespace pdtstore
