#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace pdtstore {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

}  // namespace pdtstore
